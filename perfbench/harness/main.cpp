// perfbench harness — the C++ half of the record-path benchmark. run.py
// builds this binary and runs one subcommand per process, so each phase
// reports its own peak RSS:
//
//   capture       city_capture: Town → LiveFeed → v2+lz SpoolWriter
//   gen-spool     study_replay input: a simulated spool on disk
//   study-batch   spool → Dataset → analysis::run_study, repeated
//   study-online  spool → stream::OnlineStudy → finalize, repeated
//   serve-gen     serve_ingest input: v2+lz frames + offline reference
//   serve-host    a serve::Server on ephemeral loopback ports
//   serve-load    open-loop producer + /results poller against serve-host
//
// Every subcommand takes strict --key value flags (unknown key, bad
// number or out-of-range value → exit 2) and prints one JSON line.
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <span>

#include <sys/resource.h>
#include <unistd.h>

#include "common.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "stream/segment.hpp"
#include "workloads.hpp"

namespace perfbench {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

Flags::Flags(const dnsctx::CliArgs& args, const std::set<std::string>& known)
    : args_{args} {
  if (!args.positionals.empty()) {
    throw UsageError{"unexpected argument '" + args.positionals.front() + "'"};
  }
  if (!args.flags.empty()) {
    throw UsageError{"option --" + *args.flags.begin() + " needs a value"};
  }
  if (const auto unknown = args.unknown_keys(known); !unknown.empty()) {
    throw UsageError{"unknown option --" + unknown.front()};
  }
}

bool Flags::has(const std::string& name) const { return args_.option(name).has_value(); }

std::string Flags::str(const std::string& name) const {
  const auto v = args_.option(name);
  if (!v || v->empty()) throw UsageError{"missing --" + name};
  return *v;
}

std::uint64_t Flags::num(const std::string& name, std::uint64_t lo, std::uint64_t hi) const {
  const std::string v = str(name);
  std::uint64_t out = 0;
  for (const char c : v) {
    if (c < '0' || c > '9' || out > (UINT64_MAX - 9) / 10) {
      throw UsageError{"--" + name + " wants a whole number, got '" + v + "'"};
    }
    out = out * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (out < lo || out > hi) {
    throw UsageError{"--" + name + " must be in [" + std::to_string(lo) + ", " +
                     std::to_string(hi) + "], got " + v};
  }
  return out;
}

std::uint64_t Flags::num_or(const std::string& name, std::uint64_t fallback, std::uint64_t lo,
                            std::uint64_t hi) const {
  return has(name) ? num(name, lo, hi) : fallback;
}

void Report::print() const {
  std::string out = "{\"ok\":true,\"metrics\":{";
  bool first = true;
  char buf[64];
  for (const auto& [name, value] : metrics_) {
    std::snprintf(buf, sizeof buf, "%.17g", value);
    out += (first ? "\"" : ",\"") + json_escape(name) + "\":" + buf;
    first = false;
  }
  out += "},\"info\":{";
  first = true;
  auto info = info_;
  info["build_type"] = PERFBENCH_BUILD_TYPE;
  info["compiler"] = PERFBENCH_COMPILER;
  for (const auto& [name, value] : info) {
    out += (first ? "\"" : ",\"") + name + "\":\"" + value + "\"";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double peak_rss_kib() {
  std::ifstream in{"/proc/self/status"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

void start_trace(const Flags& flags, const std::string& tag) {
  if (!flags.has("trace-dir")) return;
  dnsctx::obs::set_enabled(true);
  Tracer::instance().enable(tag + "-" + std::to_string(::getpid()));
}

void write_trace(const Flags& flags, const std::string& tag) {
  if (!flags.has("trace-dir")) return;
  const std::string base = flags.str("trace-dir") + "/" + tag;
  Tracer::instance().write_chrome(base + ".trace.json");
  Tracer::instance().write_layer_table(base + ".layers.json");
  dnsctx::obs::write_metrics_file(base + ".metrics.json");
}

std::map<std::string, double> obs_scrape() {
  std::map<std::string, double> out;
  if (!dnsctx::obs::enabled()) return out;
  const auto snap = dnsctx::obs::registry().snapshot();
  for (const auto& c : snap.counters) out[c.name] = static_cast<double>(c.value);
  for (const auto& g : snap.gauges) out[g.name] = g.value;
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error{"cannot read " + path};
  return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out << text;
  if (!out.flush()) throw std::runtime_error{"cannot write " + path};
}

void DigestSink::mix(const std::string& bytes) {
  for (const char c : bytes) {
    digest ^= static_cast<unsigned char>(c);
    digest *= 0x100000001b3ull;
  }
}

void DigestSink::on_conn(const dnsctx::capture::ConnRecord& rec) {
  ++conns;
  if (rec.start.count_us() < last_conn_us_) ++order_violations;
  last_conn_us_ = rec.start.count_us();
  encoded_.assign(1, 'c');
  dnsctx::stream::append_record(encoded_, rec);
  mix(encoded_);
}

void DigestSink::on_dns(const dnsctx::capture::DnsRecord& rec) {
  ++dns;
  if (rec.ts.count_us() < last_dns_us_) ++order_violations;
  last_dns_us_ = rec.ts.count_us();
  encoded_.assign(1, 'd');
  dnsctx::stream::append_record(encoded_, rec);
  mix(encoded_);
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::logic_error{"perfbench: median of no samples"};
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  using Entry = std::pair<std::set<std::string>, std::function<int(const Flags&)>>;
  const std::map<std::string, Entry> commands{
      {"capture", {capture_flags(), run_capture}},
      {"gen-spool", {gen_spool_flags(), run_gen_spool}},
      {"study-batch", {study_flags(), run_study_batch}},
      {"study-online", {study_flags(), run_study_online}},
      {"serve-gen", {serve_gen_flags(), run_serve_gen}},
      {"serve-host", {serve_host_flags(), run_serve_host}},
      {"serve-load", {serve_load_flags(), run_serve_load}},
  };
  if (argc < 2 || commands.count(argv[1]) == 0) {
    std::fprintf(stderr, "usage: perfbench_harness <");
    const char* sep = "";
    for (const auto& [name, entry] : commands) {
      std::fprintf(stderr, "%s%s", sep, name.c_str());
      sep = "|";
    }
    std::fprintf(stderr, "> --key value ...\n");
    return 2;
  }
  // A peer that closes a socket must surface as EPIPE on the write, not
  // kill the process: the serve checks report it as a failed rung.
  std::signal(SIGPIPE, SIG_IGN);
  const auto& [known, run] = commands.at(argv[1]);
  const dnsctx::CliArgs args =
      dnsctx::parse_cli(std::span<const char* const>{argv + 2, static_cast<std::size_t>(argc - 2)});
  try {
    const Flags flags{args, known};
    return run(flags);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "perfbench_harness %s: %s\n", argv[1], e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness %s: error: %s\n", argv[1], e.what());
    return 1;
  }
}
