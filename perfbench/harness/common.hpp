// perfbench — pieces every harness subcommand shares: strict flags, the
// one-line JSON report, process resource readings, the timed sink that
// charges callback time to a layer, and the record digest.
#pragma once

#include <climits>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "capture/records.hpp"
#include "trace.hpp"
#include "util/cli.hpp"

namespace perfbench {

/// Bad command line: main() prints it and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Strict view over dnsctx::CliArgs: every option must be known, every
/// number must parse whole and lie in range, and no bare flags or
/// positionals are accepted.
class Flags {
 public:
  Flags(const dnsctx::CliArgs& args, const std::set<std::string>& known);

  [[nodiscard]] std::string str(const std::string& name) const;
  [[nodiscard]] std::uint64_t num(const std::string& name, std::uint64_t lo,
                                  std::uint64_t hi) const;
  [[nodiscard]] std::uint64_t num_or(const std::string& name, std::uint64_t fallback,
                                     std::uint64_t lo, std::uint64_t hi) const;
  [[nodiscard]] bool has(const std::string& name) const;

 private:
  const dnsctx::CliArgs& args_;
};

/// The harness's one result line: {"ok":true,"metrics":{..},"info":{..}}.
/// Metrics print with every digit (%.17g); info values are strings.
class Report {
 public:
  void metric(const std::string& name, double value) { metrics_[name] = value; }
  void info(const std::string& name, const std::string& value) { info_[name] = value; }
  void print() const;

 private:
  std::map<std::string, double> metrics_;
  std::map<std::string, std::string> info_;
};

/// Peak resident set of this process (VmHWM), KiB.
[[nodiscard]] double peak_rss_kib();
/// User + system CPU seconds of this process so far.
[[nodiscard]] double process_cpu_s();

/// Enables obs metrics and span tracing for this process when the
/// subcommand was given --trace-dir; write_trace() then writes
/// <dir>/<tag>.trace.json, <tag>.layers.json and <tag>.metrics.json.
void start_trace(const Flags& flags, const std::string& tag);
void write_trace(const Flags& flags, const std::string& tag);

/// Every obs counter and gauge by series name (empty unless tracing).
[[nodiscard]] std::map<std::string, double> obs_scrape();

/// Whole-file helpers; both throw std::runtime_error naming the path.
[[nodiscard]] std::string read_file(const std::string& path);
void write_file(const std::string& path, const std::string& text);

/// Forwards every record to `downstream`; counts them, and while tracing
/// charges the time spent in `downstream` to `layer`.
class TimedSink final : public dnsctx::capture::RecordSink {
 public:
  TimedSink(dnsctx::capture::RecordSink& downstream, const char* layer)
      : down_{&downstream}, layer_{layer}, traced_{Tracer::instance().enabled()} {}

  void on_conn(const dnsctx::capture::ConnRecord& rec) override {
    ++conns;
    if (!traced_) return down_->on_conn(rec);
    const auto t0 = now_ns();
    down_->on_conn(rec);
    const auto dt = now_ns() - t0;
    charged_ns += dt;
    Tracer::instance().charge(layer_, dt);
  }
  void on_dns(const dnsctx::capture::DnsRecord& rec) override {
    ++dns;
    if (!traced_) return down_->on_dns(rec);
    const auto t0 = now_ns();
    down_->on_dns(rec);
    const auto dt = now_ns() - t0;
    charged_ns += dt;
    Tracer::instance().charge(layer_, dt);
  }
  void on_encflow(const dnsctx::capture::EncFlowRecord& rec) override {
    down_->on_encflow(rec);
  }

  std::uint64_t conns = 0;
  std::uint64_t dns = 0;
  std::int64_t charged_ns = 0;

 private:
  dnsctx::capture::RecordSink* down_;
  const char* layer_;
  bool traced_;
};

/// FNV-1a over each record's spool encoding, in delivery order, plus a
/// check that each kind arrives in nondecreasing key time.
class DigestSink final : public dnsctx::capture::RecordSink {
 public:
  void on_conn(const dnsctx::capture::ConnRecord& rec) override;
  void on_dns(const dnsctx::capture::DnsRecord& rec) override;

  std::uint64_t digest = 0xcbf29ce484222325ull;
  std::uint64_t conns = 0;
  std::uint64_t dns = 0;
  std::uint64_t order_violations = 0;

 private:
  void mix(const std::string& bytes);
  std::string encoded_;
  std::int64_t last_conn_us_ = INT64_MIN;
  std::int64_t last_dns_us_ = INT64_MIN;
};

[[nodiscard]] std::string json_escape(const std::string& s);
[[nodiscard]] std::string hex64(std::uint64_t v);

/// Median of a non-empty sample (mean of the middle two when even).
[[nodiscard]] double median(std::vector<double> v);

}  // namespace perfbench
