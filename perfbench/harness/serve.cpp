// serve_ingest: one city tenant pushed as v2+lz frames over loopback
// into a serve::Server, by an open loop at each rate of a ladder.
//
//   serve-gen   simulates the tenant, encodes the frames a live tap
//               would send (conn and dns segments merged by first key
//               time), keeps the first --rung-records records' worth and
//               writes them with the offline OnlineStudy result over
//               exactly those records
//   serve-host  the server under test, alone in its process so its peak
//               RSS is its own; stdin EOF stops it
//   serve-load  one ladder rung: one producer connection sending frame i
//               at its due time t0 + records_before_i / rate no matter
//               how the server keeps up, a thread reading the per-frame
//               acks, and a poller issuing GET /results at a fixed rate.
//               Raw timestamps go to a samples file; run.py derives the
//               percentiles.
#include <array>
#include <atomic>
#include <cerrno>
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include "scenario/scenario.hpp"
#include "serve/push.hpp"
#include "serve/server.hpp"
#include "serve/sockets.hpp"
#include "stream/online_study.hpp"
#include "stream/segment_v2.hpp"
#include "stream/spool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace dnsctx;

struct Frame {
  std::uint32_t records = 0;
  std::string blob;
};

struct Segment {
  SimTime first;
  std::uint8_t kind;  ///< 0 = dns, 1 = conn: DNS first at equal times
  std::size_t begin;
  std::size_t end;
};

template <typename Rec, typename Key>
void cut(std::vector<Segment>& out, const std::vector<Rec>& recs, std::uint8_t kind,
         std::size_t per, Key key) {
  for (std::size_t i = 0; i < recs.size(); i += per) {
    out.push_back(Segment{key(recs[i]), kind, i, std::min(i + per, recs.size())});
  }
}

/// The frames a live tap would send, in order, up to the first frame
/// that reaches `budget` records; also returns the records they carry.
std::vector<Frame> encode_frames(const capture::Dataset& ds, std::size_t per,
                                 std::uint64_t budget, capture::Dataset* carried) {
  std::vector<Segment> segs;
  cut(segs, ds.conns, 1, per, [](const capture::ConnRecord& r) { return r.start; });
  cut(segs, ds.dns, 0, per, [](const capture::DnsRecord& r) { return r.ts; });
  std::stable_sort(segs.begin(), segs.end(), [](const Segment& a, const Segment& b) {
    return a.first != b.first ? a.first < b.first : a.kind < b.kind;
  });
  std::vector<Frame> frames;
  std::uint64_t total = 0;
  for (const Segment& s : segs) {
    if (total >= budget) break;
    const auto b = static_cast<std::ptrdiff_t>(s.begin);
    const auto e = static_cast<std::ptrdiff_t>(s.end);
    Frame f;
    f.records = static_cast<std::uint32_t>(s.end - s.begin);
    if (s.kind == 1) {
      const std::vector<capture::ConnRecord> slice{ds.conns.begin() + b, ds.conns.begin() + e};
      f.blob = stream::build_segment_v2(slice, stream::SegmentCodec::kLz);
      if (carried) carried->conns.insert(carried->conns.end(), slice.begin(), slice.end());
    } else {
      const std::vector<capture::DnsRecord> slice{ds.dns.begin() + b, ds.dns.begin() + e};
      f.blob = stream::build_segment_v2(slice, stream::SegmentCodec::kLz);
      if (carried) carried->dns.insert(carried->dns.end(), slice.begin(), slice.end());
    }
    total += f.records;
    frames.push_back(std::move(f));
  }
  return frames;
}

void put_u32(std::ostream& out, std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.write(b, 4);
}

std::uint32_t get_u32(std::istream& in) {
  unsigned char b[4];
  in.read(reinterpret_cast<char*>(b), 4);
  return static_cast<std::uint32_t>(b[0]) | static_cast<std::uint32_t>(b[1]) << 8 |
         static_cast<std::uint32_t>(b[2]) << 16 | static_cast<std::uint32_t>(b[3]) << 24;
}

/// Frames file: per frame u32 record count, u32 blob length, blob.
void write_frames(const std::string& path, const std::vector<Frame>& frames) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  for (const Frame& f : frames) {
    put_u32(out, f.records);
    put_u32(out, static_cast<std::uint32_t>(f.blob.size()));
    out.write(f.blob.data(), static_cast<std::streamsize>(f.blob.size()));
  }
  if (!out.flush()) throw std::runtime_error{"cannot write " + path};
}

std::vector<Frame> read_frames(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error{"cannot read " + path};
  std::vector<Frame> frames;
  while (in.peek() != std::char_traits<char>::eof()) {
    Frame f;
    f.records = get_u32(in);
    const std::uint32_t len = get_u32(in);
    if (!in || len > (64u << 20)) throw std::runtime_error{"corrupt frames file " + path};
    f.blob.resize(len);
    in.read(f.blob.data(), len);
    if (!in) throw std::runtime_error{"truncated frames file " + path};
    frames.push_back(std::move(f));
  }
  if (frames.empty()) throw std::runtime_error{"no frames in " + path};
  return frames;
}

void sleep_until_ns(std::int64_t due_ns) {
  // Both clocks are CLOCK_MONOTONIC on Linux; steady_clock reads it.
  timespec ts{static_cast<time_t>(due_ns / 1'000'000'000),
              static_cast<long>(due_ns % 1'000'000'000)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

/// CPU ns a thread of another process has used (schedstat's first field).
std::int64_t thread_cpu_ns(long pid, long tid) {
  std::ifstream in{"/proc/" + std::to_string(pid) + "/task/" + std::to_string(tid) +
                   "/schedstat"};
  std::int64_t ns = 0;
  if (!(in >> ns)) throw std::runtime_error{"cannot read the server loop's schedstat"};
  return ns;
}

struct HttpResult {
  int status = 0;
  std::string body;
};

/// One GET over a fresh loopback connection, with a deadline.
HttpResult http_get(std::uint16_t port, const std::string& target) {
  HttpResult res;
  const int fd = serve::connect_tcp("127.0.0.1", port);
  const std::string req = "GET " + target + " HTTP/1.1\r\nHost: perfbench\r\n\r\n";
  std::size_t off = 0;
  std::string resp;
  char buf[65536];
  bool done = false;
  while (!done) {
    pollfd pfd{fd, static_cast<short>(off < req.size() ? POLLOUT : POLLIN), 0};
    if (::poll(&pfd, 1, 10'000) <= 0) break;
    if (off < req.size()) {
      const auto n = ::write(fd, req.data() + off, req.size() - off);
      if (n > 0) off += static_cast<std::size_t>(n);
      else if (errno != EAGAIN && errno != EINTR) break;
      continue;
    }
    const auto n = ::read(fd, buf, sizeof buf);
    if (n > 0) {
      resp.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || (errno != EAGAIN && errno != EINTR)) {
      done = true;
    }
  }
  ::close(fd);
  const auto split = resp.find("\r\n\r\n");
  if (split == std::string::npos || resp.rfind("HTTP/1.1 ", 0) != 0) return res;
  res.status = std::atoi(resp.c_str() + 9);
  res.body = resp.substr(split + 4);
  return res;
}

}  // namespace

std::set<std::string> serve_gen_flags() {
  return {"houses",    "minutes", "shards",       "threads",   "seed",  "frame-records",
          "rung-records", "frames", "reference", "setups"};
}

int run_serve_gen(const Flags& flags) {
  scenario::ScenarioConfig cfg;
  cfg.houses = flags.num("houses", 1, 1'000'000);
  cfg.duration = SimDuration::min(static_cast<std::int64_t>(flags.num("minutes", 1, 24 * 60)));
  cfg.shards = flags.num("shards", 1, 1024);
  cfg.threads = static_cast<unsigned>(flags.num("threads", 1, 256));
  cfg.seed = flags.num("seed", 0, UINT64_MAX);
  const auto per = flags.num("frame-records", 1, 1u << 20);
  const auto budget = flags.num("rung-records", 1, UINT64_MAX);
  const auto setups = flags.num("setups", 1, 16);

  // Set-up as a user pays it: simulate the tenant and encode its frames.
  std::vector<double> setup_s;
  std::vector<Frame> frames;
  capture::Dataset carried;
  for (std::uint64_t i = 0; i < setups; ++i) {
    const auto t0 = now_ns();
    scenario::Town town{cfg};
    town.run();
    carried = {};
    frames = encode_frames(town.dataset(), per, budget, &carried);
    setup_s.push_back(seconds_since(t0));
  }
  std::uint64_t records = 0, wire_bytes = 0;
  for (const Frame& f : frames) {
    records += f.records;
    wire_bytes += 4 + f.blob.size();
  }
  if (records < budget) {
    throw std::runtime_error{"tenant has " + std::to_string(records) + " records, fewer than " +
                             std::to_string(budget)};
  }
  stream::OnlineStudy offline;
  (void)stream::replay_dataset(carried, offline);
  write_frames(flags.str("frames"), frames);
  write_file(flags.str("reference"), serve::result_json(offline.finalize()) + "\n");

  Report r;
  r.metric("setup_s", median(setup_s));
  r.metric("frames", static_cast<double>(frames.size()));
  r.metric("records", static_cast<double>(records));
  r.metric("wire_bytes", static_cast<double>(wire_bytes));
  r.print();
  return 0;
}

std::set<std::string> serve_host_flags() { return {"trace-dir"}; }

int run_serve_host(const Flags& flags) {
  start_trace(flags, "serve_host");
  const auto t0 = now_ns();
  serve::EventLoop loop;
  serve::Server server{loop, serve::ServeConfig{}};
  server.start();
  std::atomic<long> loop_tid{0};
  std::thread loop_thread{[&] {
    loop_tid.store(static_cast<long>(::syscall(SYS_gettid)));
    loop.run();
  }};
  while (loop_tid.load() == 0) std::this_thread::yield();
  std::printf("{\"ingest_port\":%u,\"http_port\":%u,\"pid\":%ld,\"loop_tid\":%ld,"
              "\"start_s\":%.9f}\n",
              server.ingest_port(), server.http_port(), static_cast<long>(::getpid()),
              loop_tid.load(), seconds_since(t0));
  std::fflush(stdout);

  std::string line;
  while (std::getline(std::cin, line) && line != "quit") {
  }
  loop.stop();
  loop_thread.join();
  server.finish();

  std::size_t queue_peak = 0;
  server.tenants().for_each(
      [&](const serve::Tenant& t) { queue_peak = std::max(queue_peak, t.queue_peak()); });
  const auto& st = server.stats();
  Report r;
  r.metric("frames", static_cast<double>(st.frames));
  r.metric("records_ingested", static_cast<double>(st.records_ingested));
  r.metric("connections_errored", static_cast<double>(st.connections_errored));
  r.metric("http_requests", static_cast<double>(st.http_requests));
  r.metric("tenant_queue_peak", static_cast<double>(queue_peak));
  r.metric("peak_rss_kib", peak_rss_kib());
  for (const auto& [name, value] : obs_scrape()) r.metric("obs." + name, value);
  write_trace(flags, "serve_host");
  r.print();
  return 0;
}

std::set<std::string> serve_load_flags() {
  return {"ingest-port", "http-port", "server-pid", "loop-tid", "frames", "reference",
          "rate",        "poll-hz",   "samples",    "trace-dir"};
}

int run_serve_load(const Flags& flags) {
  const auto ingest_port = static_cast<std::uint16_t>(flags.num("ingest-port", 1, 65535));
  const auto http_port = static_cast<std::uint16_t>(flags.num("http-port", 1, 65535));
  const auto pid = static_cast<long>(flags.num("server-pid", 1, 1u << 30));
  const auto tid = static_cast<long>(flags.num("loop-tid", 1, 1u << 30));
  const auto rate = flags.num("rate", 1, 1'000'000'000);
  const auto poll_hz = flags.num("poll-hz", 1, 1000);
  const std::vector<Frame> frames = read_frames(flags.str("frames"));
  const std::string reference = read_file(flags.str("reference"));
  start_trace(flags, "serve_load");
  std::uint64_t total_records = 0;
  for (const Frame& f : frames) total_records += f.records;

  const std::string tenant = "rung-" + std::to_string(rate);
  const std::size_t n = frames.size();
  std::vector<std::int64_t> due(n), send_start(n, -1), send_end(n, -1), ack(n, -1);
  std::uint64_t released = 0;
  std::string error, ack_error;  // ack_error belongs to the acker thread

  std::unique_ptr<serve::PushClient> client;
  try {
    client = std::make_unique<serve::PushClient>("127.0.0.1", ingest_port,
                                                 serve::Handshake{tenant, true});
  } catch (const std::exception& e) {
    error = std::string{"refused: "} + e.what();
  }
  const std::int64_t t0 = now_ns() + 5'000'000;
  std::uint64_t before = 0;
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = t0 + static_cast<std::int64_t>(static_cast<double>(before) * 1e9 /
                                            static_cast<double>(rate));
    before += frames[i].records;
  }
  const std::int64_t cpu0 = thread_cpu_ns(pid, tid);

  std::atomic<bool> sending{true};
  std::vector<std::array<std::int64_t, 3>> polls;  // due, end, body bytes (-1 = failed)
  std::int64_t t_end = 0;
  {
    ScopedSpan rung_span{"serve.rung"};
    std::thread poller{[&] {
      const auto period = static_cast<std::int64_t>(1e9 / static_cast<double>(poll_hz));
      for (std::int64_t d = t0 + period / 2; sending.load(); d += period) {
        sleep_until_ns(d);
        if (!sending.load()) break;
        std::int64_t bytes = -1;
        try {
          const HttpResult res = http_get(http_port, "/results/" + tenant);
          if (res.status == 200) bytes = static_cast<std::int64_t>(res.body.size());
        } catch (const std::exception&) {
          // A refused connection is a failed poll, recorded as such.
        }
        polls.push_back({d, now_ns(), bytes});
      }
    }};
    if (client) {
      std::thread acker{[&] {
        try {
          for (std::size_t i = 0; i < n; ++i) {
            (void)client->read_ack(30'000);
            ack[i] = now_ns();
          }
          released = client->read_ack(30'000);  // the FLUSH frame's ack
        } catch (const std::exception& e) {
          ack_error = e.what();
        }
      }};
      try {
        ScopedSpan span{"serve.push"};
        for (std::size_t i = 0; i < n; ++i) {
          sleep_until_ns(due[i]);
          send_start[i] = now_ns();
          client->send_segment(frames[i].blob);
          send_end[i] = now_ns();
        }
        client->flush();
      } catch (const std::exception& e) {
        error = std::string{"send: "} + e.what();
        ::shutdown(client->fd(), SHUT_RDWR);
      }
      ScopedSpan span{"serve.await_acks"};
      acker.join();
      if (error.empty() && !ack_error.empty()) error = "ack: " + ack_error;
    }
    t_end = now_ns();
    sending.store(false);
    poller.join();
  }
  const std::int64_t cpu1 = thread_cpu_ns(pid, tid);
  client.reset();

  const HttpResult final_res = http_get(http_port, "/results/" + tenant);
  const bool match = final_res.status == 200 && final_res.body == reference;

  std::ofstream samples{flags.str("samples"), std::ios::trunc};
  samples << "{\"rate\":" << rate << ",\"t0\":" << t0 << ",\"t_end\":" << t_end
          << ",\"loop_cpu_ns\":" << (cpu1 - cpu0) << ",\"pushed\":" << total_records
          << ",\"released\":" << released << ",\"results_match\":" << (match ? "true" : "false")
          << ",\"results_bytes\":" << final_res.body.size() << ",\"error\":\""
          << json_escape(error) << "\",\n\"frames\":[";
  for (std::size_t i = 0; i < n; ++i) {
    samples << (i == 0 ? "" : ",") << "[" << frames[i].records << "," << due[i] << ","
            << send_start[i] << "," << send_end[i] << "," << ack[i] << "]";
  }
  samples << "],\n\"polls\":[";
  for (std::size_t i = 0; i < polls.size(); ++i) {
    samples << (i == 0 ? "" : ",") << "[" << polls[i][0] << "," << polls[i][1] << ","
            << polls[i][2] << "]";
  }
  samples << "]}\n";
  if (!samples.flush()) throw std::runtime_error{"cannot write " + flags.str("samples")};

  Report r;
  for (const auto& [layer, t] : Tracer::instance().layer_table()) {
    r.metric("self_s." + layer, t.self_s);
    r.metric("total_s." + layer, t.total_s);
  }
  write_trace(flags, "serve_load");
  r.print();
  return 0;
}

}  // namespace perfbench
