// city_capture: the `simulate --binary-logs` record path as a batch job.
// A city-sized Town streams records through a LiveFeed into a v2+lz
// SpoolWriter; the spool is then replayed to check it.
#include <filesystem>
#include <memory>

#include "scenario/scenario.hpp"
#include "stream/feed.hpp"
#include "stream/spool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace dnsctx;

/// Simulated time per run_for chunk, as `dnsctx simulate --binary-logs`.
constexpr SimDuration kChunk = SimDuration::min(5);

}  // namespace

std::set<std::string> capture_flags() {
  return {"houses", "minutes", "shards", "threads", "seed", "spool", "setups", "trace-dir"};
}

int run_capture(const Flags& flags) {
  scenario::ScenarioConfig cfg;
  cfg.houses = flags.num("houses", 1, 1'000'000);
  cfg.duration = SimDuration::min(static_cast<std::int64_t>(flags.num("minutes", 1, 24 * 60)));
  cfg.shards = flags.num("shards", 1, 1024);
  cfg.threads = static_cast<unsigned>(flags.num("threads", 1, 256));
  cfg.seed = flags.num("seed", 0, UINT64_MAX);
  const std::string dir = flags.str("spool");
  const auto setups = flags.num("setups", 1, 16);
  start_trace(flags, "city_capture");

  // Set-up: build the town `setups` times and keep the last one.
  std::vector<double> setup_s;
  std::unique_ptr<scenario::Town> town;
  for (std::uint64_t i = 0; i < setups; ++i) {
    town.reset();
    const auto t0 = now_ns();
    ScopedSpan span{"scenario.build"};
    town = std::make_unique<scenario::Town>(cfg);
    setup_s.push_back(seconds_since(t0));
  }
  fs::remove_all(dir);
  fs::create_directories(dir);

  stream::SpoolWriter writer{dir};
  TimedSink write_timer{writer, "stream.spool_write"};
  stream::LiveFeed feed{write_timer};
  TimedSink sink_timer{feed, "capture.sink"};
  town->attach_record_sink(&sink_timer);

  double run_for_wall_s = 0.0;
  double run_for_cpu_s = 0.0;
  const auto t0 = now_ns();
  {
    ScopedSpan root{"city_capture"};
    for (SimDuration done; done < cfg.duration; done += kChunk) {
      const double cpu0 = process_cpu_s();
      const auto c0 = now_ns();
      {
        ScopedSpan span{"scenario.run_for"};
        town->run_for(std::min(kChunk, cfg.duration - done));
      }
      run_for_wall_s += seconds_since(c0);
      run_for_cpu_s += process_cpu_s() - cpu0;
      SimTime watermark;
      {
        ScopedSpan span{"scenario.record_watermark"};
        watermark = town->record_watermark();
      }
      ScopedSpan span{"stream.feed_drain"};
      feed.drain(watermark);
    }
    {
      ScopedSpan span{"scenario.harvest"};
      (void)town->harvest();  // flushes still-open flows and lookups to the feed
    }
    {
      ScopedSpan span{"stream.feed_drain"};
      feed.close();
    }
    ScopedSpan span{"stream.spool_write"};
    writer.flush();
  }
  const double wall_s = seconds_since(t0);
  const double rss_kib = peak_rss_kib();
  town->publish_metrics();
  const auto scrape = obs_scrape();
  const std::size_t peak_buffered = feed.peak_buffered();
  const std::uint64_t buffered_left = feed.buffered();
  town.reset();

  // Checks: the spool replays to exactly what the writer counted, each
  // kind in nondecreasing time, and everything the monitors emitted
  // reached the writer.
  DigestSink digest;
  const auto listing = stream::list_spool(dir);
  const auto counts = stream::replay_spool(listing, digest);
  const std::uint64_t records = writer.conns_written() + writer.dns_written();
  if (records == 0) throw std::runtime_error{"capture produced no records"};
  if (counts.conns != writer.conns_written() || counts.dns != writer.dns_written() ||
      digest.conns != counts.conns || digest.dns != counts.dns) {
    throw std::runtime_error{"spool replay counts differ from the writer's"};
  }
  if (sink_timer.conns != writer.conns_written() || sink_timer.dns != writer.dns_written() ||
      buffered_left != 0) {
    throw std::runtime_error{"records emitted by the monitors did not all reach the spool"};
  }
  if (digest.order_violations != 0) throw std::runtime_error{"spool out of time order"};

  Report r;
  r.metric("setup_s", median(setup_s));
  r.metric("records", static_cast<double>(records));
  r.metric("records_per_s", static_cast<double>(records) / wall_s);
  r.metric("peak_rss_kib", rss_kib);
  r.metric("conns", static_cast<double>(writer.conns_written()));
  r.metric("dns", static_cast<double>(writer.dns_written()));
  r.metric("spool_segments", static_cast<double>(writer.segments_written()));
  r.metric("spool_bytes", static_cast<double>(stream::spool_bytes(listing)));
  r.metric("feed_peak_buffered_records", static_cast<double>(peak_buffered));
  r.metric("run_for_s", run_for_wall_s);
  r.metric("parallelism", run_for_wall_s > 0.0 ? run_for_cpu_s / run_for_wall_s : 0.0);
  for (const auto& [layer, t] : Tracer::instance().layer_table()) {
    r.metric("self_s." + layer, t.self_s);
    r.metric("total_s." + layer, t.total_s);
  }
  for (const auto& [name, value] : scrape) r.metric("obs." + name, value);
  r.info("digest", hex64(digest.digest));
  write_trace(flags, "city_capture");
  r.print();
  return 0;
}

}  // namespace perfbench
