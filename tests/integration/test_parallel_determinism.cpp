// The parallel execution layer's core promise: for a fixed scenario
// (including its shard count), the captured dataset and every derived
// analysis result are identical for ANY thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>

#include "analysis/study.hpp"
#include "capture/logio.hpp"
#include "scenario/scenario.hpp"
#include "stream/feed.hpp"
#include "stream/spool.hpp"

namespace dnsctx {
namespace {

[[nodiscard]] scenario::ScenarioConfig small_sharded_config(unsigned threads) {
  scenario::ScenarioConfig cfg;
  cfg.houses = 16;
  cfg.duration = SimDuration::hours(2);
  cfg.seed = 2020;
  cfg.shards = 4;
  cfg.threads = threads;
  return cfg;
}

/// Serialize a dataset to one string — byte equality of these strings is
/// the determinism criterion.
[[nodiscard]] std::string serialize(const capture::Dataset& ds) {
  std::stringstream ss;
  capture::write_conn_log(ss, ds.conns);
  capture::write_dns_log(ss, ds.dns);
  return ss.str();
}

void expect_same_cdf(const Cdf& a, const Cdf& b) {
  ASSERT_EQ(a.count(), b.count());
  if (a.empty()) return;
  EXPECT_EQ(a.median(), b.median());
  EXPECT_EQ(a.quantile(0.9), b.quantile(0.9));
}

void expect_same_study(const analysis::Study& a, const analysis::Study& b) {
  EXPECT_EQ(a.pairing.paired, b.pairing.paired);
  EXPECT_EQ(a.pairing.unpaired, b.pairing.unpaired);
  EXPECT_EQ(a.pairing.paired_expired, b.pairing.paired_expired);
  EXPECT_EQ(a.pairing.unique_candidate, b.pairing.unique_candidate);
  EXPECT_EQ(a.pairing.multiple_candidates, b.pairing.multiple_candidates);
  ASSERT_EQ(a.pairing.conns.size(), b.pairing.conns.size());
  for (std::size_t i = 0; i < a.pairing.conns.size(); ++i) {
    EXPECT_EQ(a.pairing.conns[i].dns_idx, b.pairing.conns[i].dns_idx);
  }

  EXPECT_EQ(a.classified.counts.n, b.classified.counts.n);
  EXPECT_EQ(a.classified.counts.lc, b.classified.counts.lc);
  EXPECT_EQ(a.classified.counts.p, b.classified.counts.p);
  EXPECT_EQ(a.classified.counts.sc, b.classified.counts.sc);
  EXPECT_EQ(a.classified.counts.r, b.classified.counts.r);
  EXPECT_EQ(a.classified.lc_expired, b.classified.lc_expired);
  EXPECT_EQ(a.classified.p_expired, b.classified.p_expired);
  EXPECT_EQ(a.classified.classes, b.classified.classes);
  expect_same_cdf(a.classified.lc_gap_sec, b.classified.lc_gap_sec);
  expect_same_cdf(a.classified.p_gap_sec, b.classified.p_gap_sec);

  EXPECT_EQ(a.blocking.knee_ms, b.blocking.knee_ms);
  expect_same_cdf(a.blocking.gap_ms, b.blocking.gap_ms);
  EXPECT_EQ(a.blocking.first_use_frac_below, b.blocking.first_use_frac_below);
  EXPECT_EQ(a.blocking.first_use_frac_above, b.blocking.first_use_frac_above);

  EXPECT_EQ(a.performance.insignificant_both, b.performance.insignificant_both);
  EXPECT_EQ(a.performance.significant_both, b.performance.significant_both);
  EXPECT_EQ(a.performance.significant_overall, b.performance.significant_overall);
  expect_same_cdf(a.performance.lookup_ms_all, b.performance.lookup_ms_all);
  expect_same_cdf(a.performance.contrib_all, b.performance.contrib_all);

  EXPECT_EQ(a.isp_only_houses, b.isp_only_houses);
  ASSERT_EQ(a.table1.size(), b.table1.size());
  for (std::size_t i = 0; i < a.table1.size(); ++i) {
    EXPECT_EQ(a.table1[i].platform, b.table1[i].platform);
    EXPECT_EQ(a.table1[i].lookups, b.table1[i].lookups);
    EXPECT_EQ(a.table1[i].pct_houses, b.table1[i].pct_houses);
    EXPECT_EQ(a.table1[i].pct_conns, b.table1[i].pct_conns);
    EXPECT_EQ(a.table1[i].pct_bytes, b.table1[i].pct_bytes);
  }

  ASSERT_EQ(a.platforms.size(), b.platforms.size());
  for (std::size_t i = 0; i < a.platforms.size(); ++i) {
    EXPECT_EQ(a.platforms[i].platform, b.platforms[i].platform);
    EXPECT_EQ(a.platforms[i].sc, b.platforms[i].sc);
    EXPECT_EQ(a.platforms[i].r, b.platforms[i].r);
    EXPECT_EQ(a.platforms[i].total_conns, b.platforms[i].total_conns);
    EXPECT_EQ(a.platforms[i].conncheck_conns, b.platforms[i].conncheck_conns);
    expect_same_cdf(a.platforms[i].r_lookup_ms, b.platforms[i].r_lookup_ms);
    expect_same_cdf(a.platforms[i].throughput_bps, b.platforms[i].throughput_bps);
  }
}

TEST(ParallelDeterminism, DatasetIsByteIdenticalForAnyThreadCount) {
  scenario::Town baseline{small_sharded_config(1)};
  baseline.run();
  const std::string expected = serialize(baseline.dataset());
  EXPECT_FALSE(baseline.dataset().conns.empty());
  EXPECT_FALSE(baseline.dataset().dns.empty());

  for (const unsigned threads : {2u, 4u, 8u}) {
    scenario::Town town{small_sharded_config(threads)};
    town.run();
    EXPECT_EQ(serialize(town.dataset()), expected) << "threads = " << threads;
    EXPECT_EQ(town.ground_truth().fetches, baseline.ground_truth().fetches);
    EXPECT_EQ(town.ground_truth().fetch_blocked, baseline.ground_truth().fetch_blocked);
    EXPECT_EQ(town.ground_truth().no_dns_conns, baseline.ground_truth().no_dns_conns);
  }
}

TEST(ParallelDeterminism, StudyIsIdenticalForAnyThreadCount) {
  scenario::Town town{small_sharded_config(4)};
  town.run();

  analysis::StudyConfig cfg1;
  cfg1.threads = 1;
  const analysis::Study base = analysis::run_study(town.dataset(), cfg1);

  for (const unsigned threads : {2u, 8u}) {
    analysis::StudyConfig cfgN;
    cfgN.threads = threads;
    const analysis::Study parallel = analysis::run_study(town.dataset(), cfgN);
    expect_same_study(base, parallel);
  }
}

TEST(ParallelDeterminism, RandomPairingPolicyIsThreadIndependent) {
  scenario::Town town{small_sharded_config(2)};
  town.run();
  const auto a = analysis::pair_connections(town.dataset(), analysis::PairingPolicy::kRandom,
                                            7, 1);
  const auto b = analysis::pair_connections(town.dataset(), analysis::PairingPolicy::kRandom,
                                            7, 8);
  ASSERT_EQ(a.conns.size(), b.conns.size());
  for (std::size_t i = 0; i < a.conns.size(); ++i) {
    EXPECT_EQ(a.conns[i].dns_idx, b.conns[i].dns_idx);
  }
  EXPECT_EQ(a.paired, b.paired);
}

TEST(ParallelDeterminism, DiskRoundTripMatchesInMemoryStudy) {
  scenario::Town town{small_sharded_config(4)};
  town.run();

  const std::string conn_path = "/tmp/dnsctx_det_conn.log";
  const std::string dns_path = "/tmp/dnsctx_det_dns.log";
  capture::save_dataset(town.dataset(), conn_path, dns_path);
  const capture::Dataset loaded = capture::load_dataset(conn_path, dns_path);
  EXPECT_EQ(serialize(loaded), serialize(town.dataset()));

  analysis::StudyConfig cfg;
  cfg.threads = 4;
  const analysis::Study mem = analysis::run_study(town.dataset(), cfg);
  const analysis::Study disk = analysis::run_study(loaded, cfg);
  expect_same_study(mem, disk);
  std::remove(conn_path.c_str());
  std::remove(dns_path.c_str());
}

TEST(ParallelDeterminism, SingleShardMatchesLegacySeedStream) {
  // shards = 1 must reproduce the pre-sharding byte stream for the same
  // seed: the shard-0 seed labels are the legacy ones.
  scenario::ScenarioConfig cfg;
  cfg.houses = 6;
  cfg.duration = SimDuration::hours(1);
  cfg.seed = 99;
  cfg.shards = 1;

  scenario::Town a{cfg};
  a.run();
  cfg.threads = 8;  // threads are irrelevant with one shard, but must not crash
  scenario::Town b{cfg};
  b.run();
  EXPECT_EQ(serialize(a.dataset()), serialize(b.dataset()));
}

/// A one-hour, 16-house capture with the given partitioning.
[[nodiscard]] scenario::ScenarioConfig sink_config(std::size_t shards, unsigned threads) {
  scenario::ScenarioConfig cfg;
  cfg.houses = 16;
  cfg.duration = SimDuration::hours(1);
  cfg.seed = 2020;
  cfg.shards = shards;
  cfg.threads = threads;
  return cfg;
}

// ---- batch mode: the dataset collected from the shard buffers ----

/// Every log of a dataset, encflow.log included.
[[nodiscard]] std::string serialize_with_encflows(const capture::Dataset& ds) {
  std::stringstream ss;
  capture::write_conn_log(ss, ds.conns);
  capture::write_dns_log(ss, ds.dns);
  capture::write_encflow_log(ss, ds.encflows);
  return ss.str();
}

/// Capture `cfg` with no sink attached: in `chunk`-sized run_for() calls
/// followed by run(), as `simulate --progress` does, or (`chunk` zero)
/// with one run().
[[nodiscard]] capture::Dataset batch_capture(const scenario::ScenarioConfig& cfg,
                                             SimDuration chunk) {
  scenario::Town town{cfg};
  if (chunk > SimDuration::zero()) {
    for (SimDuration done; done < cfg.duration; done += chunk) {
      town.run_for(std::min(chunk, cfg.duration - done));
    }
  }
  town.run();
  return town.dataset();
}

void expect_chunked_batch_matches_one_run(netsim::Transport transport) {
  for (const std::size_t shards : {1u, 4u}) {
    for (const unsigned threads : {1u, 4u}) {
      scenario::ScenarioConfig cfg = sink_config(shards, threads);
      cfg.transport = transport;
      const capture::Dataset whole = batch_capture(cfg, SimDuration::zero());
      ASSERT_FALSE(whole.conns.empty());
      ASSERT_FALSE(whole.dns.empty());
      ASSERT_EQ(whole.encflows.empty(), transport == netsim::Transport::kDo53);
      EXPECT_EQ(serialize_with_encflows(batch_capture(cfg, SimDuration::min(7))),
                serialize_with_encflows(whole))
          << "shards = " << shards << ", threads = " << threads;
    }
  }
}

TEST(ParallelDeterminism, ChunkedBatchRunMatchesOneRun) {
  expect_chunked_batch_matches_one_run(netsim::Transport::kDo53);
}

TEST(ParallelDeterminism, ChunkedBatchRunMatchesOneRunWithEncFlows) {
  expect_chunked_batch_matches_one_run(netsim::Transport::kDoT);
}

// ---- sink mode: records streamed through Town::attach_record_sink ----

/// Records every record-sink call in order — which kind, and each kind's
/// records — plus the key time and house address of each, and forwards
/// it downstream.
struct CallLog final : capture::RecordSink {
  explicit CallLog(capture::RecordSink& downstream) : next{&downstream} {}

  void on_conn(const capture::ConnRecord& rec) override {
    order += 'c';
    ds.conns.push_back(rec);
    keys.push_back(rec.start);
    houses.push_back(rec.orig_ip);
    next->on_conn(rec);
  }
  void on_dns(const capture::DnsRecord& rec) override {
    order += 'd';
    ds.dns.push_back(rec);
    keys.push_back(rec.ts);
    houses.push_back(rec.client_ip);
    next->on_dns(rec);
  }
  void on_encflow(const capture::EncFlowRecord& rec) override {
    order += 'e';
    ds.encflows.push_back(rec);
    keys.push_back(rec.start);
    houses.push_back(rec.client_ip);
    next->on_encflow(rec);
  }

  /// The whole call sequence: the kind order fixes how the per-kind
  /// sequences interleave.
  [[nodiscard]] std::string serialize() const {
    std::ostringstream ss;
    ss << order << '\n';
    capture::write_conn_log(ss, ds.conns);
    capture::write_dns_log(ss, ds.dns);
    capture::write_encflow_log(ss, ds.encflows);
    return ss.str();
  }

  capture::RecordSink* next;
  std::string order;
  capture::Dataset ds;
  std::vector<SimTime> keys;
  std::vector<Ipv4Addr> houses;
};

struct NullSink final : capture::RecordSink {
  void on_conn(const capture::ConnRecord&) override {}
  void on_dns(const capture::DnsRecord&) override {}
};

struct SinkRun {
  std::string calls;  ///< CallLog::serialize()
  std::string spool;  ///< every segment file's name and bytes, in listing order
  std::size_t conns = 0;
  std::size_t dns = 0;
  std::size_t encflows = 0;
};

/// Capture `cfg` the way `simulate --binary-logs` does — chunked
/// run_for() with a LiveFeed drained to record_watermark(), then
/// harvest() — into a v2 spool, logging every sink call on the way.
[[nodiscard]] SinkRun run_with_sink(const scenario::ScenarioConfig& cfg) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("dnsctx_sink_mode_" + std::to_string(::getpid()) + "_" +
                        std::to_string(cfg.shards) + "_" + std::to_string(cfg.threads));
  fs::remove_all(dir);
  fs::create_directories(dir);
  SinkRun out;
  {
    stream::SpoolWriter writer{dir.string()};
    stream::LiveFeed feed{writer};
    CallLog log{feed};
    scenario::Town town{cfg};
    town.attach_record_sink(&log);
    const SimDuration chunk = SimDuration::min(10);
    for (SimDuration done; done < cfg.duration; done += chunk) {
      town.run_for(std::min(chunk, cfg.duration - done));
      feed.drain(town.record_watermark());
    }
    const capture::Dataset leftover = town.harvest();
    EXPECT_TRUE(leftover.conns.empty() && leftover.dns.empty() && leftover.encflows.empty());
    feed.close();
    writer.flush();
    out.calls = log.serialize();
    out.conns = log.ds.conns.size();
    out.dns = log.ds.dns.size();
    out.encflows = log.ds.encflows.size();
  }
  const auto listing = stream::list_spool(dir.string());
  for (const auto* paths : {&listing.conn_segments, &listing.dns_segments,
                            &listing.enc_segments}) {
    for (const auto& path : *paths) {
      std::ifstream in{path, std::ios::binary};
      std::ostringstream bytes;
      bytes << in.rdbuf();
      out.spool += fs::path{path}.filename().string() + '\n' + bytes.str();
    }
  }
  fs::remove_all(dir);
  return out;
}

TEST(ParallelDeterminism, SinkModeCallsAndSpoolAreIdenticalForAnyThreadCount) {
  for (const std::size_t shards : {1u, 4u, 8u}) {
    const SinkRun base = run_with_sink(sink_config(shards, 1));
    ASSERT_GT(base.conns, 0u) << "shards = " << shards;
    ASSERT_GT(base.dns, 0u) << "shards = " << shards;
    for (const unsigned threads : {2u, 4u}) {
      const SinkRun run = run_with_sink(sink_config(shards, threads));
      EXPECT_EQ(run.calls, base.calls) << "shards = " << shards << ", threads = " << threads;
      EXPECT_EQ(run.spool, base.spool) << "shards = " << shards << ", threads = " << threads;
    }
  }
}

TEST(ParallelDeterminism, SinkModeEncFlowsAreIdenticalForAnyThreadCount) {
  auto cfg = sink_config(4, 1);
  cfg.transport = netsim::Transport::kDoT;
  const SinkRun base = run_with_sink(cfg);
  ASSERT_GT(base.encflows, 0u);
  for (const unsigned threads : {2u, 4u}) {
    cfg.threads = threads;
    const SinkRun run = run_with_sink(cfg);
    EXPECT_EQ(run.calls, base.calls) << "threads = " << threads;
    EXPECT_EQ(run.spool, base.spool) << "threads = " << threads;
  }
}

/// A chunked sink-mode capture with what was known after each chunk.
struct ChunkedCapture {
  CallLog log;
  std::vector<std::size_t> calls_before;  ///< sink calls made when chunk k returned
  std::vector<SimTime> watermarks;        ///< record_watermark() after chunk k
  std::vector<std::size_t> shard_of;      ///< shard of each sink call's house
};

[[nodiscard]] ChunkedCapture capture_chunks(const scenario::ScenarioConfig& cfg) {
  static NullSink null;
  ChunkedCapture out{CallLog{null}, {}, {}, {}};
  scenario::Town town{cfg};
  town.attach_record_sink(&out.log);
  const SimDuration chunk = SimDuration::min(10);
  for (SimDuration done; done < cfg.duration; done += chunk) {
    town.run_for(std::min(chunk, cfg.duration - done));
    out.calls_before.push_back(out.log.keys.size());
    out.watermarks.push_back(town.record_watermark());
  }
  (void)town.harvest();
  // Shards own contiguous house ranges: shard s has houses
  // [s * houses / shards, (s + 1) * houses / shards).
  const auto& houses = town.houses();
  for (const Ipv4Addr addr : out.log.houses) {
    const auto it = std::find_if(houses.begin(), houses.end(),
                                 [&](const auto& h) { return h.external_ip == addr; });
    EXPECT_NE(it, houses.end()) << addr.to_string() << " is no house";
    const auto house = static_cast<std::size_t>(it - houses.begin());
    std::size_t shard = 0;
    while ((shard + 1) * houses.size() / town.shard_count() <= house) ++shard;
    out.shard_of.push_back(shard);
  }
  return out;
}

TEST(ParallelDeterminism, SinkModeWatermarkBoundsLaterRecords) {
  const ChunkedCapture cap = capture_chunks(sink_config(4, 4));
  const auto& keys = cap.log.keys;
  ASSERT_GT(keys.size(), cap.calls_before.front());

  // earliest_from[i]: the earliest key time among calls i, i+1, ...
  std::vector<SimTime> earliest_from(keys.size() + 1, SimTime::max());
  for (std::size_t i = keys.size(); i-- > 0;) {
    earliest_from[i] = std::min(keys[i], earliest_from[i + 1]);
  }
  for (std::size_t k = 0; k < cap.watermarks.size(); ++k) {
    EXPECT_LE(cap.watermarks[k].count_us(), earliest_from[cap.calls_before[k]].count_us())
        << "watermark after chunk " << k;
  }
}

TEST(ParallelDeterminism, SinkModeReplaysEachChunkInShardOrder) {
  const ChunkedCapture cap = capture_chunks(sink_config(4, 4));
  ASSERT_EQ(cap.shard_of.size(), cap.log.keys.size());
  std::set<std::size_t> shards_seen;
  std::size_t chunk_begin = 0;
  // The final boundary is the end of harvest()'s flush.
  auto bounds = cap.calls_before;
  bounds.push_back(cap.shard_of.size());
  for (const std::size_t chunk_end : bounds) {
    for (std::size_t i = chunk_begin + 1; i < chunk_end; ++i) {
      ASSERT_LE(cap.shard_of[i - 1], cap.shard_of[i]) << "sink call " << i;
    }
    for (std::size_t i = chunk_begin; i < chunk_end; ++i) shards_seen.insert(cap.shard_of[i]);
    chunk_begin = chunk_end;
  }
  EXPECT_EQ(shards_seen.size(), 4u);
}

}  // namespace
}  // namespace dnsctx
