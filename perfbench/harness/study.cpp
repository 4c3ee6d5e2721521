// study_replay: a neighbourhood spool on disk, replayed into the batch
// engine (analysis::run_study) and, in another process, into the online
// engine (stream::OnlineStudy). Each engine writes a summary of the
// results both compute — N/LC/P/SC/R, Table 1, §6 quadrants, §7 rows —
// and run.py requires the two to be identical.
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "analysis/study.hpp"
#include "scenario/scenario.hpp"
#include "stream/online_study.hpp"
#include "stream/spool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace dnsctx;

struct CollectSink final : capture::RecordSink {
  capture::Dataset ds;
  void on_conn(const capture::ConnRecord& rec) override { ds.conns.push_back(rec); }
  void on_dns(const capture::DnsRecord& rec) override { ds.dns.push_back(rec); }
};

/// Samples the online engine's live state every 4096 records (traced
/// runs only) so the peaks of its bounded-memory window are visible.
struct ProbeSink final : capture::RecordSink {
  ProbeSink(capture::RecordSink& down, const stream::OnlineStudy& engine)
      : down_{&down}, engine_{&engine} {}
  void on_conn(const capture::ConnRecord& rec) override {
    down_->on_conn(rec);
    sample();
  }
  void on_dns(const capture::DnsRecord& rec) override {
    down_->on_dns(rec);
    sample();
  }
  void sample() {
    if ((++seen_ & 4095) != 0) return;
    candidates_peak = std::max(candidates_peak, engine_->active_candidates());
    records_peak = std::max(records_peak, engine_->active_records());
  }
  std::uint64_t candidates_peak = 0;
  std::uint64_t records_peak = 0;

 private:
  capture::RecordSink* down_;
  const stream::OnlineStudy* engine_;
  std::uint64_t seen_ = 0;
};

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string summary_line(const std::string& tag, std::initializer_list<std::string> fields) {
  std::string out = tag;
  for (const auto& f : fields) out += " " + f;
  return out + "\n";
}

std::string u(std::uint64_t v) { return std::to_string(v); }

template <typename Pairing, typename Quadrants, typename Platforms>
std::string summarize(std::uint64_t conns, std::uint64_t dns, const Pairing& pairing,
                      const analysis::ClassCounts& c, std::uint64_t lc_expired,
                      std::uint64_t p_expired, const std::vector<analysis::Table1Row>& table1,
                      double isp_only, const Quadrants& q, const Platforms& platforms) {
  std::string out = summary_line("records", {u(conns), u(dns)});
  out += summary_line("pairing", {u(pairing.paired), u(pairing.unpaired),
                                  u(pairing.paired_expired), u(pairing.unique_candidate),
                                  u(pairing.multiple_candidates)});
  out += summary_line("classes", {u(c.n), u(c.lc), u(c.p), u(c.sc), u(c.r), u(lc_expired),
                                  u(p_expired)});
  for (const auto& row : table1) {
    out += summary_line("table1", {row.platform, fmt(row.pct_houses), fmt(row.pct_lookups),
                                   fmt(row.pct_conns), fmt(row.pct_bytes), u(row.lookups)});
  }
  out += summary_line("isp_only_houses", {fmt(isp_only)});
  out += summary_line("quadrants", {fmt(q.insignificant_both), fmt(q.relative_only),
                                    fmt(q.absolute_only), fmt(q.significant_both),
                                    fmt(q.significant_overall)});
  for (const auto& p : platforms) {
    out += summary_line("platform", {p.platform, u(p.sc), u(p.r), u(p.conncheck_conns),
                                     u(p.total_conns)});
  }
  return out;
}

/// Repeat `rep` until `seconds` of wall have passed (at least `min_reps`
/// times), requiring every repetition to summarize identically.
template <typename Rep>
std::string repeat(std::uint64_t seconds, std::uint64_t min_reps, Rep&& rep) {
  std::string first;
  const auto t0 = now_ns();
  for (std::uint64_t i = 0; i < min_reps || seconds_since(t0) < static_cast<double>(seconds);
       ++i) {
    std::string summary = rep();
    if (i == 0) {
      first = std::move(summary);
    } else if (summary != first) {
      throw std::runtime_error{"repetitions of one study disagree"};
    }
  }
  return first;
}

}  // namespace

std::set<std::string> gen_spool_flags() {
  return {"houses", "hours", "shards", "threads", "seed", "spool", "setups"};
}

int run_gen_spool(const Flags& flags) {
  scenario::ScenarioConfig cfg;
  cfg.houses = flags.num("houses", 1, 1'000'000);
  cfg.duration = SimDuration::hours(static_cast<std::int64_t>(flags.num("hours", 1, 24 * 7)));
  cfg.shards = flags.num("shards", 1, 1024);
  cfg.threads = static_cast<unsigned>(flags.num("threads", 1, 256));
  cfg.seed = flags.num("seed", 0, UINT64_MAX);
  const std::string dir = flags.str("spool");
  const auto setups = flags.num("setups", 1, 16);

  std::vector<double> setup_s;
  std::uint64_t records = 0;
  for (std::uint64_t i = 0; i < setups; ++i) {
    const auto t0 = now_ns();
    fs::remove_all(dir);
    fs::create_directories(dir);
    scenario::Town town{cfg};
    town.run();
    stream::SpoolWriter writer{dir};
    stream::replay_dataset(town.dataset(), writer);
    writer.flush();
    setup_s.push_back(seconds_since(t0));
    records = writer.conns_written() + writer.dns_written();
  }
  if (records == 0) throw std::runtime_error{"simulation produced no records"};
  Report r;
  r.metric("setup_s", median(setup_s));
  r.metric("records", static_cast<double>(records));
  r.print();
  return 0;
}

std::set<std::string> study_flags() { return {"spool", "seconds", "summary", "trace-dir"}; }

int run_study_batch(const Flags& flags) {
  const std::string dir = flags.str("spool");
  const auto seconds = flags.num("seconds", 1, 600);
  start_trace(flags, "study_batch");
  std::vector<double> collect_s, study_s, total_s;
  std::uint64_t records = 0;
  const std::string summary = repeat(seconds, 3, [&] {
    ScopedSpan root{"study_batch"};
    const auto t0 = now_ns();
    CollectSink collect;
    {
      ScopedSpan span{"analysis.collect"};
      (void)stream::replay_spool(stream::list_spool(dir), collect);
    }
    const auto t1 = now_ns();
    analysis::Study s;
    {
      ScopedSpan span{"analysis.run_study"};
      s = analysis::run_study(collect.ds);
    }
    const auto t2 = now_ns();
    collect_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    study_s.push_back(static_cast<double>(t2 - t1) / 1e9);
    total_s.push_back(static_cast<double>(t2 - t0) / 1e9);
    records = collect.ds.conns.size() + collect.ds.dns.size();
    const auto& ds = collect.ds;
    return summarize(ds.conns.size(), ds.dns.size(), s.pairing, s.classified.counts,
                     s.classified.lc_expired, s.classified.p_expired, s.table1,
                     s.isp_only_houses, s.performance, s.platforms);
  });
  if (records == 0) throw std::runtime_error{"spool holds no records"};
  write_file(flags.str("summary"), summary);

  Report r;
  r.metric("reps", static_cast<double>(total_s.size()));
  r.metric("records", static_cast<double>(records));
  r.metric("batch_study_s", median(total_s));
  r.metric("collect_s", median(collect_s));
  r.metric("run_study_s", median(study_s));
  r.metric("peak_rss_kib", peak_rss_kib());
  for (const auto& [layer, t] : Tracer::instance().layer_table()) {
    r.metric("self_s." + layer, t.self_s / static_cast<double>(total_s.size()));
    r.metric("total_s." + layer, t.total_s / static_cast<double>(total_s.size()));
  }
  for (const auto& [name, value] : obs_scrape()) r.metric("obs." + name, value);
  write_trace(flags, "study_batch");
  r.print();
  return 0;
}

int run_study_online(const Flags& flags) {
  const std::string dir = flags.str("spool");
  const auto seconds = flags.num("seconds", 1, 600);
  start_trace(flags, "study_online");
  std::vector<double> total_s, finalize_s, replay_s, ingest_s;
  std::uint64_t records = 0, candidates_peak = 0, records_peak = 0;
  const std::string summary = repeat(seconds, 3, [&] {
    ScopedSpan root{"study_online"};
    stream::OnlineStudy engine;
    TimedSink ingest{engine, "stream.online_ingest"};
    ProbeSink probe{ingest, engine};
    capture::RecordSink& head = Tracer::instance().enabled()
                                    ? static_cast<capture::RecordSink&>(probe)
                                    : static_cast<capture::RecordSink&>(ingest);
    const auto t0 = now_ns();
    {
      ScopedSpan span{"stream.replay_spool"};
      (void)stream::replay_spool(stream::list_spool(dir), head);
    }
    const auto t1 = now_ns();
    stream::OnlineStudyResult res;
    {
      ScopedSpan span{"stream.online_finalize"};
      res = engine.finalize();
    }
    const auto t2 = now_ns();
    replay_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    finalize_s.push_back(static_cast<double>(t2 - t1) / 1e9);
    total_s.push_back(static_cast<double>(t2 - t0) / 1e9);
    ingest_s.push_back(static_cast<double>(ingest.charged_ns) / 1e9);
    records = ingest.conns + ingest.dns;
    candidates_peak = probe.candidates_peak;
    records_peak = probe.records_peak;
    return summarize(res.conns, res.dns, res.pairing, res.classes, res.lc_expired,
                     res.p_expired, res.table1, res.isp_only_houses, res.quadrants,
                     res.platforms);
  });
  if (records == 0) throw std::runtime_error{"spool holds no records"};
  write_file(flags.str("summary"), summary);

  Report r;
  const double n = static_cast<double>(records);
  r.metric("reps", static_cast<double>(total_s.size()));
  r.metric("records", n);
  r.metric("online_records_per_s", n / median(total_s));
  r.metric("online_s", median(total_s));
  r.metric("finalize_s", median(finalize_s));
  r.metric("replay_s", median(replay_s));
  r.metric("peak_rss_kib", peak_rss_kib());
  if (Tracer::instance().enabled()) {
    const double ingest = median(ingest_s);
    r.metric("ingest_self_s", ingest);
    r.metric("spool_read_s", median(replay_s) - ingest);
    r.metric("spool_read_records_per_s", n / (median(replay_s) - ingest));
    r.metric("active_candidates_peak", static_cast<double>(candidates_peak));
    r.metric("active_records_peak", static_cast<double>(records_peak));
  }
  for (const auto& [layer, t] : Tracer::instance().layer_table()) {
    r.metric("self_s." + layer, t.self_s / static_cast<double>(total_s.size()));
    r.metric("total_s." + layer, t.total_s / static_cast<double>(total_s.size()));
  }
  for (const auto& [name, value] : obs_scrape()) r.metric("obs." + name, value);
  write_trace(flags, "study_online");
  r.print();
  return 0;
}

}  // namespace perfbench
