// dnsctx — spool writer/reader tests: rotation, merged replay order,
// writer invariants, background sealing, atomic segment publish, and
// byte-identical text↔binary conversion.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "capture/logio.hpp"
#include "obs/metrics.hpp"
#include "stream/segment_v2.hpp"
#include "stream/spool.hpp"
#include "util/strings.hpp"

namespace dnsctx::stream {
namespace {

std::string temp_dir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

capture::ConnRecord conn_at(std::int64_t us) {
  capture::ConnRecord c;
  c.start = SimTime::from_us(us);
  c.duration = SimDuration::ms(10);
  c.orig_ip = Ipv4Addr{10, 0, 0, 1};
  c.resp_ip = Ipv4Addr{1, 2, 3, 4};
  c.orig_port = 40000;
  c.resp_port = 443;
  return c;
}

capture::DnsRecord dns_at(std::int64_t us) {
  capture::DnsRecord d;
  d.ts = SimTime::from_us(us);
  d.duration = SimDuration::ms(5);
  d.client_ip = Ipv4Addr{10, 0, 0, 1};
  d.client_port = 50000;
  d.resolver_ip = Ipv4Addr{8, 8, 8, 8};
  d.query = "example.com";
  d.answered = true;
  d.answers = {{Ipv4Addr{1, 2, 3, 4}, 60}};
  return d;
}

capture::EncFlowRecord enc_at(std::int64_t us) {
  capture::EncFlowRecord e;
  e.start = SimTime::from_us(us);
  e.duration = SimDuration::ms(40);
  e.client_ip = Ipv4Addr{10, 0, 0, 1};
  e.server_ip = Ipv4Addr{1, 1, 1, 1};
  e.client_port = 51000;
  e.server_port = 853;
  e.up_msgs = 3;
  e.down_msgs = 3;
  e.up_bytes = 300;
  e.down_bytes = 900;
  return e;
}

std::string slurp(const std::string& path) {
  std::ifstream is{path, std::ios::binary};
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// Records delivery order as (kind, key-µs) pairs.
struct OrderSink final : capture::RecordSink {
  std::vector<std::pair<char, std::int64_t>> order;
  void on_conn(const capture::ConnRecord& rec) override {
    order.emplace_back('c', rec.start.count_us());
  }
  void on_dns(const capture::DnsRecord& rec) override {
    order.emplace_back('d', rec.ts.count_us());
  }
};

TEST(SpoolWriter, RotatesByRecordCount) {
  const auto dir = temp_dir("dnsctx_spool_rot");
  SpoolConfig cfg;
  cfg.max_records_per_segment = 2;
  SpoolWriter writer{dir, cfg};
  for (int i = 0; i < 5; ++i) {
    writer.on_conn(conn_at(1000 * (i + 1)));
  }
  writer.flush();
  const auto listing = list_spool(dir);
  EXPECT_EQ(listing.conn_segments.size(), 3u);  // 2 + 2 + 1
  EXPECT_TRUE(listing.dns_segments.empty());
  EXPECT_EQ(writer.conns_written(), 5u);
}

TEST(SpoolWriter, RotatesBySimTimeSpan) {
  const auto dir = temp_dir("dnsctx_spool_span");
  SpoolConfig cfg;
  cfg.max_segment_span = SimDuration::sec(10);
  SpoolWriter writer{dir, cfg};
  writer.on_dns(dns_at(0));
  writer.on_dns(dns_at(5'000'000));
  writer.on_dns(dns_at(11'000'000));  // > 10 s after segment start → new segment
  writer.on_dns(dns_at(12'000'000));
  writer.flush();
  EXPECT_EQ(list_spool(dir).dns_segments.size(), 2u);
}

TEST(SpoolWriter, RejectsTimestampRegression) {
  const auto dir = temp_dir("dnsctx_spool_regress");
  SpoolWriter writer{dir};
  writer.on_conn(conn_at(5000));
  EXPECT_THROW(writer.on_conn(conn_at(4000)), std::runtime_error);
  // The other kind has its own clock: an earlier DNS record is fine.
  EXPECT_NO_THROW(writer.on_dns(dns_at(1000)));
}

TEST(SpoolWriter, RejectsRegressionWhileSegmentsSeal) {
  const auto dir = temp_dir("dnsctx_spool_regress_sealing");
  SpoolConfig cfg;
  cfg.max_records_per_segment = 3;  // several rotations, so segments are in flight
  SpoolWriter writer{dir, cfg};
  for (int i = 0; i < 10; ++i) {
    writer.on_conn(conn_at(1000 * (i + 1)));
    writer.on_dns(dns_at(1000 * (i + 1)));
  }
  EXPECT_THROW(writer.on_conn(conn_at(9000)), std::runtime_error);
  EXPECT_THROW(writer.on_dns(dns_at(500)), std::runtime_error);
  writer.flush();
  OrderSink sink;
  const auto counts = replay_spool(dir, sink);
  EXPECT_EQ(counts.conns, 10u);
  EXPECT_EQ(counts.dns, 10u);
}

/// The bytes a one-segment-at-a-time writer produces for `recs`: cut
/// into segments of `per_segment` records, restarting at index `cut`
/// (where the writer was flushed).
template <typename Rec, typename Build>
std::vector<std::string> reference_segments(const std::vector<Rec>& recs,
                                            std::size_t per_segment, std::size_t cut,
                                            Build build) {
  std::vector<std::string> out;
  std::vector<Rec> open;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    if (!open.empty() && (open.size() == per_segment || i == cut)) {
      out.push_back(build(open));
      open.clear();
    }
    open.push_back(recs[i]);
  }
  if (!open.empty()) out.push_back(build(open));
  return out;
}

TEST(SpoolWriter, SealedSegmentsMatchOneAtATimeReference) {
  const auto dir = temp_dir("dnsctx_spool_sealed_ref");
  SpoolConfig cfg;
  cfg.max_records_per_segment = 16;

  std::vector<capture::ConnRecord> conns;
  std::vector<capture::DnsRecord> dns;
  std::vector<capture::EncFlowRecord> encs;
  std::size_t conn_cut = 0, dns_cut = 0, enc_cut = 0;
  struct ObsOn {
    bool was = obs::enabled();
    ObsOn() { obs::set_enabled(true); }
    ~ObsOn() { obs::set_enabled(was); }
  } obs_on;
  auto& reg = obs::registry();
  const auto counter = [&reg](const char* name) { return reg.counter(name).value(); };
  const std::uint64_t rotations0 = counter("spool_segment_rotations_total");
  const std::uint64_t bytes0 = counter("spool_bytes_written_total");
  const std::uint64_t records0 = counter("spool_records_written_total");
  {
    SpoolWriter writer{dir, cfg};
    for (int i = 0; i < 700; ++i) {
      if (i == 350) {
        // Mid-stream flush: every open segment closes, later records
        // start new ones.
        writer.flush();
        conn_cut = conns.size();
        dns_cut = dns.size();
        enc_cut = encs.size();
      }
      const std::int64_t us = 1'000'000 + 997 * i;
      capture::DnsRecord d = dns_at(us);
      d.client_port = static_cast<std::uint16_t>(50000 + i % 97);
      d.query = "host" + std::to_string(i % 41) + ".example.com";
      d.answers.assign(static_cast<std::size_t>(i % 4),
                       {Ipv4Addr{1, 2, 3, static_cast<std::uint8_t>(i % 250)}, 60});
      writer.on_dns(d);
      dns.push_back(d);
      if (i % 3 != 0) {
        capture::ConnRecord c = conn_at(us);
        c.orig_bytes = static_cast<std::uint64_t>(i) * 13;
        writer.on_conn(c);
        conns.push_back(c);
      }
      if (i % 5 == 0) {
        const capture::EncFlowRecord e = enc_at(us);
        writer.on_encflow(e);
        encs.push_back(e);
      }
    }
    writer.flush();

    std::vector<std::string> expect_conn =
        reference_segments(conns, 16, conn_cut, [](const auto& recs) {
          return build_segment_v2(recs);
        });
    std::vector<std::string> expect_dns =
        reference_segments(dns, 16, dns_cut, [](const auto& recs) {
          return build_segment_v2(recs);
        });
    std::vector<std::string> expect_enc =
        reference_segments(encs, 16, enc_cut, [](const auto& recs) {
          std::string payload;
          for (const auto& e : recs) append_record(payload, e);
          return build_segment(RecordKind::kEncFlow, static_cast<std::uint32_t>(recs.size()),
                               recs.front().start, recs.back().start, payload);
        });

    const auto listing = list_spool(dir);
    ASSERT_EQ(listing.conn_segments.size(), expect_conn.size());
    ASSERT_EQ(listing.dns_segments.size(), expect_dns.size());
    ASSERT_EQ(listing.enc_segments.size(), expect_enc.size());
    std::uint64_t bytes = 0;
    for (std::size_t k = 0; k < expect_conn.size(); ++k) {
      EXPECT_EQ(slurp(listing.conn_segments[k]), expect_conn[k]) << listing.conn_segments[k];
      bytes += expect_conn[k].size();
    }
    for (std::size_t k = 0; k < expect_dns.size(); ++k) {
      EXPECT_EQ(slurp(listing.dns_segments[k]), expect_dns[k]) << listing.dns_segments[k];
      bytes += expect_dns[k].size();
    }
    for (std::size_t k = 0; k < expect_enc.size(); ++k) {
      EXPECT_EQ(slurp(listing.enc_segments[k]), expect_enc[k]) << listing.enc_segments[k];
      bytes += expect_enc[k].size();
    }
    EXPECT_EQ(writer.segments_written(), listing.total());
    EXPECT_EQ(counter("spool_segment_rotations_total") - rotations0, listing.total());
    EXPECT_EQ(counter("spool_bytes_written_total") - bytes0, bytes);
    EXPECT_EQ(counter("spool_records_written_total") - records0,
              conns.size() + dns.size() + encs.size());
  }
  // Every file was renamed into place: no temporaries are left behind.
  for (const auto& entry : std::filesystem::directory_iterator{dir}) {
    EXPECT_TRUE(entry.path().extension() == ".seg") << entry.path();
  }
}

TEST(SpoolWriter, WritesSegmentsInSequenceOrder) {
  // A large segment seals slowly; the one-record segments rotated after
  // it seal at once, but none may reach the disk before it does.
  const auto dir = temp_dir("dnsctx_spool_seq_order");
  SpoolConfig cfg;
  cfg.max_segment_span = SimDuration::sec(1);
  SpoolWriter writer{dir, cfg};
  for (int i = 0; i < 50'000; ++i) {
    capture::ConnRecord c = conn_at(i);
    c.resp_ip = Ipv4Addr::from_u32(0x0a000000u + static_cast<std::uint32_t>(i * 7919 % 65'521));
    c.orig_bytes = static_cast<std::uint64_t>(i % 1'000);
    writer.on_conn(c);
  }
  for (int k = 1; k <= 30; ++k) {
    writer.on_conn(conn_at(2'000'000LL * k));
    const auto listing = list_spool(dir);
    for (std::size_t n = 0; n < listing.conn_segments.size(); ++n) {
      ASSERT_TRUE(listing.conn_segments[n].ends_with(strfmt("conn-%08zu.seg", n)))
          << listing.conn_segments[n];
    }
  }
  writer.flush();
  EXPECT_EQ(list_spool(dir).conn_segments.size(), 31u);
}

TEST(SpoolWriter, FlushNamesSegmentWhenDirectoryVanishes) {
  const auto dir = temp_dir("dnsctx_spool_vanish");
  SpoolConfig cfg;
  cfg.max_records_per_segment = 4;
  {
    SpoolWriter writer{dir, cfg};
    for (int i = 0; i < 6; ++i) {
      writer.on_conn(conn_at(1000 * (i + 1)));
      writer.on_dns(dns_at(1000 * (i + 1)));
    }
    std::filesystem::remove_all(dir);
    try {
      writer.flush();
      FAIL() << "expected flush() to throw";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(dir), std::string::npos) << what;
      EXPECT_NE(what.find(".seg"), std::string::npos) << what;
    }
    // More records after the failure still go somewhere sane...
    writer.on_conn(conn_at(10'000));
    // ...and the destructor's own flush fails quietly and returns.
  }
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(SpoolReplay, MergesKindsInTimeOrderDnsFirstOnTies) {
  const auto dir = temp_dir("dnsctx_spool_merge");
  SpoolConfig cfg;
  cfg.max_records_per_segment = 2;  // force several segments per kind
  SpoolWriter writer{dir, cfg};
  for (const auto us : {1000, 3000, 5000, 5000, 9000}) {
    writer.on_conn(conn_at(us));
  }
  for (const auto us : {2000, 5000, 8000}) {
    writer.on_dns(dns_at(us));
  }
  writer.flush();

  OrderSink sink;
  const auto counts = replay_spool(dir, sink);
  EXPECT_EQ(counts.conns, 5u);
  EXPECT_EQ(counts.dns, 3u);
  const std::vector<std::pair<char, std::int64_t>> expected = {
      {'c', 1000}, {'d', 2000}, {'c', 3000}, {'d', 5000},
      {'c', 5000}, {'c', 5000}, {'d', 8000}, {'c', 9000}};
  EXPECT_EQ(sink.order, expected);
}

TEST(SpoolReplay, DatasetReplayMatchesSpoolReplay) {
  capture::Dataset ds;
  ds.conns = {conn_at(1000), conn_at(4000)};
  ds.dns = {dns_at(1000), dns_at(2000)};
  OrderSink sink;
  const auto counts = replay_dataset(ds, sink);
  EXPECT_EQ(counts.conns, 2u);
  EXPECT_EQ(counts.dns, 2u);
  const std::vector<std::pair<char, std::int64_t>> expected = {
      {'d', 1000}, {'c', 1000}, {'d', 2000}, {'c', 4000}};
  EXPECT_EQ(sink.order, expected);
}

TEST(SpoolConvert, TextRoundTripIsByteIdentical) {
  const auto text_dir = temp_dir("dnsctx_spool_text");
  const auto spool_dir = temp_dir("dnsctx_spool_bin");
  const auto back_dir = temp_dir("dnsctx_spool_back");
  capture::Dataset ds;
  ds.conns = {conn_at(1000), conn_at(2500), conn_at(2500)};
  ds.dns = {dns_at(500), dns_at(2000)};
  ds.dns[1].answered = false;
  ds.dns[1].answers.clear();
  ds.dns[1].duration = SimDuration::zero();
  capture::save_dataset(ds, text_dir + "/conn.log", text_dir + "/dns.log");

  SpoolConfig cfg;
  cfg.max_records_per_segment = 2;
  const auto in_counts = text_to_spool(text_dir, spool_dir, cfg);
  EXPECT_EQ(in_counts.conns, 3u);
  EXPECT_EQ(in_counts.dns, 2u);
  const auto out_counts = spool_to_text(spool_dir, back_dir);
  EXPECT_EQ(out_counts.conns, 3u);
  EXPECT_EQ(out_counts.dns, 2u);

  EXPECT_EQ(slurp(text_dir + "/conn.log"), slurp(back_dir + "/conn.log"));
  EXPECT_EQ(slurp(text_dir + "/dns.log"), slurp(back_dir + "/dns.log"));
}

TEST(SpoolWriter, DefaultsToV2Compressed) {
  const auto dir = temp_dir("dnsctx_spool_v2def");
  SpoolWriter writer{dir};
  for (int i = 0; i < 100; ++i) {
    writer.on_conn(conn_at(1000 + i));
    writer.on_dns(dns_at(1000 + i));
  }
  writer.flush();
  const auto listing = list_spool(dir);
  ASSERT_EQ(listing.total(), 2u);
  for (const auto* paths : {&listing.conn_segments, &listing.dns_segments}) {
    std::ifstream is{paths->front(), std::ios::binary};
    std::stringstream ss;
    ss << is.rdbuf();
    const auto header = parse_segment_header(ss.str(), paths->front());
    EXPECT_EQ(header.version, kSegmentVersionV2);
  }
}

TEST(SpoolWriter, RejectsUnknownFormat) {
  SpoolConfig cfg;
  cfg.format = 3;
  EXPECT_THROW((SpoolWriter{temp_dir("dnsctx_spool_badfmt"), cfg}),
               std::invalid_argument);
}

TEST(SpoolConvert, V1ToV2RoundTripPreservesEveryRecord) {
  const auto v1_dir = temp_dir("dnsctx_conv_v1");
  const auto v2_dir = temp_dir("dnsctx_conv_v2");
  const auto back_dir = temp_dir("dnsctx_conv_back");

  SpoolConfig v1_cfg;
  v1_cfg.format = kSegmentVersion;
  v1_cfg.codec = SegmentCodec::kNone;
  v1_cfg.max_records_per_segment = 16;
  {
    SpoolWriter writer{v1_dir, v1_cfg};
    for (int i = 0; i < 40; ++i) {
      writer.on_conn(conn_at(1000 + 13 * i));
      if (i % 3 != 0) writer.on_dns(dns_at(1100 + 13 * i));
    }
    writer.flush();
  }

  SpoolConfig v2_cfg;  // defaults: v2 + lz
  const auto up = convert_spool(v1_dir, v2_dir, v2_cfg);
  EXPECT_EQ(up.conns, 40u);
  EXPECT_EQ(up.dns, 26u);
  const auto down = convert_spool(v2_dir, back_dir, v1_cfg);
  EXPECT_EQ(down.conns, 40u);
  EXPECT_EQ(down.dns, 26u);

  // Replay order and content are invariant across both conversions —
  // the property that makes study results byte-identical per format.
  OrderSink a, b, c;
  (void)replay_spool(v1_dir, a);
  (void)replay_spool(v2_dir, b);
  (void)replay_spool(back_dir, c);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.order, c.order);

  // The v2 spool is the small one.
  EXPECT_LT(spool_bytes(v2_dir), spool_bytes(v1_dir));
  EXPECT_EQ(spool_bytes(back_dir), spool_bytes(v1_dir));
}

TEST(SpoolConvert, V2SpoolExportsByteIdenticalText) {
  const auto text_dir = temp_dir("dnsctx_conv_text");
  const auto v1_dir = temp_dir("dnsctx_conv_t_v1");
  const auto v2_dir = temp_dir("dnsctx_conv_t_v2");
  const auto out1 = temp_dir("dnsctx_conv_t_out1");
  const auto out2 = temp_dir("dnsctx_conv_t_out2");
  capture::Dataset ds;
  ds.conns = {conn_at(1000), conn_at(2500), conn_at(2500)};
  ds.dns = {dns_at(500), dns_at(2000)};
  capture::save_dataset(ds, text_dir + "/conn.log", text_dir + "/dns.log");

  SpoolConfig v1_cfg;
  v1_cfg.format = kSegmentVersion;
  v1_cfg.codec = SegmentCodec::kNone;
  (void)text_to_spool(text_dir, v1_dir, v1_cfg);
  (void)convert_spool(v1_dir, v2_dir);
  (void)spool_to_text(v1_dir, out1);
  (void)spool_to_text(v2_dir, out2);

  EXPECT_EQ(slurp(out1 + "/conn.log"), slurp(out2 + "/conn.log"));
  EXPECT_EQ(slurp(out1 + "/dns.log"), slurp(out2 + "/dns.log"));
  EXPECT_EQ(slurp(text_dir + "/conn.log"), slurp(out2 + "/conn.log"));
}

TEST(SpoolListing, SortedAndFiltered) {
  const auto dir = temp_dir("dnsctx_spool_list");
  SpoolConfig cfg;
  cfg.max_records_per_segment = 1;
  SpoolWriter writer{dir, cfg};
  for (int i = 0; i < 3; ++i) {
    writer.on_conn(conn_at(1000 * (i + 1)));
  }
  writer.flush();
  std::ofstream{dir + "/notes.txt"} << "not a segment\n";
  const auto listing = list_spool(dir);
  ASSERT_EQ(listing.conn_segments.size(), 3u);
  EXPECT_TRUE(std::is_sorted(listing.conn_segments.begin(), listing.conn_segments.end()));
  EXPECT_EQ(listing.total(), 3u);
}

TEST(SpoolListing, IgnoresLeftoverTemporarySegment) {
  const auto dir = temp_dir("dnsctx_spool_tmp");
  {
    SpoolWriter writer{dir};
    writer.on_conn(conn_at(1000));
    writer.on_dns(dns_at(2000));
  }
  // A writer killed mid-write leaves a partial `.seg.tmp` behind; it is
  // not a segment, so listing and replay skip it.
  std::ofstream{dir + "/conn-00000001.seg.tmp", std::ios::binary} << "partial";
  std::ofstream{dir + "/dns-00000001.seg.tmp", std::ios::binary};
  const auto listing = list_spool(dir);
  EXPECT_EQ(listing.conn_segments.size(), 1u);
  EXPECT_EQ(listing.dns_segments.size(), 1u);
  OrderSink sink;
  const auto counts = replay_spool(dir, sink);
  EXPECT_EQ(counts.conns, 1u);
  EXPECT_EQ(counts.dns, 1u);
}

TEST(SpoolListing, WriteSegmentFileLeavesOnlyTheSegment) {
  const auto dir = temp_dir("dnsctx_spool_publish");
  const std::string path = dir + "/conn-00000000.seg";
  const std::string blob = build_segment_v2(std::vector<capture::ConnRecord>{conn_at(1000)});
  write_segment_file(path, blob);
  EXPECT_EQ(slurp(path), blob);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  // Overwriting an existing segment replaces it whole.
  const std::string blob2 =
      build_segment_v2(std::vector<capture::ConnRecord>{conn_at(1000), conn_at(2000)});
  write_segment_file(path, blob2);
  EXPECT_EQ(slurp(path), blob2);
}

}  // namespace
}  // namespace dnsctx::stream
