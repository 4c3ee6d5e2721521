// dnsctx — LiveFeed tests: release order against a stable sort on
// (key, kind, arrival) under random push/drain interleavings, slot
// reuse, buffer accounting, and a downstream that throws.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "stream/feed.hpp"

namespace dnsctx::stream {
namespace {

/// What a sink saw: kind (0 dns, 1 conn, 2 enc — the tie order), key
/// time, the record's id and, for DNS, its answer list.
struct Seen {
  int kind = 0;
  std::int64_t key_us = 0;
  std::uint64_t id = 0;
  std::vector<capture::DnsAnswer> answers;
  bool operator==(const Seen&) const = default;
};

struct RecordingSink final : capture::RecordSink {
  std::vector<Seen> seen;
  void on_dns(const capture::DnsRecord& rec) override {
    seen.push_back({0, rec.ts.count_us(), static_cast<std::uint64_t>(rec.duration.count_us()),
                    rec.answers});
  }
  void on_conn(const capture::ConnRecord& rec) override {
    seen.push_back({1, rec.start.count_us(), rec.orig_bytes, {}});
  }
  void on_encflow(const capture::EncFlowRecord& rec) override {
    seen.push_back({2, rec.start.count_us(), rec.up_bytes, {}});
  }
};

capture::DnsRecord dns(std::int64_t us, std::uint64_t id, std::size_t answers) {
  capture::DnsRecord d;
  d.ts = SimTime::from_us(us);
  d.duration = SimDuration::us(static_cast<std::int64_t>(id));
  for (std::size_t a = 0; a < answers; ++a) {
    d.answers.push_back({Ipv4Addr::from_u32(static_cast<std::uint32_t>(id * 8 + a)),
                         static_cast<std::uint32_t>(a + 1)});
  }
  return d;
}

capture::ConnRecord conn(std::int64_t us, std::uint64_t id) {
  capture::ConnRecord c;
  c.start = SimTime::from_us(us);
  c.orig_bytes = id;
  return c;
}

capture::EncFlowRecord enc(std::int64_t us, std::uint64_t id) {
  capture::EncFlowRecord e;
  e.start = SimTime::from_us(us);
  e.up_bytes = id;
  return e;
}

/// Pushes random records (keys above the last watermark, drawn from a
/// narrow range so keys collide within and across kinds), drains at
/// random nondecreasing watermarks, and checks every release against a
/// stable sort of the still-buffered records on (key, kind).
void run_property(std::uint32_t seed) {
  std::mt19937 rng{seed};
  RecordingSink sink;
  LiveFeed feed{sink};
  std::vector<Seen> pending;  // pushed, not yet released, in arrival order
  std::vector<Seen> expected;
  std::int64_t watermark = 0;
  std::uint64_t next_id = 0;
  std::size_t peak = 0;
  const auto release_upto = [&](std::int64_t w) {
    std::vector<Seen> out;
    std::vector<Seen> keep;
    for (auto& s : pending) (s.key_us <= w ? out : keep).push_back(s);
    std::stable_sort(out.begin(), out.end(), [](const Seen& a, const Seen& b) {
      return std::tie(a.key_us, a.kind) < std::tie(b.key_us, b.kind);
    });
    expected.insert(expected.end(), out.begin(), out.end());
    pending = std::move(keep);
  };
  for (int step = 0; step < 400; ++step) {
    const int pushes = static_cast<int>(rng() % 40);
    for (int i = 0; i < pushes; ++i) {
      const std::int64_t key = watermark + 1 + static_cast<std::int64_t>(rng() % 12);
      const std::uint64_t id = next_id++;
      switch (rng() % 3) {
        case 0: {
          const std::size_t answers = rng() % 6;
          feed.on_dns(dns(key, id, answers));
          pending.push_back({0, key, id, dns(key, id, answers).answers});
          break;
        }
        case 1:
          feed.on_conn(conn(key, id));
          pending.push_back({1, key, id, {}});
          break;
        default:
          feed.on_encflow(enc(key, id));
          pending.push_back({2, key, id, {}});
          break;
      }
      peak = std::max(peak, pending.size());
    }
    ASSERT_EQ(feed.buffered(), pending.size());
    watermark += static_cast<std::int64_t>(rng() % 8);  // may stay put
    feed.drain(SimTime::from_us(watermark));
    release_upto(watermark);
    ASSERT_EQ(sink.seen, expected) << "seed " << seed << " step " << step;
    ASSERT_EQ(feed.buffered(), pending.size());
    ASSERT_EQ(feed.peak_buffered(), peak);
  }
  feed.close();
  release_upto(SimTime::max().count_us());
  EXPECT_EQ(sink.seen, expected) << "seed " << seed;
  EXPECT_EQ(feed.buffered(), 0u);
  EXPECT_EQ(feed.peak_buffered(), peak);
}

TEST(LiveFeed, ReleasesInStableSortOrderUnderRandomInterleavings) {
  for (std::uint32_t seed = 1; seed <= 8; ++seed) run_property(seed);
}

TEST(LiveFeed, ReusedDnsSlotDeliversOnlyItsOwnAnswers) {
  RecordingSink sink;
  LiveFeed feed{sink};
  feed.on_dns(dns(10, 1, 5));
  feed.drain(SimTime::from_us(10));
  // The freed slot held five answers; the next record has one.
  feed.on_dns(dns(20, 2, 1));
  feed.close();
  ASSERT_EQ(sink.seen.size(), 2u);
  EXPECT_EQ(sink.seen[0].answers.size(), 5u);
  ASSERT_EQ(sink.seen[1].answers.size(), 1u);
  EXPECT_EQ(sink.seen[1].answers, dns(20, 2, 1).answers);
}

TEST(LiveFeed, BufferedAndPeakCountRecordsInTheWindow) {
  RecordingSink sink;
  LiveFeed feed{sink};
  EXPECT_EQ(feed.buffered(), 0u);
  feed.on_conn(conn(30, 0));
  feed.on_dns(dns(10, 1, 0));
  feed.on_encflow(enc(20, 2));
  EXPECT_EQ(feed.buffered(), 3u);
  EXPECT_EQ(feed.peak_buffered(), 3u);
  feed.drain(SimTime::from_us(20));
  EXPECT_EQ(feed.buffered(), 1u);
  feed.on_conn(conn(40, 3));
  EXPECT_EQ(feed.buffered(), 2u);
  EXPECT_EQ(feed.peak_buffered(), 3u);
  feed.drain(SimTime::from_us(25));  // nothing at or before 25 is left
  EXPECT_EQ(feed.buffered(), 2u);
  feed.close();
  EXPECT_EQ(feed.buffered(), 0u);
  EXPECT_EQ(feed.peak_buffered(), 3u);
  ASSERT_EQ(sink.seen.size(), 4u);
  EXPECT_EQ(sink.seen[0].id, 1u);
  EXPECT_EQ(sink.seen[1].id, 2u);
  EXPECT_EQ(sink.seen[2].id, 0u);
  EXPECT_EQ(sink.seen[3].id, 3u);
}

TEST(LiveFeed, DownstreamErrorKeepsUndeliveredRecordsBuffered) {
  struct FailOnce final : capture::RecordSink {
    int fail_at = 0;
    std::vector<std::uint64_t> ids;
    bool failed = false;
    void on_dns(const capture::DnsRecord&) override {}
    void on_conn(const capture::ConnRecord& rec) override {
      if (!failed && static_cast<int>(ids.size()) == fail_at) {
        failed = true;
        throw std::runtime_error{"downstream full"};
      }
      ids.push_back(rec.orig_bytes);
    }
  };
  // 40 buffered records: the first few leave the heap one pop at a time,
  // the rest through one sort; fail in each phase, on drain and close.
  for (const int fail_at : {1, 10}) {
    for (const bool closing : {false, true}) {
      FailOnce sink;
      sink.fail_at = fail_at;
      LiveFeed feed{sink};
      for (int i = 0; i < 40; ++i) {
        feed.on_conn(conn(10 * (40 - i), static_cast<std::uint64_t>(39 - i)));
      }
      const SimTime watermark = closing ? SimTime::max() : SimTime::from_us(1000);
      EXPECT_THROW(feed.drain(watermark), std::runtime_error);
      // The record that failed, and the ones after it, are still buffered.
      EXPECT_EQ(feed.buffered(), static_cast<std::size_t>(40 - fail_at));
      feed.drain(watermark);
      EXPECT_EQ(feed.buffered(), 0u);
      std::vector<std::uint64_t> expected(40);
      for (std::uint64_t i = 0; i < 40; ++i) expected[i] = i;
      EXPECT_EQ(sink.ids, expected) << "fail_at " << fail_at << (closing ? " close" : " drain");
    }
  }
}

}  // namespace
}  // namespace dnsctx::stream
