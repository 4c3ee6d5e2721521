// Integration tests: the full simulated neighborhood end to end.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "capture/logio.hpp"
#include "scenario/scenario.hpp"

namespace dnsctx::scenario {
namespace {

[[nodiscard]] ScenarioConfig small_town(std::uint64_t seed = 42) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.houses = 8;
  cfg.duration = SimDuration::hours(2);
  cfg.zones.web_sites = 120;
  cfg.zones.cdn_domains = 15;
  cfg.zones.ad_domains = 20;
  cfg.zones.tracker_domains = 12;
  cfg.zones.api_domains = 25;
  cfg.zones.video_sites = 8;
  cfg.zones.other_names = 20;
  return cfg;
}

class TownTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    town = new Town{small_town()};
    town->run();
  }
  static void TearDownTestSuite() {
    delete town;
    town = nullptr;
  }
  static Town* town;
};

Town* TownTest::town = nullptr;

TEST_F(TownTest, ProducesSubstantialTraffic) {
  const auto& ds = town->dataset();
  EXPECT_GT(ds.conns.size(), 2'000u);
  EXPECT_GT(ds.dns.size(), 1'000u);
}

TEST_F(TownTest, ConnLogIsTimestampSorted) {
  const auto& ds = town->dataset();
  for (std::size_t i = 1; i < ds.conns.size(); ++i) {
    EXPECT_LE(ds.conns[i - 1].start, ds.conns[i].start);
  }
  for (std::size_t i = 1; i < ds.dns.size(); ++i) {
    EXPECT_LE(ds.dns[i - 1].ts, ds.dns[i].ts);
  }
}

TEST_F(TownTest, AllConnectionsOriginateFromHouses) {
  std::set<std::uint32_t> house_ips;
  for (const auto& h : town->houses()) house_ips.insert(h.external_ip.to_u32());
  for (const auto& c : town->dataset().conns) {
    EXPECT_TRUE(house_ips.contains(c.orig_ip.to_u32()))
        << "conn from non-house " << c.orig_ip.to_string();
    EXPECT_FALSE(house_ips.contains(c.resp_ip.to_u32()));
  }
  for (const auto& d : town->dataset().dns) {
    EXPECT_TRUE(house_ips.contains(d.client_ip.to_u32()));
  }
}

TEST_F(TownTest, NoPort53ConnRecords) {
  for (const auto& c : town->dataset().conns) {
    EXPECT_NE(c.resp_port, 53);
    EXPECT_NE(c.orig_port, 53);
  }
}

TEST_F(TownTest, NoDoTTraffic) {
  // §5.1's check: nothing on the DoT port in the N set (or anywhere).
  for (const auto& c : town->dataset().conns) {
    EXPECT_NE(c.resp_port, 853);
  }
}

TEST_F(TownTest, DnsDurationsArePhysical) {
  // Every answered lookup takes at least the resolver round trip
  // (≈2 ms for the ISP) and a bounded worst case.
  for (const auto& d : town->dataset().dns) {
    if (!d.answered) continue;
    EXPECT_GT(d.duration, SimDuration::from_ms(0.5));
    EXPECT_LT(d.duration, SimDuration::sec(30));
  }
}

TEST_F(TownTest, AnsweredLookupsCarryARecords) {
  std::size_t answered = 0;
  std::size_t aaaa = 0;
  for (const auto& d : town->dataset().dns) {
    if (!d.answered) continue;
    ++answered;
    if (d.qtype == dns::RrType::kAaaa) {
      ++aaaa;  // v6 rdata is not an A record; the log keeps A answers only
      continue;
    }
    if (d.rcode == dns::Rcode::kNoError) {
      EXPECT_FALSE(d.answers.empty()) << d.query;
      for (const auto& a : d.answers) EXPECT_FALSE(a.addr.is_unspecified());
    }
  }
  EXPECT_GT(answered, 0u);
  EXPECT_GT(aaaa, 0u);  // dual-stack hosts race AAAA lookups
}

TEST_F(TownTest, QueriesAreMostlyAnswered) {
  std::size_t answered = 0;
  const auto& ds = town->dataset();
  for (const auto& d : ds.dns) answered += d.answered ? 1 : 0;
  EXPECT_GT(static_cast<double>(answered) / static_cast<double>(ds.dns.size()), 0.98);
}

TEST_F(TownTest, TcpConnectionsMostlyCompleteNormally) {
  std::size_t sf = 0, tcp_total = 0;
  for (const auto& c : town->dataset().conns) {
    if (c.proto != Proto::kTcp) continue;
    ++tcp_total;
    sf += c.state == capture::ConnState::kSf ? 1 : 0;
  }
  ASSERT_GT(tcp_total, 0u);
  EXPECT_GT(static_cast<double>(sf) / static_cast<double>(tcp_total), 0.7);
}

TEST_F(TownTest, DeadNtpProducesFailedConns) {
  std::size_t dead_ntp = 0;
  for (const auto& c : town->dataset().conns) {
    if (c.resp_port == 123 && c.resp_bytes == 0) ++dead_ntp;
  }
  EXPECT_GT(dead_ntp, 0u);  // the §5.1 hard-coded dead server story
}

TEST_F(TownTest, HouseInventoryMatchesConfig) {
  EXPECT_EQ(town->houses().size(), town->config().houses);
  for (const auto& h : town->houses()) {
    EXPECT_GE(h.devices, 1u);
    EXPECT_FALSE(h.profile.empty());
  }
}

TEST_F(TownTest, GroundTruthCountersPopulated) {
  const auto& t = town->ground_truth();
  EXPECT_GT(t.fetches, 0u);
  EXPECT_GT(t.fetch_cache_hits, 0u);
  EXPECT_GT(t.fetch_blocked, 0u);
  EXPECT_GT(t.prefetches, 0u);
  EXPECT_GT(t.no_dns_conns, 0u);
  EXPECT_LE(t.fetch_cache_hits + t.fetch_blocked, t.fetches);
}

TEST_F(TownTest, DatasetSurvivesLogRoundTrip) {
  const auto& ds = town->dataset();
  std::stringstream conn_ss, dns_ss;
  capture::write_conn_log(conn_ss, ds.conns);
  capture::write_dns_log(dns_ss, ds.dns);
  const auto conns = capture::read_conn_log(conn_ss);
  const auto dns = capture::read_dns_log(dns_ss);
  ASSERT_EQ(conns.size(), ds.conns.size());
  ASSERT_EQ(dns.size(), ds.dns.size());
  for (std::size_t i = 0; i < std::min<std::size_t>(500, conns.size()); ++i) {
    EXPECT_EQ(conns[i].start, ds.conns[i].start);
    EXPECT_EQ(conns[i].orig_bytes, ds.conns[i].orig_bytes);
  }
}

TEST(TownDeterminism, SameSeedSameDataset) {
  Town a{small_town(7)};
  a.run();
  Town b{small_town(7)};
  b.run();
  ASSERT_EQ(a.dataset().conns.size(), b.dataset().conns.size());
  ASSERT_EQ(a.dataset().dns.size(), b.dataset().dns.size());
  for (std::size_t i = 0; i < a.dataset().conns.size(); ++i) {
    const auto& ca = a.dataset().conns[i];
    const auto& cb = b.dataset().conns[i];
    EXPECT_EQ(ca.start, cb.start);
    EXPECT_EQ(ca.orig_ip, cb.orig_ip);
    EXPECT_EQ(ca.resp_ip, cb.resp_ip);
    EXPECT_EQ(ca.orig_bytes, cb.orig_bytes);
    EXPECT_EQ(ca.resp_bytes, cb.resp_bytes);
  }
}

TEST(TownDeterminism, DifferentSeedsDiffer) {
  Town a{small_town(1)};
  a.run();
  Town b{small_town(2)};
  b.run();
  EXPECT_NE(a.dataset().conns.size(), b.dataset().conns.size());
}

TEST(TownIncremental, RunForAndHarvest) {
  Town t{small_town(9)};
  t.run_for(SimDuration::min(30));
  t.run_for(SimDuration::min(30));
  const auto ds = t.harvest();
  EXPECT_GT(ds.conns.size(), 100u);
  EXPECT_EQ(t.sim().now(), SimTime::origin() + SimDuration::hours(1));
}

[[nodiscard]] std::string serialize(const capture::Dataset& ds) {
  std::ostringstream ss;
  capture::write_conn_log(ss, ds.conns);
  capture::write_dns_log(ss, ds.dns);
  return ss.str();
}

TEST(TownIncremental, DatasetSurvivesHarvestAfterRun) {
  Town t{small_town(9)};
  t.run();
  const std::string before = serialize(t.dataset());
  ASSERT_FALSE(t.dataset().conns.empty());
  const capture::Dataset& again = t.harvest();
  EXPECT_EQ(&again, &t.dataset());
  EXPECT_EQ(serialize(t.dataset()), before);
}

TEST(TownIncremental, RecordSinkMustBeAttachedBeforeTheRunStarts) {
  struct Null final : capture::RecordSink {
    void on_conn(const capture::ConnRecord&) override {}
    void on_dns(const capture::DnsRecord&) override {}
  } sink;
  Town t{small_town(9)};
  t.attach_record_sink(&sink);  // before the first run_for: fine
  t.run_for(SimDuration::min(5));
  EXPECT_THROW(t.attach_record_sink(nullptr), std::logic_error);
  EXPECT_THROW(t.attach_record_sink(&sink), std::logic_error);

  Town u{small_town(9)};
  (void)u.harvest();
  EXPECT_THROW(u.attach_record_sink(&sink), std::logic_error);
}

}  // namespace
}  // namespace dnsctx::scenario
