// Unit tests for the house gateway NAT.
#include <gtest/gtest.h>

#include "netsim/nat.hpp"
#include "util/rng.hpp"

namespace dnsctx::netsim {
namespace {

constexpr Ipv4Addr kHouseExternal{100, 66, 2, 1};
constexpr Ipv4Addr kDeviceA{192, 168, 1, 10};
constexpr Ipv4Addr kDeviceB{192, 168, 1, 11};
constexpr Ipv4Addr kServer{34, 9, 9, 9};

struct RecordingHost : Host {
  std::vector<Packet> received;
  void receive(const Packet& p) override { received.push_back(p); }
};

class NatTest : public ::testing::Test {
 protected:
  NatTest()
      : net{sim, LatencyModel{}, 1},
        gateway{sim, net, kHouseExternal, 7, SimDuration::zero()} {
    net.set_default_host(&wan_side);
    gateway.attach_device(kDeviceA, &dev_a);
    gateway.attach_device(kDeviceB, &dev_b);
  }

  [[nodiscard]] static Packet from(Ipv4Addr src, std::uint16_t sport, Ipv4Addr dst,
                                   std::uint16_t dport, Proto proto = Proto::kTcp) {
    Packet p;
    p.src_ip = src;
    p.src_port = sport;
    p.dst_ip = dst;
    p.dst_port = dport;
    p.proto = proto;
    return p;
  }

  Simulator sim;
  Network net;
  HouseGateway gateway;
  RecordingHost wan_side;
  RecordingHost dev_a;
  RecordingHost dev_b;
};

TEST_F(NatTest, OutboundRewritesSource) {
  gateway.from_device(from(kDeviceA, 10'000, kServer, 443));
  sim.run_to_completion();
  ASSERT_EQ(wan_side.received.size(), 1u);
  const Packet& p = wan_side.received[0];
  EXPECT_EQ(p.src_ip, kHouseExternal);
  EXPECT_NE(p.src_port, 10'000);  // translated
  EXPECT_EQ(p.dst_ip, kServer);
  EXPECT_EQ(p.dst_port, 443);
}

TEST_F(NatTest, MappingIsStablePerFlow) {
  gateway.from_device(from(kDeviceA, 10'000, kServer, 443));
  gateway.from_device(from(kDeviceA, 10'000, kServer, 443));
  sim.run_to_completion();
  ASSERT_EQ(wan_side.received.size(), 2u);
  EXPECT_EQ(wan_side.received[0].src_port, wan_side.received[1].src_port);
}

TEST_F(NatTest, DistinctFlowsGetDistinctPorts) {
  gateway.from_device(from(kDeviceA, 10'000, kServer, 443));
  gateway.from_device(from(kDeviceB, 10'000, kServer, 443));  // same internal port!
  // Stop short of the idle limit: run_to_completion would also run the
  // sweep that reclaims these (idle) mappings.
  sim.run_until(SimTime::origin() + SimDuration::min(1));
  ASSERT_EQ(wan_side.received.size(), 2u);
  EXPECT_NE(wan_side.received[0].src_port, wan_side.received[1].src_port);
  EXPECT_EQ(gateway.active_mappings(), 2u);
}

TEST_F(NatTest, InboundTranslatesBackToRightDevice) {
  gateway.from_device(from(kDeviceB, 12'345, kServer, 443));
  sim.run_until(SimTime::origin() + SimDuration::min(1));
  ASSERT_EQ(wan_side.received.size(), 1u);
  const std::uint16_t ext_port = wan_side.received[0].src_port;

  Packet reply = from(kServer, 443, kHouseExternal, ext_port);
  gateway.receive(reply);
  sim.run_until(SimTime::origin() + SimDuration::min(2));
  ASSERT_EQ(dev_b.received.size(), 1u);
  EXPECT_EQ(dev_b.received[0].dst_ip, kDeviceB);
  EXPECT_EQ(dev_b.received[0].dst_port, 12'345);
  EXPECT_TRUE(dev_a.received.empty());
}

TEST_F(NatTest, UnsolicitedInboundDropped) {
  gateway.receive(from(kServer, 443, kHouseExternal, 5'555));
  sim.run_to_completion();
  EXPECT_TRUE(dev_a.received.empty());
  EXPECT_TRUE(dev_b.received.empty());
}

TEST_F(NatTest, UdpAndTcpMappingsAreSeparate) {
  gateway.from_device(from(kDeviceA, 9'999, kServer, 53, Proto::kUdp));
  gateway.from_device(from(kDeviceA, 9'999, kServer, 53, Proto::kTcp));
  sim.run_until(SimTime::origin() + SimDuration::min(1));
  EXPECT_EQ(gateway.active_mappings(), 2u);
}

TEST_F(NatTest, IdleMappingsAreSweptAfterIdleLimit) {
  gateway.from_device(from(kDeviceA, 10'000, kServer, 443));
  sim.run_until(SimTime::origin() + SimDuration::min(1));
  EXPECT_EQ(gateway.active_mappings(), 1u);
  sim.run_to_completion();  // runs the periodic sweep past the idle limit
  EXPECT_EQ(gateway.active_mappings(), 0u);
}

TEST_F(NatTest, DnsInterceptConsumesOutboundQueries) {
  int intercepted = 0;
  gateway.set_dns_intercept([&](const Packet& p) {
    ++intercepted;
    EXPECT_EQ(p.src_ip, kDeviceA);  // pre-NAT view
    return true;                    // consume
  });
  gateway.from_device(from(kDeviceA, 9'999, kServer, 53, Proto::kUdp));
  sim.run_to_completion();
  EXPECT_EQ(intercepted, 1);
  EXPECT_TRUE(wan_side.received.empty());
}

TEST_F(NatTest, DnsInterceptCanDecline) {
  gateway.set_dns_intercept([](const Packet&) { return false; });
  gateway.from_device(from(kDeviceA, 9'999, kServer, 53, Proto::kUdp));
  sim.run_to_completion();
  EXPECT_EQ(wan_side.received.size(), 1u);
}

TEST_F(NatTest, InterceptIgnoresNonDnsTraffic) {
  gateway.set_dns_intercept([](const Packet&) { return true; });
  gateway.from_device(from(kDeviceA, 9'999, kServer, 443, Proto::kTcp));
  sim.run_to_completion();
  EXPECT_EQ(wan_side.received.size(), 1u);
}

TEST_F(NatTest, DeliverToDeviceBypassesWan) {
  Packet p = from(kServer, 53, kDeviceA, 7'777, Proto::kUdp);
  gateway.deliver_to_device(p);
  sim.run_to_completion();
  ASSERT_EQ(dev_a.received.size(), 1u);
  EXPECT_TRUE(wan_side.received.empty());
}

TEST_F(NatTest, StaleMappingsAreRecycled) {
  // Exhaust-ish: allocate many mappings, advance beyond the idle limit,
  // and confirm new flows still get ports (old ones reclaimed).
  for (std::uint16_t i = 0; i < 200; ++i) {
    gateway.from_device(from(kDeviceA, static_cast<std::uint16_t>(20'000 + i), kServer, 443));
  }
  sim.run_to_completion();
  sim.at(sim.now() + SimDuration::hours(1), [] {});
  sim.run_to_completion();
  gateway.from_device(from(kDeviceA, 30'001, kServer, 443));
  sim.run_to_completion();
  EXPECT_EQ(wan_side.received.size(), 201u);
}

TEST_F(NatTest, RandomTrafficStormUpholdsInvariants) {
  // Fuzz-lite: random in/outbound packets must never crash the gateway,
  // and every translated packet must carry the house external address.
  Rng rng{99};
  for (int i = 0; i < 5'000; ++i) {
    if (rng.bernoulli(0.7)) {
      const Ipv4Addr dev = rng.bernoulli(0.5) ? kDeviceA : kDeviceB;
      gateway.from_device(from(dev, static_cast<std::uint16_t>(1'024 + rng.bounded(60'000)),
                               kServer, static_cast<std::uint16_t>(1 + rng.bounded(65'000)),
                               rng.bernoulli(0.5) ? Proto::kTcp : Proto::kUdp));
    } else {
      gateway.receive(from(kServer, static_cast<std::uint16_t>(1 + rng.bounded(65'000)),
                           kHouseExternal,
                           static_cast<std::uint16_t>(1'024 + rng.bounded(60'000)),
                           rng.bernoulli(0.5) ? Proto::kTcp : Proto::kUdp));
    }
    if (i % 512 == 0) sim.run_to_completion();
  }
  sim.run_to_completion();
  for (const auto& p : wan_side.received) {
    EXPECT_EQ(p.src_ip, kHouseExternal);
    EXPECT_GE(p.src_port, 1'024);
  }
  // Inbound deliveries only ever reach attached devices.
  for (const auto& p : dev_a.received) EXPECT_EQ(p.dst_ip, kDeviceA);
  for (const auto& p : dev_b.received) EXPECT_EQ(p.dst_ip, kDeviceB);
}

TEST(NatInternalKeyHash, OneDevicesPortsSpreadOverTheTable) {
  // One device's mappings differ only in port and protocol. A hash whose
  // low bits never see the port piles them onto a few home slots, and
  // every map_outbound then walks that run.
  util::FlatMap<NatInternalKey, std::uint32_t, NatInternalKeyHash> table;
  std::uint32_t next = 0;
  for (std::uint16_t port = 49'152; port < 49'152 + 4'000; ++port) {
    for (const Proto proto : {Proto::kTcp, Proto::kUdp}) {
      table[NatInternalKey{kDeviceA, port, proto}] = next++;
    }
  }
  ASSERT_EQ(table.size(), 8'000u);
  EXPECT_LE(table.max_probe_length(), 32u);
}

}  // namespace
}  // namespace dnsctx::netsim
