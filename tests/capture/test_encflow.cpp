// dnsctx — encrypted-flow metadata capture tests: the monitor's
// EncFlowRecord accumulator (honest vantage point — sizes and timing
// only), the TruthTap ground-truth collector, and the encflow.log text
// round-trip.
#include <gtest/gtest.h>

#include <sstream>

#include "capture/logio.hpp"
#include "capture/monitor.hpp"
#include "capture/truth_tap.hpp"
#include "netsim/transport.hpp"

namespace dnsctx::capture {
namespace {

constexpr Ipv4Addr kClient{100, 66, 3, 7};    // inside the monitored net
constexpr Ipv4Addr kResolver{100, 66, 250, 1};
constexpr Ipv4Addr kWebServer{93, 184, 216, 34};

[[nodiscard]] netsim::Packet tcp_packet(Ipv4Addr src, Ipv4Addr dst, std::uint16_t sport,
                                        std::uint16_t dport, netsim::TcpFlags flags,
                                        std::uint64_t payload = 0) {
  netsim::Packet p;
  p.src_ip = src;
  p.dst_ip = dst;
  p.src_port = sport;
  p.dst_port = dport;
  p.proto = Proto::kTcp;
  p.tcp = flags;
  p.payload_bytes = payload;
  return p;
}

/// Play one complete DoT-shaped TCP/853 flow through a tap: handshake,
/// hello exchange, one padded query/response, FIN close.
template <typename Tap>
void play_dot_flow(Tap& tap, std::uint16_t client_port = 30'000) {
  const auto& traits = netsim::traits_for(netsim::Transport::kDoT);
  SimTime t = SimTime::from_us(1'000'000);
  const auto step = [&t] {
    t = t + SimDuration::ms(10);
    return t;
  };
  const auto up = [&](netsim::TcpFlags f, std::uint64_t bytes) {
    tap.observe(step(), tcp_packet(kClient, kResolver, client_port, 853, f, bytes));
  };
  const auto down = [&](netsim::TcpFlags f, std::uint64_t bytes) {
    tap.observe(step(), tcp_packet(kResolver, kClient, 853, client_port, f, bytes));
  };
  up({.syn = true}, 0);
  down({.syn = true, .ack = true}, 0);
  up({.ack = true}, traits.client_hello_bytes);
  down({.ack = true}, traits.server_hello_bytes);
  // One RFC 8467-padded query and response (sizes include framing).
  up({.ack = true}, 128 + traits.per_message_overhead);
  down({.ack = true}, 468 + traits.per_message_overhead);
  up({.ack = true, .fin = true}, 0);
  down({.ack = true, .fin = true}, 0);
}

/// Flush `monitor` and return what it emitted into `sink`, time-sorted.
[[nodiscard]] Dataset harvest(Monitor& monitor, DatasetSink& sink, SimTime end) {
  monitor.flush(end);
  sort_by_time(sink.ds);
  return std::move(sink.ds);
}

TEST(MonitorEncFlow, MetadataCaptureIsOffByDefault) {
  EXPECT_FALSE(MonitorConfig{}.observe_encrypted_metadata);
  DatasetSink sink;
  Monitor monitor{MonitorConfig{}, sink};
  play_dot_flow(monitor);
  const Dataset ds = harvest(monitor, sink, SimTime::from_us(10'000'000));
  EXPECT_EQ(ds.conns.size(), 1u);  // the flow still logs as a connection
  EXPECT_TRUE(ds.encflows.empty());
}

TEST(MonitorEncFlow, DotFlowYieldsOneMetadataRecord) {
  MonitorConfig cfg;
  cfg.observe_encrypted_metadata = true;
  DatasetSink sink;
  Monitor monitor{cfg, sink};
  play_dot_flow(monitor);
  const Dataset ds = harvest(monitor, sink, SimTime::from_us(10'000'000));
  ASSERT_EQ(ds.encflows.size(), 1u);
  const auto& traits = netsim::traits_for(netsim::Transport::kDoT);
  const EncFlowRecord& e = ds.encflows[0];
  EXPECT_EQ(e.client_ip, kClient);
  EXPECT_EQ(e.server_ip, kResolver);
  EXPECT_EQ(e.server_port, 853);
  EXPECT_EQ(e.up_msgs, 2u);    // hello + query (control segments don't count)
  EXPECT_EQ(e.down_msgs, 2u);
  EXPECT_EQ(e.first_up_bytes, traits.client_hello_bytes);
  EXPECT_EQ(e.first_down_bytes, traits.server_hello_bytes);
  // Every post-hello message sat exactly on a padding block.
  EXPECT_EQ(e.pad_aligned_up, 1u);
  EXPECT_EQ(e.pad_aligned_down, 1u);
}

TEST(MonitorEncFlow, OrdinaryWebFlowIsRecordedButUnpadded) {
  MonitorConfig cfg;
  cfg.observe_encrypted_metadata = true;
  DatasetSink sink;
  Monitor monitor{cfg, sink};
  SimTime t = SimTime::from_us(500'000);
  const auto step = [&t] {
    t = t + SimDuration::ms(5);
    return t;
  };
  monitor.observe(step(), tcp_packet(kClient, kWebServer, 40'000, 443, {.syn = true}));
  monitor.observe(step(), tcp_packet(kWebServer, kClient, 443, 40'000,
                                     {.syn = true, .ack = true}));
  monitor.observe(step(), tcp_packet(kClient, kWebServer, 40'000, 443, {.ack = true}, 517));
  monitor.observe(step(), tcp_packet(kWebServer, kClient, 443, 40'000, {.ack = true}, 4'133));
  monitor.observe(step(),
                  tcp_packet(kClient, kWebServer, 40'000, 443, {.ack = true}, 777));
  monitor.observe(step(),
                  tcp_packet(kWebServer, kClient, 443, 40'000, {.ack = true}, 31'337));
  monitor.observe(step(),
                  tcp_packet(kClient, kWebServer, 40'000, 443, {.ack = true, .fin = true}));
  monitor.observe(step(),
                  tcp_packet(kWebServer, kClient, 443, 40'000, {.ack = true, .fin = true}));
  const Dataset ds = harvest(monitor, sink, SimTime::from_us(10'000'000));
  ASSERT_EQ(ds.encflows.size(), 1u);
  EXPECT_EQ(ds.encflows[0].server_port, 443);
  EXPECT_EQ(ds.encflows[0].pad_aligned_up, 0u);   // 777 is on no DNS block
  EXPECT_EQ(ds.encflows[0].pad_aligned_down, 0u);
}

TEST(MonitorEncFlow, NonTlsPortsProduceNoMetadata) {
  MonitorConfig cfg;
  cfg.observe_encrypted_metadata = true;
  DatasetSink sink;
  Monitor monitor{cfg, sink};
  SimTime t = SimTime::from_us(500'000);
  monitor.observe(t, tcp_packet(kClient, kWebServer, 40'000, 8'080, {.syn = true}));
  t = t + SimDuration::ms(5);
  monitor.observe(t, tcp_packet(kClient, kWebServer, 40'000, 8'080, {.ack = true}, 999));
  const Dataset ds = harvest(monitor, sink, SimTime::from_us(10'000'000));
  EXPECT_EQ(ds.conns.size(), 1u);
  EXPECT_TRUE(ds.encflows.empty());
}

TEST(TruthTap, ReadsIntentAndDedupesByTuple) {
  TruthTap tap{{kResolver}};
  auto syn = tcp_packet(kClient, kWebServer, 41'000, 443, {.syn = true});
  syn.intent = netsim::TransferIntent{};
  syn.intent->true_class = netsim::TrueClass::kLocalCache;
  tap.observe(SimTime::from_us(100), syn);
  tap.observe(SimTime::from_us(200), syn);  // retransmission: same tuple
  ASSERT_EQ(tap.flows().size(), 1u);
  EXPECT_EQ(tap.flows()[0].cls, netsim::TrueClass::kLocalCache);
  EXPECT_EQ(tap.flows()[0].start, SimTime::from_us(100));
  EXPECT_EQ(tap.flows()[0].tuple, syn.tuple());
}

TEST(TruthTap, ClassifiesResolverChannelsAsDnsTransport) {
  TruthTap tap{{kResolver}};
  // Stub channel to a resolver on 853: no intent, but it IS the DNS.
  tap.observe(SimTime::from_us(100),
              tcp_packet(kClient, kResolver, 41'001, 853, {.syn = true}));
  // Same shape to a non-resolver address: just intent-less traffic.
  tap.observe(SimTime::from_us(200),
              tcp_packet(kClient, kWebServer, 41'002, 443, {.syn = true}));
  ASSERT_EQ(tap.flows().size(), 2u);
  EXPECT_EQ(tap.flows()[0].cls, netsim::TrueClass::kDnsTransport);
  EXPECT_EQ(tap.flows()[1].cls, netsim::TrueClass::kNoDns);
}

TEST(TruthTap, IgnoresPort53AndMidstreamTcp) {
  TruthTap tap{{kResolver}};
  netsim::Packet udp;
  udp.src_ip = kClient;
  udp.dst_ip = kResolver;
  udp.src_port = 30'001;
  udp.dst_port = 53;
  udp.proto = Proto::kUdp;
  tap.observe(SimTime::from_us(100), udp);  // DNS-log traffic, not a conn
  tap.observe(SimTime::from_us(200),
              tcp_packet(kClient, kWebServer, 41'003, 443, {.ack = true}, 100));
  EXPECT_TRUE(tap.flows().empty());
}

TEST(EncFlowLog, TextRoundTrip) {
  std::vector<EncFlowRecord> flows(2);
  flows[0].start = SimTime::from_us(1'234'567);
  flows[0].duration = SimDuration::ms(890);
  flows[0].client_ip = kClient;
  flows[0].server_ip = kResolver;
  flows[0].client_port = 30'000;
  flows[0].server_port = 853;
  flows[0].up_msgs = 5;
  flows[0].down_msgs = 6;
  flows[0].up_bytes = 1'111;
  flows[0].down_bytes = 22'222;
  flows[0].first_up_bytes = 289;
  flows[0].first_down_bytes = 3'295;
  flows[0].pad_aligned_up = 4;
  flows[0].pad_aligned_down = 5;
  flows[1].start = SimTime::from_us(2'000'000);
  flows[1].client_ip = kClient;
  flows[1].server_ip = kWebServer;
  flows[1].server_port = 443;

  std::stringstream ss;
  write_encflow_log(ss, flows);
  const auto back = read_encflow_log(ss, "test");
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].start, flows[0].start);
  EXPECT_EQ(back[0].duration, flows[0].duration);
  EXPECT_EQ(back[0].client_ip, flows[0].client_ip);
  EXPECT_EQ(back[0].server_ip, flows[0].server_ip);
  EXPECT_EQ(back[0].client_port, flows[0].client_port);
  EXPECT_EQ(back[0].server_port, flows[0].server_port);
  EXPECT_EQ(back[0].up_msgs, flows[0].up_msgs);
  EXPECT_EQ(back[0].down_msgs, flows[0].down_msgs);
  EXPECT_EQ(back[0].up_bytes, flows[0].up_bytes);
  EXPECT_EQ(back[0].down_bytes, flows[0].down_bytes);
  EXPECT_EQ(back[0].first_up_bytes, flows[0].first_up_bytes);
  EXPECT_EQ(back[0].first_down_bytes, flows[0].first_down_bytes);
  EXPECT_EQ(back[0].pad_aligned_up, flows[0].pad_aligned_up);
  EXPECT_EQ(back[0].pad_aligned_down, flows[0].pad_aligned_down);
  EXPECT_EQ(back[1].server_port, 443);
}

TEST(EncFlowLog, MalformedLineNamesTheSource) {
  std::stringstream ss{"not a record\n"};
  try {
    (void)read_encflow_log(ss, "enc.log");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("enc.log"), std::string::npos);
  }
}

}  // namespace
}  // namespace dnsctx::capture
