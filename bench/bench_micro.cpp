// Microbenchmarks (google-benchmark) for the performance-critical
// building blocks: DNS wire codec, cache operations, event dispatch,
// monitor packet handling, DN-Hunter pairing throughput, the spool's lz
// compressor and the NAT gateway's mapping table.
#include <benchmark/benchmark.h>

#include "analysis/classify.hpp"
#include "analysis/pairing.hpp"
#include "resolver/zonedb.hpp"
#include "capture/monitor.hpp"
#include "dns/cache.hpp"
#include "dns/codec.hpp"
#include "netsim/arena.hpp"
#include "netsim/event_queue.hpp"
#include "netsim/nat.hpp"
#include "netsim/sim.hpp"
#include "scenario/scenario.hpp"
#include "stream/codec.hpp"
#include "stream/segment.hpp"
#include "stream/segment_v2.hpp"
#include "util/rng.hpp"

namespace {

using namespace dnsctx;

dns::DnsMessage sample_response() {
  auto q = dns::DnsMessage::query(0x1234, dns::DomainName::must("www.example.com"));
  return dns::DnsMessage::response(
      q, {dns::ResourceRecord::a(dns::DomainName::must("www.example.com"),
                                 Ipv4Addr{93, 184, 216, 34}, 300),
          dns::ResourceRecord::a(dns::DomainName::must("www.example.com"),
                                 Ipv4Addr{93, 184, 216, 35}, 300)});
}

void BM_DnsEncode(benchmark::State& state) {
  const auto msg = sample_response();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::encode(msg));
  }
}
BENCHMARK(BM_DnsEncode);

void BM_DnsDecode(benchmark::State& state) {
  const auto wire = dns::encode(sample_response());
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::decode(wire));
  }
}
BENCHMARK(BM_DnsDecode);

void BM_CacheInsertLookup(benchmark::State& state) {
  dns::DnsCache cache{dns::CacheConfig{.capacity = 10'000}};
  const auto answers = sample_response().answers;
  std::vector<dns::DomainName> names;
  for (int i = 0; i < 1'000; ++i) {
    names.push_back(dns::DomainName::must("host" + std::to_string(i) + ".example.com"));
  }
  SimTime now = SimTime::origin();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& name = names[i % names.size()];
    cache.insert(name, dns::RrType::kA, answers, dns::Rcode::kNoError, now);
    benchmark::DoNotOptimize(cache.lookup(name, dns::RrType::kA, now));
    now += SimDuration::us(10);
    ++i;
  }
}
BENCHMARK(BM_CacheInsertLookup);

void BM_SimulatorDispatch(benchmark::State& state) {
  for (auto _ : state) {
    netsim::Simulator sim;
    for (int i = 0; i < 1'000; ++i) {
      sim.at(SimTime::from_us(i), [] {});
    }
    sim.run_to_completion();
    benchmark::DoNotOptimize(sim.dispatched());
  }
}
BENCHMARK(BM_SimulatorDispatch)->Unit(benchmark::kMicrosecond);

void BM_EventQueuePushPop(benchmark::State& state) {
  // Pure queue cost: the BM_SimulatorDispatch pattern (batch insert,
  // then drain in order) without Simulator bookkeeping.
  for (auto _ : state) {
    netsim::EventQueue q;
    for (int i = 0; i < 1'000; ++i) {
      q.push(SimTime::from_us(i), static_cast<std::uint64_t>(i), netsim::InlineAction{[] {}});
    }
    SimTime when;
    netsim::InlineAction action;
    while (q.pop_min(&when, &action)) benchmark::DoNotOptimize(when);
  }
}
BENCHMARK(BM_EventQueuePushPop)->Unit(benchmark::kMicrosecond);

void BM_EventQueueSteadyState(benchmark::State& state) {
  // Hold-and-churn at `range(0)` pending events: every pop schedules a
  // successor a pseudo-random delay ahead, the classic timer-wheel
  // workload (DNS timeouts, app think times). Spans wheel0, wheel1 and
  // occasional overflow insertions.
  const auto pending = static_cast<std::size_t>(state.range(0));
  netsim::EventQueue q;
  Rng rng{17};
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < pending; ++i) {
    q.push(SimTime::from_us(static_cast<std::int64_t>(rng.bounded(2'000'000))), seq++,
           netsim::InlineAction{[] {}});
  }
  SimTime when;
  netsim::InlineAction action;
  for (auto _ : state) {
    q.pop_min(&when, &action);
    const auto delay = 1 + static_cast<std::int64_t>(rng.bounded(2'000'000));
    q.push(when + SimDuration::us(delay), seq++, netsim::InlineAction{[] {}});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueSteadyState)->Arg(1'000)->Arg(100'000);

void BM_PacketArena(benchmark::State& state) {
  // Adopt/duplicate/release churn as the network fabric performs it:
  // one handle for the tap closure, one for the delivery closure.
  netsim::PacketArena arena;
  netsim::Packet proto;
  proto.src_ip = Ipv4Addr{100, 66, 1, 1};
  proto.dst_ip = Ipv4Addr{8, 8, 8, 8};
  proto.src_port = 40'000;
  proto.dst_port = 53;
  proto.proto = Proto::kUdp;
  for (auto _ : state) {
    netsim::PacketHandle h = arena.adopt(netsim::Packet{proto});
    netsim::PacketHandle tap = h;
    benchmark::DoNotOptimize(&*tap);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacketArena);

void BM_MonitorTcpConn(benchmark::State& state) {
  capture::DatasetSink sink;
  capture::Monitor monitor{capture::MonitorConfig{}, sink};
  const Ipv4Addr house{100, 66, 1, 1};
  const Ipv4Addr server{34, 1, 1, 1};
  std::int64_t t = 0;
  std::uint16_t port = 10'000;
  for (auto _ : state) {
    netsim::Packet syn;
    syn.src_ip = house;
    syn.dst_ip = server;
    syn.src_port = port;
    syn.dst_port = 443;
    syn.proto = Proto::kTcp;
    syn.tcp = netsim::TcpFlags{.syn = true};
    monitor.observe(SimTime::from_us(t), syn);
    netsim::Packet fin = syn;
    fin.tcp = netsim::TcpFlags{.ack = true, .fin = true};
    std::swap(fin.src_ip, fin.dst_ip);
    std::swap(fin.src_port, fin.dst_port);
    monitor.observe(SimTime::from_us(t + 10), fin);
    netsim::Packet fin2 = syn;
    fin2.tcp = netsim::TcpFlags{.ack = true, .fin = true};
    monitor.observe(SimTime::from_us(t + 20), fin2);
    t += 100;
    port = port == 60'000 ? std::uint16_t{10'000} : static_cast<std::uint16_t>(port + 1);
  }
  benchmark::DoNotOptimize(monitor.packets_seen());
}
BENCHMARK(BM_MonitorTcpConn);

void BM_PairingThroughput(benchmark::State& state) {
  // Build a dataset of `n` lookups + conns once; measure full pairing.
  const auto n = static_cast<std::size_t>(state.range(0));
  capture::Dataset ds;
  Rng rng{7};
  const Ipv4Addr house{100, 66, 1, 1};
  for (std::size_t i = 0; i < n; ++i) {
    const Ipv4Addr server{34, 1, static_cast<std::uint8_t>((i / 200) % 200),
                          static_cast<std::uint8_t>(1 + i % 200)};
    capture::DnsRecord d;
    d.ts = SimTime::from_us(static_cast<std::int64_t>(i) * 50'000);
    d.duration = SimDuration::ms(2);
    d.client_ip = house;
    d.resolver_ip = Ipv4Addr{100, 66, 250, 1};
    d.query = "h" + std::to_string(i % 500) + ".com";
    d.answered = true;
    d.answers = {{server, 300}};
    ds.dns.push_back(d);
    capture::ConnRecord c;
    c.start = d.response_time() + SimDuration::ms(static_cast<std::int64_t>(rng.bounded(200)));
    c.duration = SimDuration::sec(1);
    c.orig_ip = house;
    c.resp_ip = server;
    c.orig_port = 10'000;
    c.resp_port = 443;
    ds.conns.push_back(c);
  }
  std::sort(ds.conns.begin(), ds.conns.end(),
            [](const auto& a, const auto& b) { return a.start < b.start; });
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::pair_connections(ds));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_PairingThroughput)->Arg(1'000)->Arg(10'000)->Unit(benchmark::kMillisecond);

void BM_ZoneDbBuild(benchmark::State& state) {
  resolver::ZoneDbConfig cfg;
  cfg.seed = 3;
  for (auto _ : state) {
    resolver::ZoneDb db{cfg};
    benchmark::DoNotOptimize(db.size());
  }
}
BENCHMARK(BM_ZoneDbBuild)->Unit(benchmark::kMillisecond);

void BM_ClassifyThroughput(benchmark::State& state) {
  // Reuse the pairing-bench dataset shape.
  const std::size_t n = 10'000;
  capture::Dataset ds;
  Rng rng{13};
  const Ipv4Addr house{100, 66, 1, 1};
  for (std::size_t i = 0; i < n; ++i) {
    const Ipv4Addr server{34, 1, static_cast<std::uint8_t>((i / 200) % 200),
                          static_cast<std::uint8_t>(1 + i % 200)};
    capture::DnsRecord d;
    d.ts = SimTime::from_us(static_cast<std::int64_t>(i) * 50'000);
    d.duration = SimDuration::from_ms(rng.uniform(1.0, 60.0));
    d.client_ip = house;
    d.resolver_ip = Ipv4Addr{100, 66, 250, 1};
    d.query = "h" + std::to_string(i % 500) + ".com";
    d.answered = true;
    d.answers = {{server, 300}};
    ds.dns.push_back(d);
    capture::ConnRecord c;
    c.start = d.response_time() + SimDuration::ms(static_cast<std::int64_t>(rng.bounded(200)));
    c.duration = SimDuration::sec(1);
    c.orig_ip = house;
    c.resp_ip = server;
    c.orig_port = 10'000;
    c.resp_port = 443;
    ds.conns.push_back(c);
  }
  std::sort(ds.conns.begin(), ds.conns.end(),
            [](const auto& a, const auto& b) { return a.start < b.start; });
  const auto pairing = analysis::pair_connections(ds);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::classify_connections(ds, pairing));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_ClassifyThroughput)->Unit(benchmark::kMillisecond);

void BM_ZipfSample(benchmark::State& state) {
  const ZipfSampler zipf{10'000, 0.95};
  Rng rng{3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample);

void BM_LzCompressSegment(benchmark::State& state) {
  // The uncompressed v2 dns body of a small Town run (~350 KB): what a
  // spool sealing thread hands the lz codec for every dns segment.
  static const std::string body = [] {
    scenario::ScenarioConfig cfg;
    cfg.houses = 12;
    cfg.duration = SimDuration::hours(4);
    cfg.seed = 3;
    scenario::Town town{cfg};
    town.run();
    const std::string seg =
        stream::build_segment_v2(town.dataset().dns, stream::SegmentCodec::kNone);
    return seg.substr(stream::kSegmentHeaderBytes + 1 + 8);  // codec id, raw length
  }();
  const stream::BlockCodec& lz = stream::codec(stream::SegmentCodec::kLz);
  std::string out;
  for (auto _ : state) {
    lz.compress(body, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(body.size()));
  state.counters["ratio"] = static_cast<double>(out.size()) / static_cast<double>(body.size());
}
BENCHMARK(BM_LzCompressSegment)->Unit(benchmark::kMillisecond);

void BM_NatManyFlowsOneDevice(benchmark::State& state) {
  // One device opens `flows` TCP and as many UDP flows through its
  // gateway, sends three more packets on each, and the run drains until
  // the idle sweep has released every mapping: map_outbound's allocate
  // and lookup paths and release_mapping, all on one device's keys.
  struct Sink : netsim::Host {
    void receive(const netsim::Packet&) override {}
  };
  const auto flows = static_cast<int>(state.range(0));
  constexpr Ipv4Addr kDevice{192, 168, 1, 10};
  netsim::Simulator sim;
  netsim::Network net{sim, netsim::LatencyModel{}, 1};
  Sink wan_side, device;
  net.set_default_host(&wan_side);
  netsim::HouseGateway gateway{sim, net, Ipv4Addr{100, 66, 2, 1}, 7, SimDuration::zero()};
  gateway.attach_device(kDevice, &device);
  for (auto _ : state) {
    for (int pass = 0; pass < 4; ++pass) {
      for (int k = 0; k < flows; ++k) {
        for (const Proto proto : {Proto::kTcp, Proto::kUdp}) {
          netsim::Packet p;
          p.src_ip = kDevice;
          p.src_port = static_cast<std::uint16_t>(49'152 + k);
          p.dst_ip = Ipv4Addr{34, 9, 9, 9};
          p.dst_port = 443;
          p.proto = proto;
          gateway.from_device(std::move(p));
        }
      }
    }
    sim.run_to_completion();
    benchmark::DoNotOptimize(gateway.active_mappings());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4 * 2 * flows);
}
BENCHMARK(BM_NatManyFlowsOneDevice)->Arg(256)->Arg(4'000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
