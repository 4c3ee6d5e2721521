// dnsctx — lz codec exactness tests.
//
// The lz match finder may skip work (it masks out empty and
// out-of-window slots before comparing), but it must not change a byte
// of output: spools are compared byte for byte. Every case here checks
// `codec(kLz).compress` against the frozen plain-loop compressor in
// lz_reference.hpp and round-trips the result through decompress. The
// inputs aim at the places a faster finder can go wrong: the inclusive
// 65,535-byte window edge, long runs where every candidate ties, the
// 13-byte minimum input, and real segment bodies.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "scenario/scenario.hpp"
#include "stream/codec.hpp"
#include "stream/segment.hpp"
#include "stream/segment_v2.hpp"
#include "lz_reference.hpp"

namespace dnsctx::stream {
namespace {

/// Compress with the production codec, require the reference's exact
/// bytes and an exact round trip; returns the compressed block.
std::string expect_exact(const std::string& raw, const std::string& what) {
  const BlockCodec& lz = codec(SegmentCodec::kLz);
  std::string comp;
  lz.compress(raw, comp);
  const std::string want = reference::lz_compress(raw);
  EXPECT_EQ(comp.size(), want.size()) << what;
  EXPECT_TRUE(comp == want) << what << ": compressed bytes differ from the reference";
  std::string back;
  EXPECT_TRUE(lz.decompress(comp, raw.size(), back)) << what;
  EXPECT_TRUE(back == raw) << what << ": round trip changed the input";
  return comp;
}

/// LCG byte soup: 4-byte repeats are rare, so matches come only from
/// what a test plants.
std::string soup(std::size_t n, std::uint32_t seed) {
  std::string s(n, '\0');
  std::uint32_t x = seed;
  for (auto& ch : s) {
    x = x * 1664525u + 1013904223u;
    ch = static_cast<char>(x >> 24);
  }
  return s;
}

/// Offsets of every match in an lz block (walks the token stream).
std::set<std::size_t> match_offsets(const std::string& comp) {
  std::set<std::size_t> offsets;
  std::size_t p = 0;
  auto run = [&](std::size_t base) {
    std::size_t v = base;
    if (base == 15) {
      std::uint8_t b;
      do {
        b = static_cast<std::uint8_t>(comp.at(p++));
        v += b;
      } while (b == 0xff);
    }
    return v;
  };
  while (p < comp.size()) {
    const auto token = static_cast<std::uint8_t>(comp[p++]);
    p += run(token >> 4);
    if (p >= comp.size()) break;
    offsets.insert(static_cast<std::uint8_t>(comp.at(p)) |
                   (std::size_t{static_cast<std::uint8_t>(comp.at(p + 1))} << 8));
    p += 2;
    (void)run(token & 0x0f);
  }
  return offsets;
}

TEST(LzCodec, MatchesReferenceAtTheWindowEdge) {
  // A 48-byte chunk repeated exactly D bytes later. The window is
  // inclusive at 65,535: that repeat must be found, 65,536 must not.
  for (const std::size_t distance : {65'534u, 65'535u, 65'536u}) {
    std::string raw = soup(distance + 400, 0xC0FFEEu);
    const std::string chunk = "window-edge:0123456789abcdefghijklmnopqrstuvwxyz";
    raw.replace(100, chunk.size(), chunk);
    raw.replace(100 + distance, chunk.size(), chunk);
    const std::string comp = expect_exact(raw, "distance " + std::to_string(distance));
    const auto offsets = match_offsets(comp);
    EXPECT_EQ(offsets.count(distance), distance <= 65'535 ? 1u : 0u) << distance;
    EXPECT_TRUE(offsets.empty() || *offsets.rbegin() <= 65'535) << distance;
  }
}

TEST(LzCodec, MatchesReferenceOnLongZeroRun) {
  // One run-replicating match covers almost all of it: the extension
  // stops at the end-of-block limit, and the strided seeding skips.
  expect_exact(std::string(100 * 1024, '\0'), "100 KiB of zeros");
}

TEST(LzCodec, MatchesReferenceWhenCandidatesTie) {
  // Two earlier copies of a chunk both match the last copy up to the
  // end-of-block limit, so their lengths tie. The strict tie rule keeps
  // the lower way: the older copy, 4,060 bytes back, not the newer one
  // 2,030 bytes back (which the middle copy itself matched).
  const std::string chunk = "tie-break:0123456789abcdefghij";
  const std::string raw =
      soup(2'000, 5u) + chunk + soup(2'000, 6u) + chunk + soup(2'000, 7u) + chunk;
  const auto offsets = match_offsets(expect_exact(raw, "tied candidates"));
  EXPECT_EQ(offsets.count(2'000 + chunk.size() + 2'000 + chunk.size()), 1u);
}

TEST(LzCodec, MatchesReferenceAroundTheMinimumInput) {
  for (std::size_t n = 0; n <= 20; ++n) {
    expect_exact(std::string(n, 'a'), "run of " + std::to_string(n));
    std::string periodic;
    for (std::size_t k = 0; k < n; ++k) periodic += static_cast<char>('a' + k % 3);
    expect_exact(periodic, "period 3, length " + std::to_string(n));
    expect_exact(soup(n, static_cast<std::uint32_t>(n)), "soup of " + std::to_string(n));
  }
}

TEST(LzCodec, MatchesReferenceOnRandomAndPeriodicBytes) {
  for (const std::uint32_t seed : {1u, 2u, 3u}) {
    for (const std::size_t n : {1'000u, 70'000u, 200'000u}) {
      expect_exact(soup(n, seed), "soup seed " + std::to_string(seed));
    }
  }
  // A 4-letter alphabet fills buckets with live candidates of every
  // length, which exercises all 32 ways and the strict tie rule.
  std::string narrow = soup(150'000, 9u);
  for (auto& ch : narrow) ch = static_cast<char>('a' + (static_cast<unsigned char>(ch) & 3));
  expect_exact(narrow, "4-letter alphabet");
  for (const std::size_t period : {1u, 2u, 4u, 7u, 100u, 1'000u, 70'000u}) {
    const std::string unit = soup(period, static_cast<std::uint32_t>(period));
    std::string raw;
    while (raw.size() < 160'000) raw += unit;
    expect_exact(raw, "period " + std::to_string(period));
  }
}

/// The uncompressed v2 body of a segment built with SegmentCodec::kNone.
std::string body_of(const std::string& seg) {
  const std::string_view payload = std::string_view{seg}.substr(kSegmentHeaderBytes);
  EXPECT_EQ(static_cast<std::uint8_t>(payload[0]),
            static_cast<std::uint8_t>(SegmentCodec::kNone));
  return std::string{payload.substr(1 + 8)};
}

TEST(LzCodec, MatchesReferenceOnTownSegmentBodies) {
  scenario::ScenarioConfig cfg;
  cfg.houses = 12;
  cfg.duration = SimDuration::hours(4);
  cfg.seed = 3;
  scenario::Town town{cfg};
  town.run();
  const auto& ds = town.dataset();
  ASSERT_FALSE(ds.conns.empty());
  ASSERT_FALSE(ds.dns.empty());
  const std::string conn = body_of(build_segment_v2(ds.conns, SegmentCodec::kNone));
  const std::string dns = body_of(build_segment_v2(ds.dns, SegmentCodec::kNone));
  EXPECT_LT(expect_exact(conn, "conn body").size(), conn.size());
  EXPECT_LT(expect_exact(dns, "dns body").size(), dns.size());
}

}  // namespace
}  // namespace dnsctx::stream
