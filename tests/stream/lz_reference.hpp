// dnsctx — reference lz compressor for exactness tests.
//
// A frozen copy of the lz codec's compressor with the plain match finder
// that tests every one of a bucket's 32 ways in order. The production
// codec (src/stream/codec.cpp) may find matches differently, but it must
// emit exactly these bytes for every input: spools are compared byte for
// byte across commits and platforms. test_lz_codec.cpp and the fuzz_lz
// harness compare against this function. Do not "fix" or tune it; a
// deliberate change to the lz bitstream replaces it wholesale.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dnsctx::stream::reference {

[[nodiscard]] inline std::string lz_compress(std::string_view raw) {
  constexpr std::size_t kMinMatch = 4;
  constexpr std::size_t kMaxHashBits = 17;
  constexpr std::size_t kMinHashBits = 6;
  constexpr std::size_t kHashWays = 32;
  constexpr std::size_t kLazySteps = 4;
  constexpr std::size_t kMaxOffset = 65'535;
  constexpr std::size_t kEndLiterals = 5;
  constexpr std::size_t kMinCompressInput = 13;

  auto load32 = [](const char* p) {
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
  };
  auto hash32 = [](std::uint32_t v, std::size_t bits) {
    return (v * 2654435761u) >> (32 - bits);
  };

  std::string out;
  const char* src = raw.data();
  const std::size_t n = raw.size();

  auto emit_run = [&out](std::size_t extra) {
    while (extra >= 255) {
      out.push_back(static_cast<char>(0xff));
      extra -= 255;
    }
    out.push_back(static_cast<char>(extra));
  };
  auto emit_sequence = [&](std::size_t lit_len, const char* lits, std::size_t match_len,
                           std::size_t offset) {
    const std::size_t ml = match_len > 0 ? match_len - kMinMatch : 0;
    const auto token = static_cast<char>(((lit_len < 15 ? lit_len : 15) << 4) |
                                         (ml < 15 ? ml : 15));
    out.push_back(token);
    if (lit_len >= 15) emit_run(lit_len - 15);
    out.append(lits, lit_len);
    if (match_len > 0) {
      out.push_back(static_cast<char>(offset & 0xff));
      out.push_back(static_cast<char>(offset >> 8));
      if (ml >= 15) emit_run(ml - 15);
    }
  };

  std::size_t anchor = 0;
  if (n >= kMinCompressInput) {
    std::size_t hash_bits = kMinHashBits;
    while (hash_bits < kMaxHashBits && (kHashWays << hash_bits) < 2 * n) ++hash_bits;
    std::vector<std::uint32_t> table(kHashWays << hash_bits, 0);
    std::vector<std::uint8_t> next_way(std::size_t{1} << hash_bits, 0);
    const std::size_t scan_end = n - (kMinCompressInput - 1);

    auto insert = [&](std::size_t pos) {
      const std::uint32_t h = hash32(load32(src + pos), hash_bits);
      table[h * kHashWays + next_way[h]] = static_cast<std::uint32_t>(pos + 1);
      next_way[h] = static_cast<std::uint8_t>((next_way[h] + 1) % kHashWays);
    };
    auto best_match = [&](std::size_t pos) -> std::pair<std::size_t, std::size_t> {
      const std::size_t max_len = n - kEndLiterals - pos;
      if (max_len < kMinMatch) return {0, 0};
      const std::uint32_t h = hash32(load32(src + pos), hash_bits);
      std::size_t best_len = 0;
      std::size_t best_off = 0;
      for (std::size_t w = 0; w < kHashWays; ++w) {
        const std::size_t cand = table[h * kHashWays + w];
        if (cand == 0) continue;
        const std::size_t c = cand - 1;
        if (c >= pos || pos - c > kMaxOffset) continue;
        if (best_len != 0 && src[c + best_len] != src[pos + best_len]) continue;
        if (load32(src + c) != load32(src + pos)) continue;
        std::size_t len = kMinMatch;
        while (len < max_len && src[c + len] == src[pos + len]) ++len;
        if (len > best_len) {
          best_len = len;
          best_off = pos - c;
        }
      }
      return {best_len, best_off};
    };

    std::size_t i = 0;
    while (i < scan_end) {
      auto [len, offset] = best_match(i);
      if (len == 0) {
        insert(i);
        ++i;
        continue;
      }
      for (std::size_t step = 0; step < kLazySteps && i + 1 < scan_end; ++step) {
        insert(i);
        const auto [next_len, next_offset] = best_match(i + 1);
        if (next_len <= len + 1) break;
        ++i;
        len = next_len;
        offset = next_offset;
      }
      while (i > anchor && i > offset && src[i - 1] == src[i - offset - 1]) {
        --i;
        ++len;
      }
      emit_sequence(i - anchor, src + anchor, len, offset);
      const std::size_t seed_end = std::min(i + len, scan_end);
      const std::size_t stride = len >= 64 ? 7 : 1;
      for (std::size_t j = i + 1; j < seed_end; j += stride) insert(j);
      i += len;
      anchor = i;
    }
  }
  emit_sequence(n - anchor, src + anchor, 0, 0);
  return out;
}

}  // namespace dnsctx::stream::reference
