#include "stream/codec.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "util/strings.hpp"

namespace dnsctx::stream {

// ---- varints ---------------------------------------------------------------

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

std::optional<std::uint64_t> get_varint(const char** p, const char* end) {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 70; shift += 7) {
    if (*p >= end) return std::nullopt;
    const auto byte = static_cast<std::uint8_t>(*(*p)++);
    // The 10th byte may only carry the final bit of a 64-bit value.
    if (shift == 63 && byte > 1) return std::nullopt;
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
  }
  return std::nullopt;
}

// ---- lz codec --------------------------------------------------------------

namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxHashBits = 17;
constexpr std::size_t kMinHashBits = 6;
constexpr std::size_t kHashWays = 32;
constexpr std::size_t kLazySteps = 4;
constexpr std::size_t kMaxOffset = 65'535;
// LZ4-style end-of-block rules: the last 5 bytes are always literals and
// matches must not reach into them; inputs shorter than 13 bytes are
// emitted as a single literal run.
constexpr std::size_t kEndLiterals = 5;
constexpr std::size_t kMinCompressInput = 13;
// Table slots hold pos + 1 in 32 bits, and window_mask moves positions
// into signed 32-bit SSE2 lanes, so every position of a block must stay
// below 2^31. Segment bodies are orders of magnitude smaller; compress()
// rejects a larger block instead of truncating positions.
constexpr std::size_t kMaxCompressInput = (std::size_t{1} << 31) - 1;

[[nodiscard]] std::uint32_t load32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

[[nodiscard]] std::uint32_t hash32(std::uint32_t v, std::size_t bits) {
  return (v * 2654435761u) >> (32 - bits);
}

#if defined(__SSE2__)
static_assert(kHashWays == 32, "window_mask builds one bit per way in a uint32");

// Bit w is set iff way w of `bucket` holds a candidate c (stored as
// c + 1, 0 = empty) inside the match window, 1 <= pos - c <= kMaxOffset.
// Live stored values are exactly [lo, pos], so one unsigned range check
// per lane, (stored - lo) < span, covers "non-empty" and both window
// edges; SSE2 has no unsigned compare, so both sides are bias-flipped
// into a signed _mm_cmpgt_epi32.
[[nodiscard]] std::uint32_t window_mask(const std::uint32_t* bucket, std::size_t pos) {
  const auto p1 = static_cast<std::uint32_t>(pos + 1);
  const std::uint32_t lo = p1 > kMaxOffset ? p1 - static_cast<std::uint32_t>(kMaxOffset) : 1;
  const std::uint32_t span = p1 - lo;
  const __m128i bias = _mm_set1_epi32(INT32_MIN);
  const __m128i vlo = _mm_set1_epi32(static_cast<int>(lo));
  const __m128i vspan = _mm_xor_si128(_mm_set1_epi32(static_cast<int>(span)), bias);
  std::uint32_t mask = 0;
  for (std::size_t q = 0; q < kHashWays / 4; ++q) {
    const __m128i stored =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(bucket + 4 * q));
    const __m128i rel = _mm_xor_si128(_mm_sub_epi32(stored, vlo), bias);
    const int live = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpgt_epi32(vspan, rel)));
    mask |= static_cast<std::uint32_t>(live) << (4 * q);
  }
  return mask;
}
#endif

class NoneCodec final : public BlockCodec {
 public:
  [[nodiscard]] SegmentCodec id() const override { return SegmentCodec::kNone; }
  [[nodiscard]] std::string_view name() const override { return "none"; }

  void compress(std::string_view raw, std::string& out) const override {
    out.assign(raw.data(), raw.size());
  }

  [[nodiscard]] bool decompress(std::string_view comp, std::size_t raw_len,
                                std::string& out) const override {
    if (comp.size() != raw_len) return false;
    out.assign(comp.data(), comp.size());
    return true;
  }
};

class LzCodec final : public BlockCodec {
 public:
  [[nodiscard]] SegmentCodec id() const override { return SegmentCodec::kLz; }
  [[nodiscard]] std::string_view name() const override { return "lz"; }

  void compress(std::string_view raw, std::string& out) const override {
    if (raw.size() > kMaxCompressInput) {
      throw std::length_error{
          strfmt("lz: %zu-byte block exceeds the %zu-byte limit", raw.size(),
                 kMaxCompressInput)};
    }
    out.clear();
    const char* src = raw.data();
    const std::size_t n = raw.size();

    auto emit_run = [&out](std::size_t extra) {
      while (extra >= 255) {
        out.push_back(static_cast<char>(0xff));
        extra -= 255;
      }
      out.push_back(static_cast<char>(extra));
    };
    // match_len == 0 marks the final literals-only sequence.
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
      // Hash table sized to the input (≈2 slots per position, capped)
      // so small blocks don't pay for — or zero — a table built for
      // megabyte bodies. kHashWays candidates per bucket, replaced
      // round-robin and stored +1 so 0 means "empty slot": probing a
      // deep bucket and keeping the longest match beats the classic
      // single-slot table noticeably on the repetitive varint columns
      // this codec exists for.
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
      // Longest match at `pos` over the bucket's candidates; {0, 0} if none.
      // Exactness contract: candidates are tried in ascending way order
      // and only a strictly longer match replaces the best, so ties go
      // to the lowest way. Both finders below visit the same in-window
      // ways in the same order and so return the same match.
      auto best_match = [&](std::size_t pos) -> std::pair<std::size_t, std::size_t> {
        const std::size_t max_len = n - kEndLiterals - pos;
        if (max_len < kMinMatch) return {0, 0};
        const std::uint32_t h = hash32(load32(src + pos), hash_bits);
        const std::uint32_t* bucket = table.data() + h * kHashWays;
        std::size_t best_len = 0;
        std::size_t best_off = 0;
        auto consider = [&](std::size_t c) {
          // A candidate that differs at best_len can't beat best_len;
          // skipping it avoids the full compare on most probes.
          if (best_len != 0 && src[c + best_len] != src[pos + best_len]) return;
          if (load32(src + c) != load32(src + pos)) return;
          std::size_t len = kMinMatch;
          while (len < max_len && src[c + len] == src[pos + len]) ++len;
          if (len > best_len) {
            best_len = len;
            best_off = pos - c;
          }
        };
#if defined(__SSE2__)
        // Most slots are empty or out of the window; mask them off in
        // one pass and walk only the live ways, lowest first.
        for (std::uint32_t live = window_mask(bucket, pos); live != 0; live &= live - 1) {
          consider(bucket[std::countr_zero(live)] - std::size_t{1});
        }
#else
        for (std::size_t w = 0; w < kHashWays; ++w) {
          const std::size_t cand = bucket[w];
          if (cand == 0) continue;
          const std::size_t c = cand - 1;
          if (c >= pos || pos - c > kMaxOffset) continue;
          consider(c);
        }
#endif
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
        // Lazy matching: a match that starts one byte later and is
        // more than one byte longer is worth the literal it costs.
        for (std::size_t step = 0; step < kLazySteps && i + 1 < scan_end; ++step) {
          insert(i);
          const auto [next_len, next_offset] = best_match(i + 1);
          if (next_len <= len + 1) break;
          ++i;
          len = next_len;
          offset = next_offset;
        }
        // Extend the match backward into pending literals — the match
        // finder only sees hashed starting positions, so it routinely
        // lands a few bytes late.
        while (i > anchor && i > offset && src[i - 1] == src[i - offset - 1]) {
          --i;
          ++len;
        }
        emit_sequence(i - anchor, src + anchor, len, offset);
        // Seed positions inside the match so later data can reference
        // it; stride through long matches to bound the cost.
        const std::size_t seed_end = std::min(i + len, scan_end);
        const std::size_t stride = len >= 64 ? 7 : 1;
        for (std::size_t j = i + 1; j < seed_end; j += stride) insert(j);
        i += len;
        anchor = i;
      }
    }
    emit_sequence(n - anchor, src + anchor, 0, 0);
  }

  [[nodiscard]] bool decompress(std::string_view comp, std::size_t raw_len,
                                std::string& out) const override {
    out.clear();
    out.reserve(raw_len);
    const char* p = comp.data();
    const char* const end = p + comp.size();
    auto read_run = [&](std::size_t base) -> std::optional<std::size_t> {
      std::size_t v = base;
      if (base == 15) {
        std::uint8_t b;
        do {
          if (p >= end) return std::nullopt;
          b = static_cast<std::uint8_t>(*p++);
          v += b;
        } while (b == 0xff);
      }
      return v;
    };
    while (p < end) {
      const auto token = static_cast<std::uint8_t>(*p++);
      const auto lit_len = read_run(token >> 4);
      if (!lit_len) return false;
      if (*lit_len > static_cast<std::size_t>(end - p) ||
          out.size() + *lit_len > raw_len) {
        return false;
      }
      out.append(p, *lit_len);
      p += *lit_len;
      if (p == end) break;  // final literals-only sequence
      if (end - p < 2) return false;
      const std::size_t offset = static_cast<std::uint8_t>(p[0]) |
                                 (static_cast<std::size_t>(static_cast<std::uint8_t>(p[1]))
                                  << 8);
      p += 2;
      if (offset == 0 || offset > out.size()) return false;
      const auto ml = read_run(token & 0x0f);
      if (!ml) return false;
      const std::size_t match_len = *ml + kMinMatch;
      if (out.size() + match_len > raw_len) return false;
      // Byte-at-a-time on purpose: offset < match_len overlaps (run
      // replication), which memcpy would corrupt.
      std::size_t from = out.size() - offset;
      for (std::size_t k = 0; k < match_len; ++k) out.push_back(out[from + k]);
    }
    return out.size() == raw_len;
  }
};

const NoneCodec g_none;
const LzCodec g_lz;

}  // namespace

const BlockCodec& codec(SegmentCodec id) {
  switch (id) {
    case SegmentCodec::kNone:
      return g_none;
    case SegmentCodec::kLz:
      return g_lz;
  }
  throw std::runtime_error{
      strfmt("unknown segment codec id %u", static_cast<unsigned>(id))};
}

std::optional<SegmentCodec> codec_by_name(std::string_view name) {
  if (name == "none") return SegmentCodec::kNone;
  if (name == "lz") return SegmentCodec::kLz;
  return std::nullopt;
}

}  // namespace dnsctx::stream
