// libFuzzer target for the lz block compressor. Any input must compress
// to exactly the bytes of the frozen reference compressor
// (tests/stream/lz_reference.hpp) and decompress back to itself. Inputs
// stay small, so an input whose byte 0 is below 5 is also replayed
// stretched across the 64 KiB match window: the rest of the input is
// written twice, 65,533 + byte 0 bytes apart with filler between, so the
// fuzzer probes both sides of the inclusive 65,535-byte edge. (Only
// those inputs pay for two 64 KiB compressions; the window-edge seeds
// in corpus/lz start with such a byte.)
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>

#include "../stream/lz_reference.hpp"
#include "stream/codec.hpp"

namespace stream = dnsctx::stream;

namespace {

void check(std::string_view raw) {
  const stream::BlockCodec& lz = stream::codec(stream::SegmentCodec::kLz);
  std::string comp;
  lz.compress(raw, comp);
  if (comp != stream::reference::lz_compress(raw)) std::abort();
  std::string back;
  if (!lz.decompress(comp, raw.size(), back) || back != raw) std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::string_view input{reinterpret_cast<const char*>(data), size};
  check(input);
  if (size < 2 || data[0] >= 5) return 0;
  const std::string_view payload = input.substr(1);
  const std::size_t distance = 65'533 + data[0];
  if (payload.size() >= distance) return 0;
  std::string stretched{payload};
  std::uint32_t x = 0x9E3779B9u;
  while (stretched.size() < distance) {
    x = x * 1664525u + 1013904223u;
    stretched.push_back(static_cast<char>(x >> 24));
  }
  stretched += payload;
  check(stretched);
  return 0;
}
