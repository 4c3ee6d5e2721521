#include "stream/segment.hpp"

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "stream/segment_view.hpp"
#include "stream/wire.hpp"
#include "util/strings.hpp"

namespace dnsctx::stream {

namespace {

// ---- CRC-32 ----------------------------------------------------------------

[[nodiscard]] std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

}  // namespace

std::string_view to_string(RecordKind k) {
  switch (k) {
    case RecordKind::kConn: return "conn";
    case RecordKind::kDns: return "dns";
    case RecordKind::kEncFlow: return "enc";
  }
  return "conn";
}

std::uint32_t crc32(std::string_view bytes, std::uint32_t seed) {
  static const auto table = make_crc_table();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (const char ch : bytes) {
    c = table[(c ^ static_cast<std::uint8_t>(ch)) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void append_record(std::string& payload, const capture::ConnRecord& rec) {
  std::string body;
  body.reserve(46);
  wire::put_i64(body, rec.start.count_us());
  wire::put_i64(body, rec.duration.count_us());
  wire::put_u32(body, rec.orig_ip.to_u32());
  wire::put_u32(body, rec.resp_ip.to_u32());
  wire::put_u16(body, rec.orig_port);
  wire::put_u16(body, rec.resp_port);
  wire::put_u8(body, rec.proto == Proto::kUdp ? 1 : 0);
  wire::put_u8(body, static_cast<std::uint8_t>(rec.state));
  wire::put_u64(body, rec.orig_bytes);
  wire::put_u64(body, rec.resp_bytes);
  wire::put_u32(payload, static_cast<std::uint32_t>(body.size()));
  payload += body;
}

void append_record(std::string& payload, const capture::DnsRecord& rec) {
  const std::string_view query = rec.query.view();
  std::string body;
  body.reserve(34 + query.size() + rec.answers.size() * 8);
  wire::put_i64(body, rec.ts.count_us());
  wire::put_i64(body, rec.duration.count_us());
  wire::put_u32(body, rec.client_ip.to_u32());
  wire::put_u16(body, rec.client_port);
  wire::put_u32(body, rec.resolver_ip.to_u32());
  wire::put_u16(body, static_cast<std::uint16_t>(rec.qtype));
  wire::put_u8(body, static_cast<std::uint8_t>(rec.rcode));
  wire::put_u8(body, rec.answered ? 1 : 0);
  wire::put_u16(body, static_cast<std::uint16_t>(query.size()));
  body += query;
  wire::put_u16(body, static_cast<std::uint16_t>(rec.answers.size()));
  for (const auto& a : rec.answers) {
    wire::put_u32(body, a.addr.to_u32());
    wire::put_u32(body, a.ttl);
  }
  wire::put_u32(payload, static_cast<std::uint32_t>(body.size()));
  payload += body;
}

void append_record(std::string& payload, const capture::EncFlowRecord& rec) {
  std::string body;
  body.reserve(76);
  wire::put_i64(body, rec.start.count_us());
  wire::put_i64(body, rec.duration.count_us());
  wire::put_u32(body, rec.client_ip.to_u32());
  wire::put_u32(body, rec.server_ip.to_u32());
  wire::put_u16(body, rec.client_port);
  wire::put_u16(body, rec.server_port);
  wire::put_u32(body, rec.up_msgs);
  wire::put_u32(body, rec.down_msgs);
  wire::put_u64(body, rec.up_bytes);
  wire::put_u64(body, rec.down_bytes);
  wire::put_u64(body, rec.first_up_bytes);
  wire::put_u64(body, rec.first_down_bytes);
  wire::put_u32(body, rec.pad_aligned_up);
  wire::put_u32(body, rec.pad_aligned_down);
  wire::put_u32(payload, static_cast<std::uint32_t>(body.size()));
  payload += body;
}

void append_segment_header(std::string& out, std::uint16_t version, RecordKind kind,
                           std::uint32_t record_count, SimTime first, SimTime last,
                           std::uint64_t payload_bytes, std::uint32_t payload_crc) {
  wire::put_u32(out, kSegmentMagic);
  wire::put_u16(out, version);
  wire::put_u8(out, static_cast<std::uint8_t>(kind));
  wire::put_u8(out, 0);  // reserved
  wire::put_u32(out, record_count);
  wire::put_i64(out, record_count ? first.count_us() : 0);
  wire::put_i64(out, record_count ? last.count_us() : 0);
  wire::put_u64(out, payload_bytes);
  wire::put_u32(out, payload_crc);
}

std::string build_segment(RecordKind kind, std::uint32_t record_count, SimTime first,
                          SimTime last, std::string_view payload) {
  std::string out;
  out.reserve(kSegmentHeaderBytes + payload.size());
  append_segment_header(out, kSegmentVersion, kind, record_count, first, last,
                        payload.size(), crc32(payload));
  out += payload;
  return out;
}

SegmentHeader parse_segment_header(std::string_view bytes, const std::string& source) {
  if (bytes.size() < kSegmentHeaderBytes) {
    throw std::runtime_error{strfmt("%s: truncated segment header (%zu of %zu bytes)",
                                    source.c_str(), bytes.size(), kSegmentHeaderBytes)};
  }
  wire::Cursor c{bytes, 0, &source, "segment header"};
  SegmentHeader h;
  if (c.u32() != kSegmentMagic) {
    throw std::runtime_error{strfmt("%s: bad segment magic", source.c_str())};
  }
  h.version = c.u16();
  if (h.version != kSegmentVersion && h.version != kSegmentVersionV2) {
    throw std::runtime_error{strfmt("%s: unsupported segment version %u (expected %u or %u)",
                                    source.c_str(), h.version, kSegmentVersion,
                                    kSegmentVersionV2)};
  }
  const std::uint8_t kind = c.u8();
  if (kind > 2) {
    throw std::runtime_error{strfmt("%s: bad record kind %u", source.c_str(), kind)};
  }
  h.kind = static_cast<RecordKind>(kind);
  if (h.kind == RecordKind::kEncFlow && h.version != kSegmentVersion) {
    throw std::runtime_error{strfmt(
        "%s: enc segments are v1-only (v2 has no enc column set), got version %u",
        source.c_str(), h.version)};
  }
  (void)c.u8();  // reserved
  h.record_count = c.u32();
  h.first_ts = SimTime::from_us(c.i64());
  h.last_ts = SimTime::from_us(c.i64());
  h.payload_bytes = c.u64();
  h.payload_crc32 = c.u32();
  return h;
}

SegmentData parse_segment(std::string_view bytes, const std::string& source) {
  SegmentView view = SegmentView::parse(bytes, source);
  SegmentData out;
  out.header = view.header();
  if (out.header.kind == RecordKind::kConn) {
    out.conns.reserve(out.header.record_count);
    capture::ConnRecord rec;
    while (view.next(rec)) out.conns.push_back(rec);
  } else if (out.header.kind == RecordKind::kDns) {
    out.dns.reserve(out.header.record_count);
    capture::DnsRecord rec;
    while (view.next(rec)) out.dns.push_back(rec);
  } else {
    out.encflows.reserve(out.header.record_count);
    capture::EncFlowRecord rec;
    while (view.next(rec)) out.encflows.push_back(rec);
  }
  return out;
}

void write_segment_file(const std::string& path, std::string_view blob) {
  const std::string tmp = path + ".tmp";
  std::ofstream os{tmp, std::ios::binary};
  if (!os) throw std::runtime_error{"cannot open " + tmp};
  os.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  os.close();
  if (!os) {
    std::remove(tmp.c_str());
    throw std::runtime_error{"short write to " + tmp};
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    std::remove(tmp.c_str());
    throw std::runtime_error{"cannot rename " + tmp + " to " + path + ": " +
                             std::strerror(err)};
  }
}

SegmentData read_segment_file(const std::string& path) {
  std::ifstream is{path, std::ios::binary};
  if (!is) throw std::runtime_error{"cannot open " + path};
  std::string blob{std::istreambuf_iterator<char>{is}, std::istreambuf_iterator<char>{}};
  return parse_segment(blob, path);
}

}  // namespace dnsctx::stream
