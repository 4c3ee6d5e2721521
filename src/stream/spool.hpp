// dnsctx — spool directories: rotating sequences of binary segments.
//
// A spool is a directory of segment files, one time-ordered sequence per
// record kind:
//
//   conn-00000000.seg  conn-00000001.seg  ...
//   dns-00000000.seg   dns-00000001.seg   ...
//   enc-00000000.seg   enc-00000001.seg   ...   (encrypted-flow metadata;
//                                                present only when the
//                                                monitor observed any)
//
// The writer rotates the open segment when it reaches a record-count or
// sim-time-span limit, so a live monitor produces a steady trickle of
// finished, CRC-protected files that a follower can consume while the
// producer keeps appending. v2 segments are sealed (dictionary reorder,
// column remap, compression, CRC) on background threads; the writer's
// own thread writes the finished files in rotation order, each under a
// temporary name renamed into place, so a follower only ever lists
// whole segments and sees each kind's sequence without gaps. Records
// must arrive in nondecreasing timestamp order per kind (the writer throws otherwise); the reader
// re-validates that invariant within and across segments so corrupt or
// misassembled spools fail loudly instead of silently skewing a study.
//
// Converters to/from the Bro-style text logs round-trip byte-identically
// (text → spool → text reproduces the original files).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "capture/records.hpp"
#include "stream/codec.hpp"
#include "stream/segment.hpp"
#include "stream/segment_v2.hpp"

namespace dnsctx::stream {

struct SpoolConfig {
  /// Rotate the open segment once it holds this many records...
  std::uint32_t max_records_per_segment = 65'536;
  /// ...or spans this much simulated time, whichever comes first.
  SimDuration max_segment_span = SimDuration::hours(1);
  /// Segment format to WRITE: kSegmentVersion (1, interleaved bodies) or
  /// kSegmentVersionV2 (2, columnar + compressed — the default). Readers
  /// auto-detect per segment regardless of this setting. Enc segments are
  /// always written v1 — the columnar format has no enc column set.
  std::uint16_t format = kSegmentVersionV2;
  /// Block codec for v2 segments (ignored for v1).
  SegmentCodec codec = SegmentCodec::kLz;
};

/// Writes records into a spool directory, rotating segments per config.
/// Implements RecordSink so a time-sorted feed can drive it directly.
///
/// A rotated v2 segment is handed to one of kSealWorkers background
/// threads, which builds its blob while the caller goes on with a spare
/// builder. The caller writes finished blobs to disk in rotation order
/// at later rotations, waiting only when kSealWorkers segments are
/// already in flight. v1 and enc segments are built on the caller's
/// thread and written as soon as no earlier segment is still sealing.
/// Files, and the spool_* counters (bumped on the caller's thread as
/// each file is written), are exactly what a one-segment-at-a-time
/// writer produces; all of them are on disk once flush() returns.
class SpoolWriter : public capture::RecordSink {
 public:
  /// Threads sealing v2 segments. One leaves the end-of-run burst of
  /// rotations serial; on a 4-core host a third bought no measurable
  /// speed for ~30 MiB more peak RSS in a 2000-house capture.
  static constexpr std::size_t kSealWorkers = 2;

  SpoolWriter(std::string dir, SpoolConfig cfg = {});
  ~SpoolWriter() override;

  void on_conn(const capture::ConnRecord& rec) override;
  void on_dns(const capture::DnsRecord& rec) override;
  void on_encflow(const capture::EncFlowRecord& rec) override;

  /// Close the open segments, wait for every segment still being sealed,
  /// and write them all. Rethrows the first error (which names the
  /// segment file) after attempting the rest. Called by the destructor,
  /// but callers that need the files on disk at a known point (or want
  /// write errors surfaced) should call it explicitly.
  void flush();

  /// Segment files written so far (sealed segments still in flight are
  /// not counted until they reach the disk).
  [[nodiscard]] std::size_t segments_written() const { return segments_written_; }
  [[nodiscard]] std::uint64_t conns_written() const { return conn_.records_total; }
  [[nodiscard]] std::uint64_t dns_written() const { return dns_.records_total; }
  [[nodiscard]] std::uint64_t encflows_written() const { return enc_.records_total; }

 private:
  struct OpenSegment {
    std::string payload;                    ///< v1: interleaved record bodies
    std::unique_ptr<SegmentBuilderV2> v2;   ///< v2: columnar builder (null for v1)
    std::vector<std::unique_ptr<SegmentBuilderV2>> spare_v2;  ///< reset, ready for reuse
    std::uint32_t count = 0;
    SimTime first;
    SimTime last;
    std::uint32_t next_seq = 0;
    std::uint64_t records_total = 0;
    bool any = false;  ///< a record has ever been written to this kind
  };
  struct Sealing;  ///< one rotated segment: its builder, then its blob
  class Sealer;    ///< the kSealWorkers threads

  template <typename Rec>
  void add(OpenSegment& seg, RecordKind kind, const Rec& rec, SimTime ts);
  void rotate(OpenSegment& seg, RecordKind kind);
  /// Write sealed segments from the front of the queue, waiting for the
  /// oldest while more than `max_queued` remain.
  void retire(std::size_t max_queued);

  std::string dir_;
  SpoolConfig cfg_;
  OpenSegment conn_;
  OpenSegment dns_;
  OpenSegment enc_;  ///< no v2 builder ever: enc segments are v1-only
  std::size_t segments_written_ = 0;
  std::deque<std::unique_ptr<Sealing>> queue_;  ///< rotated, not yet written; rotation order
  std::unique_ptr<Sealer> sealer_;  ///< started at the first v2 rotation; joined first
};

/// Snapshot of a spool directory: segment file paths per kind, sorted in
/// sequence (= time) order.
struct SpoolListing {
  std::vector<std::string> conn_segments;
  std::vector<std::string> dns_segments;
  std::vector<std::string> enc_segments;

  [[nodiscard]] std::size_t total() const {
    return conn_segments.size() + dns_segments.size() + enc_segments.size();
  }
};

[[nodiscard]] SpoolListing list_spool(const std::string& dir);

/// Replay a spool into `sink`, merging the conn, dns, and enc sequences
/// into one nondecreasing timeline (ties deliver DNS first, then conn,
/// then enc — the DNS-before-conn rule matches the pairing engine; enc
/// metadata is purely observational and goes last). Segments stream one
/// at a time — memory is bounded by the largest single segment.
/// Validates CRCs and cross-segment timestamp ordering; throws naming
/// the offending file. Returns per-kind record counts.
struct ReplayCounts {
  std::uint64_t conns = 0;
  std::uint64_t dns = 0;
  std::uint64_t encflows = 0;
};
ReplayCounts replay_spool(const SpoolListing& listing, capture::RecordSink& sink);
ReplayCounts replay_spool(const std::string& dir, capture::RecordSink& sink);

/// Replay an in-memory dataset (timestamp-sorted, as Town::harvest and
/// capture::sort_by_time produce) through the same merged-timeline path.
ReplayCounts replay_dataset(const capture::Dataset& ds, capture::RecordSink& sink);

/// Converters between text logs and spools. `text_to_spool` reads
/// `<text_dir>/conn.log` + `<text_dir>/dns.log` (plus `encflow.log` when
/// present); `spool_to_text` writes the same files, emitting encflow.log
/// only when the spool holds enc records. Both directions preserve every
/// field exactly, so text → spool → text is byte-identical.
ReplayCounts text_to_spool(const std::string& text_dir, const std::string& spool_dir,
                           SpoolConfig cfg = {});
ReplayCounts spool_to_text(const std::string& spool_dir, const std::string& text_dir);

/// Re-encode a spool into `dst_dir` using cfg's format/codec (v1 ↔ v2
/// in either direction — the reader auto-detects the source format per
/// segment). Record values and delivery order are preserved exactly, so
/// study results across a conversion are byte-identical; segment
/// boundaries follow cfg's rotation limits, not the source's.
ReplayCounts convert_spool(const std::string& src_dir, const std::string& dst_dir,
                           SpoolConfig cfg = {});

/// Total bytes-on-disk of every segment file in the listing.
[[nodiscard]] std::uint64_t spool_bytes(const SpoolListing& listing);
[[nodiscard]] std::uint64_t spool_bytes(const std::string& dir);

}  // namespace dnsctx::stream
