// dnsctx — watermark-based reordering between live capture and analysis.
//
// capture::Monitor emits records in FINALIZATION order: a connection when
// it closes, a DNS transaction when its response (or timeout) arrives.
// The online study engine, like the spool writer, requires timestamp
// order (conn keyed by `start`, dns by `ts`). LiveFeed bridges the two:
// it buffers finalized records and, whenever the producer advances the
// watermark — a promise that no future record will carry a key time at
// or before it — releases everything up to the watermark in the
// canonical order:
//
//   (key time, DNS before conn before enc at ties, arrival order)
//
// That is exactly the order replay_spool / replay_dataset deliver, so a
// live run and a batch run over the harvested logs feed the engine the
// same sequence. Memory is bounded by the records still inside the open
// window (watermark .. now), not the run length.
//
// A city-scale window holds a million records or more, so the records
// themselves never move: each one is copied into a slot of its kind's
// slot vector, and only a 24-byte handle — (key, kind << 62 | arrival
// seq, slot) — goes through the binary heap. A released slot goes on a
// free list and is overwritten by a later record; DNS slots keep their
// answer list's storage, so once the window is warm buffering a record
// allocates nothing. A drain that releases a large share of the window
// (close() releases all of it) sorts the due handles once instead of
// popping each through the heap.
#pragma once

#include <cstdint>
#include <vector>

#include "capture/records.hpp"

namespace dnsctx::stream {

class LiveFeed : public capture::RecordSink {
 public:
  explicit LiveFeed(capture::RecordSink& downstream) : downstream_{&downstream} {}

  void on_conn(const capture::ConnRecord& rec) override;
  void on_dns(const capture::DnsRecord& rec) override;
  void on_encflow(const capture::EncFlowRecord& rec) override;

  /// Release every buffered record with key time <= `watermark` to the
  /// downstream sink, in canonical order. Watermarks must not regress.
  void drain(SimTime watermark);

  /// Release everything still buffered (end of run).
  void close();

  [[nodiscard]] std::size_t buffered() const { return heap_.size(); }
  [[nodiscard]] std::size_t peak_buffered() const { return peak_buffered_; }

 private:
  /// Kinds in ascending tie order; stored in the top two bits of
  /// Handle::kind_seq so one integer compare orders kind, then arrival.
  enum Kind : std::uint64_t { kDns = 0, kConn = 1, kEnc = 2 };
  static constexpr int kKindShift = 62;

  struct Handle {
    std::int64_t key_us = 0;
    std::uint64_t kind_seq = 0;
    std::uint32_t slot = 0;
  };
  /// Heap order: `a` is released after `b`.
  [[nodiscard]] static bool later(const Handle& a, const Handle& b) {
    return a.key_us != b.key_us ? a.key_us > b.key_us : a.kind_seq > b.kind_seq;
  }

  /// One kind's buffered records; `free` lists the slots not in use.
  template <typename Rec>
  struct Slots {
    std::vector<Rec> recs;
    std::vector<std::uint32_t> free;
    [[nodiscard]] std::uint32_t put(const Rec& rec);
  };

  template <typename Rec>
  void push(Slots<Rec>& slots, Kind kind, SimTime key, const Rec& rec);
  /// Hand `h`'s record downstream, then free its slot.
  void deliver(const Handle& h);
  /// Release every record with key <= `upto` by one partition and sort
  /// of the handles; returns how many.
  std::size_t release_sorted(std::int64_t upto);

  /// A drain pops at most this share of the window one by one before
  /// switching to release_sorted().
  static constexpr std::size_t kSortShare = 16;

  capture::RecordSink* downstream_;
  std::vector<Handle> heap_;  ///< binary heap, earliest on top
  Slots<capture::DnsRecord> dns_;
  Slots<capture::ConnRecord> conns_;
  Slots<capture::EncFlowRecord> encflows_;
  std::uint64_t next_seq_ = 0;
  std::size_t peak_buffered_ = 0;
};

}  // namespace dnsctx::stream
