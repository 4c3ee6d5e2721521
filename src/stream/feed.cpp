#include "stream/feed.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace dnsctx::stream {

template <typename Rec>
std::uint32_t LiveFeed::Slots<Rec>::put(const Rec& rec) {
  if (free.empty()) {
    recs.push_back(rec);
    return static_cast<std::uint32_t>(recs.size() - 1);
  }
  const std::uint32_t slot = free.back();
  free.pop_back();
  recs[slot] = rec;  // copy-assign: a DNS slot reuses its answers' storage
  return slot;
}

template <typename Rec>
void LiveFeed::push(Slots<Rec>& slots, Kind kind, SimTime key, const Rec& rec) {
  const std::uint32_t slot = slots.put(rec);
  heap_.push_back(Handle{key.count_us(), kind << kKindShift | next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), later);
  peak_buffered_ = std::max(peak_buffered_, heap_.size());
}

void LiveFeed::on_conn(const capture::ConnRecord& rec) { push(conns_, kConn, rec.start, rec); }

void LiveFeed::on_dns(const capture::DnsRecord& rec) { push(dns_, kDns, rec.ts, rec); }

void LiveFeed::on_encflow(const capture::EncFlowRecord& rec) {
  push(encflows_, kEnc, rec.start, rec);
}

void LiveFeed::deliver(const Handle& h) {
  switch (h.kind_seq >> kKindShift) {
    case kDns:
      downstream_->on_dns(dns_.recs[h.slot]);
      dns_.free.push_back(h.slot);
      break;
    case kConn:
      downstream_->on_conn(conns_.recs[h.slot]);
      conns_.free.push_back(h.slot);
      break;
    default:
      downstream_->on_encflow(encflows_.recs[h.slot]);
      encflows_.free.push_back(h.slot);
      break;
  }
}

std::size_t LiveFeed::release_sorted(std::int64_t upto) {
  // Lay the vector out as [kept | due]: the kept part becomes the heap
  // again, the due part is sorted into release order.
  const auto due = std::partition(heap_.begin(), heap_.end(),
                                  [upto](const Handle& h) { return h.key_us > upto; });
  std::make_heap(heap_.begin(), due, later);
  std::sort(due, heap_.end(), [](const Handle& a, const Handle& b) { return later(b, a); });
  auto next = due;
  try {
    for (; next != heap_.end(); ++next) deliver(*next);
  } catch (...) {
    // The record that failed, and the ones after it, stay buffered.
    heap_.erase(due, next);
    std::make_heap(heap_.begin(), heap_.end(), later);
    throw;
  }
  const auto count = static_cast<std::size_t>(heap_.end() - due);
  heap_.erase(due, heap_.end());
  return count;
}

void LiveFeed::drain(SimTime watermark) {
  obs::StageSpan span{"ingest_batch"};
  const std::int64_t upto = watermark.count_us();
  // Pop while the release is small next to the window (each pop walks
  // the heap's depth, mostly out of cache once the window is large);
  // past 1/kSortShare of it, one partition and sort take the rest.
  const std::size_t pop_budget = heap_.size() / kSortShare;
  std::uint64_t released = 0;
  while (!heap_.empty() && heap_.front().key_us <= upto) {
    if (released == pop_budget) {
      released += release_sorted(upto);
      break;
    }
    deliver(heap_.front());
    std::pop_heap(heap_.begin(), heap_.end(), later);
    heap_.pop_back();
    ++released;
  }
  if (obs::enabled()) {
    auto& reg = obs::registry();
    reg.counter("stream_drained_records_total").add(released);
    reg.gauge("stream_reorder_buffered").set(static_cast<double>(heap_.size()));
    reg.gauge("stream_reorder_buffered_peak").set_max(static_cast<double>(peak_buffered_));
    // close() drains with the sentinel max watermark — not a real time.
    if (watermark != SimTime::max()) {
      reg.gauge("stream_watermark_sim_seconds").set(watermark.to_sec());
    }
  }
}

void LiveFeed::close() { drain(SimTime::max()); }

}  // namespace dnsctx::stream
