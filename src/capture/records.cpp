#include "capture/records.hpp"

namespace dnsctx::capture {

std::string_view to_string(ConnState s) {
  switch (s) {
    case ConnState::kS0: return "S0";
    case ConnState::kSf: return "SF";
    case ConnState::kRej: return "REJ";
    case ConnState::kRst: return "RST";
    case ConnState::kOth: return "OTH";
  }
  return "?";
}

namespace {

/// Stable timestamp sort via key extraction: pull the key column out of
/// the records, argsort indices, then gather. Equivalent to
/// std::stable_sort on `key(rec)`, but each record is moved exactly once
/// however deep the sort recursion goes.
template <typename Rec, typename KeyFn>
void sort_column(std::vector<Rec>& recs, KeyFn key) {
  const std::size_t n = recs.size();
  if (n < 2) return;
  std::vector<std::int64_t> ts(n);
  for (std::size_t i = 0; i < n; ++i) ts[i] = key(recs[i]).count_us();
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  std::stable_sort(order.begin(), order.end(),
                   [&ts](std::uint32_t a, std::uint32_t b) { return ts[a] < ts[b]; });
  std::vector<Rec> sorted;
  sorted.reserve(n);
  for (std::size_t i = 0; i < n; ++i) sorted.push_back(std::move(recs[order[i]]));
  recs = std::move(sorted);
}

}  // namespace

void sort_by_time(Dataset& ds) {
  sort_column(ds.conns, [](const ConnRecord& c) { return c.start; });
  sort_column(ds.dns, [](const DnsRecord& d) { return d.ts; });
  sort_column(ds.encflows, [](const EncFlowRecord& e) { return e.start; });
}

}  // namespace dnsctx::capture
