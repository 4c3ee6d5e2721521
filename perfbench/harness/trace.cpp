#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "common.hpp"

namespace perfbench {
namespace {

/// Per-thread nesting and the callback time charged since the last
/// close(); charge() touches only this, so it takes no lock.
struct ThreadState {
  std::uint32_t index = 0;
  bool registered = false;
  std::vector<std::int64_t> stack;    ///< open span ids, innermost last
  std::vector<std::int64_t> pending;  ///< charged ns per open span
  std::vector<std::pair<const char*, std::int64_t>> layers;
};

thread_local ThreadState t_state;

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable(std::string run_id) {
  enabled_ = true;
  run_id_ = std::move(run_id);
}

std::uint32_t Tracer::thread_index() {
  if (!t_state.registered) {
    t_state.index = threads_++;
    t_state.registered = true;
  }
  return t_state.index;
}

std::int64_t Tracer::open(const char* name) {
  const std::lock_guard lock{mu_};
  Span span;
  span.name = name;
  span.thread = thread_index();
  span.parent = t_state.stack.empty() ? -1 : t_state.stack.back();
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  const auto id = static_cast<std::int64_t>(spans_.size() - 1);
  t_state.stack.push_back(id);
  t_state.pending.push_back(0);
  return id;
}

void Tracer::close(std::int64_t id) {
  const std::int64_t end = now_ns();
  if (t_state.stack.empty() || t_state.stack.back() != id) {
    throw std::logic_error{"perfbench: spans closed out of order"};
  }
  const std::int64_t charged = t_state.pending.back();
  t_state.stack.pop_back();
  t_state.pending.pop_back();
  const std::lock_guard lock{mu_};
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = end;
  span.charged_ns += charged;
  for (auto& [layer, ns] : t_state.layers) {
    charged_[layer] += ns;
    ns = 0;
  }
}

void Tracer::charge(const char* layer, std::int64_t ns) {
  if (!t_state.pending.empty()) t_state.pending.back() += ns;
  for (auto& [name, total] : t_state.layers) {
    if (name == layer) {
      total += ns;
      return;
    }
  }
  t_state.layers.emplace_back(layer, ns);
}

std::map<std::string, Tracer::LayerTime> Tracer::layer_table() const {
  const std::lock_guard lock{mu_};
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, LayerTime> table;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const auto dur = s.end_ns - s.start_ns;
    LayerTime& row = table[s.name];
    row.total_s += static_cast<double>(dur) / 1e9;
    row.self_s += static_cast<double>(dur - child_ns[i] - s.charged_ns) / 1e9;
    ++row.spans;
  }
  for (const auto& [layer, ns] : charged_) {
    LayerTime& row = table[layer];
    row.total_s += static_cast<double>(ns) / 1e9;
    row.self_s += static_cast<double>(ns) / 1e9;
  }
  return table;
}

void Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error{"perfbench: cannot write " + path};
  const std::lock_guard lock{mu_};
  std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%lld,\"run\":\"%s\"}}\n",
                 i == 0 ? "" : ",", json_escape(s.name).c_str(), s.thread,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 static_cast<long long>(s.parent), json_escape(run_id_).c_str());
  }
  std::fprintf(f, "],\"displayTimeUnit\":\"ms\"}\n");
  if (std::fclose(f) != 0) throw std::runtime_error{"perfbench: cannot write " + path};
}

void Tracer::write_layer_table(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error{"perfbench: cannot write " + path};
  std::fprintf(f, "{");
  bool first = true;
  for (const auto& [name, row] : layer_table()) {
    std::fprintf(f, "%s\n\"%s\":{\"total_s\":%.9f,\"self_s\":%.9f,\"spans\":%llu}",
                 first ? "" : ",", json_escape(name).c_str(), row.total_s, row.self_s,
                 static_cast<unsigned long long>(row.spans));
    first = false;
  }
  std::fprintf(f, "\n}\n");
  if (std::fclose(f) != 0) throw std::runtime_error{"perfbench: cannot write " + path};
}

}  // namespace perfbench
