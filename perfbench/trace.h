#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the benchmark's traced run. Spans are taken
// by the benchmark itself around the calls it makes into the library; the
// library is never instrumented. One Tracer belongs to one thread, so spans
// nest strictly (stack discipline) and a span's self time is its duration
// minus the summed durations of its direct children.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  /// Per-name totals, folded in as spans end.
  struct Totals {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };

  /// A disabled tracer records nothing and never reads the clock.
  /// `tracer_id` tells apart the span ids of several tracers in one file.
  Tracer(bool enabled, int tracer_id)
      : enabled_(enabled), tracer_id_(tracer_id) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; `request` is the batch id, or the pool index of a
  /// replayed query. `name` must outlive the tracer.
  void Begin(const char* name, int64_t request) {
    if (!enabled_) return;
    const int64_t id = next_id_++;
    const int64_t parent = open_.empty() ? -1 : open_.back().id;
    open_.push_back({name, id, parent, request, NowNs(), 0});
  }

  /// Closes the innermost open span.
  void End() {
    if (!enabled_) return;
    const int64_t end = NowNs();
    const Open span = open_.back();
    open_.pop_back();
    const int64_t duration = end - span.start_ns;
    if (!open_.empty()) open_.back().child_ns += duration;
    Totals& totals = by_name_[span.name];
    ++totals.count;
    totals.total_ns += duration;
    totals.self_ns += duration - span.child_ns;
    if (stored_.size() < kMaxStoredSpans) {
      stored_.push_back({span.name, span.id, span.parent, span.request,
                         span.start_ns, end});
    }
  }

  /// Totals by span name, folded into `into` (several tracers may add to
  /// one map).
  void AddTotals(std::map<std::string, Totals>& into) const {
    for (const auto& [name, t] : by_name_) {
      Totals& sum = into[name];
      sum.count += t.count;
      sum.total_ns += t.total_ns;
      sum.self_ns += t.self_ns;
    }
  }

  /// Appends the stored spans as JSON lines.
  void Write(std::FILE* out) const {
    for (const Stored& s : stored_) {
      std::fprintf(out,
                   "{\"tracer\":%d,\"id\":%lld,\"parent\":%lld,"
                   "\"request\":%lld,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld}\n",
                   tracer_id_, static_cast<long long>(s.id),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.request), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }

 private:
  // Caps the span file; totals keep counting past the cap.
  static constexpr size_t kMaxStoredSpans = 50000;

  struct Open {
    const char* name;
    int64_t id;
    int64_t parent;
    int64_t request;
    int64_t start_ns;
    int64_t child_ns;
  };
  struct Stored {
    const char* name;
    int64_t id;
    int64_t parent;
    int64_t request;
    int64_t start_ns;
    int64_t end_ns;
  };

  bool enabled_;
  int tracer_id_;
  int64_t next_id_ = 0;
  std::vector<Open> open_;
  std::vector<Stored> stored_;
  // Keyed by the name pointer: the hot path hashes a pointer, not a
  // string. Equal names behind different pointers merge in AddTotals.
  std::unordered_map<const char*, Totals> by_name_;
};

/// RAII span; a no-op on a disabled tracer.
class Span {
 public:
  Span(Tracer& tracer, const char* name, int64_t request) : tracer_(tracer) {
    tracer_.Begin(name, request);
  }
  ~Span() { tracer_.End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
