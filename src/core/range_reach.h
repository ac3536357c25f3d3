#ifndef GSR_CORE_RANGE_REACH_H_
#define GSR_CORE_RANGE_REACH_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/result_sink.h"
#include "geometry/geometry.h"
#include "graph/digraph.h"
#include "graph/scc.h"
#include "labeling/observations.h"

namespace gsr {

/// The RangeReach evaluation methods of the experimental analysis
/// (Section 6.1), plus the index-free ground truth and the cost-based
/// planner that routes each query across a portfolio of them.
enum class MethodKind {
  kNaiveBfs,
  kSpaReachBfl,
  kSpaReachInt,
  kSpaReachPll,
  kSpaReachFeline,
  kGeoReach,
  kSocReach,
  kThreeDReach,
  kThreeDReachRev,
  kPlanner,
};

/// One entry past the last MethodKind, for per-kind histograms.
inline constexpr size_t kMethodKindCount =
    static_cast<size_t>(MethodKind::kPlanner) + 1;

/// One RangeReach(G, v, R) query: does vertex `vertex` reach any spatial
/// vertex whose point lies inside `region`? (Problem 1 of the paper.)
struct RangeReachQuery {
  VertexId vertex = 0;
  Rect region;
};

/// One multi-source AnyReach(G, S, R) query: does *any* vertex of
/// `sources` reach a spatial vertex whose point lies inside `region`?
/// The "do any of my k friends reach the region" scenario; equivalent to
/// OR-ing k RangeReach queries, which is exactly how the oracle answers
/// it (methods answer it with shared candidate scans and k-way probes).
struct AnyReachQuery {
  std::vector<VertexId> sources;
  Rect region;
};

/// The cost counters of a query — one schema for every method, grouped by
/// the layer a query crosses. Each method counts only the fields of its
/// own layers; the rest stay zero. Section 6 explains each method's cost
/// by these counts: SRange candidates and GReach probes for SpaReach,
/// |D(v)| for SocReach, cuboids for 3DReach, BFS visits for GeoReach.
struct QueryCounters {
  // Pre-check layer (the attached observations, the planner's stage 1).
  uint64_t queries = 0;
  /// Queries proven FALSE (or TRUE) before any index is touched. The
  /// spatial-first methods also count the per-candidate (and per-source)
  /// probes a tri-state TestReach or SettleRange settles.
  uint64_t settled_negative = 0;
  uint64_t settled_positive = 0;
  // Planner layer: routed queries per member kind (indexed by MethodKind).
  std::array<uint64_t, kMethodKindCount> routed{};
  // Method work.
  uint64_t candidates = 0;         // SpaReach: SRange results materialized.
  uint64_t greach_calls = 0;       // SpaReach: reachability probes issued.
  uint64_t descendants = 0;        // SocReach: |D(v)| summed over queries.
  uint64_t containment_tests = 0;  // SocReach: spatial tests until a hit.
  uint64_t range_queries = 0;      // 3DReach: cuboids issued.
  uint64_t vertices_visited = 0;   // GeoReach: components popped by the BFS.
  uint64_t pruned = 0;             // GeoReach: visits answered kPrune.

  QueryCounters& operator+=(const QueryCounters& o) {
    queries += o.queries;
    settled_negative += o.settled_negative;
    settled_positive += o.settled_positive;
    for (size_t i = 0; i < kMethodKindCount; ++i) routed[i] += o.routed[i];
    candidates += o.candidates;
    greach_calls += o.greach_calls;
    descendants += o.descendants;
    containment_tests += o.containment_tests;
    range_queries += o.range_queries;
    vertices_visited += o.vertices_visited;
    pruned += o.pruned;
    return *this;
  }
};

/// Per-thread mutable query state (buffers, visited marks, cost counters).
///
/// Index structures are immutable after construction, so the only thing
/// that stops Evaluate from running concurrently is its scratch space.
/// A scratch is created by the method that will consume it (NewScratch)
/// and must only ever be handed back to that same method; one scratch must
/// not be used by two threads at the same time, but any number of threads
/// may evaluate against the same method with one scratch each. Methods
/// with no per-query state use this base class directly.
class QueryScratch {
 public:
  virtual ~QueryScratch() = default;

  /// The work of the queries run on this scratch since its last drain.
  QueryCounters counters;
};

/// Common interface of all RangeReach evaluation methods. Implementations
/// build their (immutable) index structures in their constructor.
///
/// Thread-safety contract: there is one way to run a query — Evaluate,
/// CollectInto, EvaluateAny and their grouped forms, each with a scratch
/// from NewScratch(). They touch no method state except through that
/// scratch, so any number of threads may query one method concurrently,
/// each owning one scratch. A query counts its work into its scratch; the
/// method's totals see it only through DrainScratchCounters.
///
/// Precondition of every query entry point: each query vertex (and every
/// AnyReach source) is < num_vertices(). A direct call does not check it;
/// BatchRunner and QueryScheduler validate whole batches up front.
class RangeReachMethod {
 public:
  using Counters = QueryCounters;

  RangeReachMethod() = default;
  RangeReachMethod(const RangeReachMethod&) = delete;
  RangeReachMethod& operator=(const RangeReachMethod&) = delete;
  virtual ~RangeReachMethod() = default;

  /// Vertices of the network the method answers over; valid query
  /// vertices are [0, num_vertices()).
  virtual VertexId num_vertices() const = 0;

  /// Answers RangeReach(G, vertex, region) using `scratch` — which must
  /// come from this method's NewScratch() — for all mutable state.
  virtual bool Evaluate(VertexId vertex, const Rect& region,
                        QueryScratch& scratch) const = 0;

  /// Answers a shared-work group: every query of the group has the same
  /// query vertex, query k is (vertex, regions[k]) and its answer lands
  /// in out[k]. Groups of any size are legal; implementations chunk
  /// internally (the work-sharing scheduler caps groups at the kernel
  /// mask width, but the hook must not rely on that).
  ///
  /// The contract is strictly bit-identical answers: out[k] must equal
  /// what Evaluate(vertex, regions[k], scratch) returns, for every k.
  /// Cost *counters* may legitimately differ from the serial loop — the
  /// whole point of an override is doing less work per region (one
  /// descendant enumeration, one labeling probe, one R-tree descent for
  /// many regions). The default implementation is the serial loop, so
  /// every method is scheduler-ready; SocReach, SpaReach-INT and the two
  /// 3DReach variants override it with genuinely shared execution.
  virtual void EvaluateGroup(VertexId vertex, std::span<const Rect> regions,
                             std::span<bool> out,
                             QueryScratch& scratch) const {
    for (size_t k = 0; k < regions.size(); ++k) {
      out[k] = Evaluate(vertex, regions[k], scratch);
    }
  }

  /// Delivers every distinct reachable spatial vertex inside `region` to
  /// `sink` — the collection form behind RangeReachCount/RangeReachEnum.
  /// Only count/enum sinks reach this hook (EvaluateInto routes boolean
  /// sinks through Evaluate, keeping that path bit-identical). Contract:
  /// each qualifying vertex is Add()ed exactly once, in unspecified
  /// order; callers needing the canonical ascending order sort via
  /// ResultSink::Finalize. The base implementation refuses — every real
  /// method overrides it; the default only exists so minimal test
  /// doubles that never see count/enum queries still compile.
  virtual void CollectInto(VertexId vertex, const Rect& region,
                           ResultSink& sink, QueryScratch& scratch) const {
    (void)vertex;
    (void)region;
    (void)sink;
    (void)scratch;
    throw std::logic_error(name() + " does not implement count/enum queries");
  }

  /// Grouped collection, the sink analogue of EvaluateGroup: every query
  /// shares the group's vertex, query k is (vertex, regions[k]) and its
  /// results land in sinks[k]. Same answer contract per slot as
  /// CollectInto (exactly-once delivery, unspecified order); cost
  /// counters may differ from the serial loop, the whole point of an
  /// override is one shared scan feeding many sinks. Default is the
  /// serial loop, so every method is scheduler-ready for all kinds.
  virtual void CollectGroupInto(VertexId vertex, std::span<const Rect> regions,
                                std::span<ResultSink> sinks,
                                QueryScratch& scratch) const {
    for (size_t k = 0; k < regions.size(); ++k) {
      CollectInto(vertex, regions[k], sinks[k], scratch);
    }
  }

  /// Answers AnyReach(G, sources, region): true when any source reaches
  /// a spatial vertex inside the region. This short-circuiting loop over
  /// Evaluate *defines* the semantics (and is what the oracle runs);
  /// SpaReach and the 3DReach variants override it with one shared
  /// candidate collection / R-tree descent probed k ways, GeoReach with
  /// a multi-seed traversal. Empty `sources` answers false.
  virtual bool EvaluateAny(std::span<const VertexId> sources,
                           const Rect& region, QueryScratch& scratch) const {
    for (VertexId source : sources) {
      if (Evaluate(source, region, scratch)) return true;
    }
    return false;
  }

  /// Single-query sink dispatch: boolean sinks route through Evaluate
  /// (the existing optimized path, bit-identical answers), count/enum
  /// through CollectInto. Non-virtual on purpose — the kind dispatch
  /// lives in exactly one place so the boolean fast path cannot drift.
  void EvaluateInto(VertexId vertex, const Rect& region, ResultSink& sink,
                    QueryScratch& scratch) const {
    if (sink.kind() == QueryKind::kBool) {
      if (Evaluate(vertex, region, scratch)) sink.MarkFound();
      return;
    }
    CollectInto(vertex, region, sink, scratch);
  }

  /// Creates a scratch for this method. One per thread.
  virtual std::unique_ptr<QueryScratch> NewScratch() const {
    return std::make_unique<QueryScratch>();
  }

  /// Folds the counters accumulated in `scratch` into the method's totals
  /// and zeroes them in `scratch`, so a scratch can be drained after
  /// every batch without double counting. Safe to call concurrently for
  /// distinct scratches (the totals sit behind one mutex); `scratch`
  /// itself must be idle. Drains run once per scratch per batch, never
  /// per query, so the lock stays off the query path. Only composite
  /// methods override it, to drain their members' scratches as well.
  virtual void DrainScratchCounters(QueryScratch& scratch) const {
    const std::lock_guard<std::mutex> lock(books_->mutex);
    books_->totals += scratch.counters;
    scratch.counters = QueryCounters{};
  }

  /// A copy of the drained totals. Readers may race with drains.
  Counters counters() const {
    const std::lock_guard<std::mutex> lock(books_->mutex);
    return books_->totals;
  }

  void ResetCounters() const {
    const std::lock_guard<std::mutex> lock(books_->mutex);
    books_->totals = QueryCounters{};
  }

  /// RangeReachCount: how many distinct spatial vertices inside `region`
  /// does `vertex` reach?
  uint64_t EvaluateCount(VertexId vertex, const Rect& region,
                         QueryScratch& scratch) const {
    ResultSink sink = ResultSink::Count();
    CollectInto(vertex, region, sink, scratch);
    return sink.count();
  }

  /// RangeReachEnum: `out` is cleared, filled with the reachable spatial
  /// vertices inside `region`, and sorted ascending; steady-state callers
  /// keep its capacity across queries.
  void EvaluateEnumInto(VertexId vertex, const Rect& region,
                        QueryScratch& scratch,
                        std::vector<VertexId>& out) const {
    ResultSink sink = ResultSink::Enum(&out);
    CollectInto(vertex, region, sink, scratch);
    sink.Finalize();
  }

  /// Attaches the O(1) observation pre-checks (src/labeling/observations)
  /// consulted by the wired query paths: SocReach, SpaReach and the
  /// 3DReach variants settle whole queries (no spatial descendant, or a
  /// reachable witness point inside the region) and skip per-candidate
  /// reachability probes that a tri-state TestReach already proves. The
  /// observations must describe this method's condensation and outlive
  /// the method; pre-checks are proofs, so answers are bit-identical
  /// with or without them. Methods that never consult the pointer
  /// (NaiveBFS, GeoReach) simply ignore the attachment. Not thread-safe
  /// against concurrent Evaluate calls — attach before querying.
  void AttachObservations(const Observations* observations) {
    observations_ = observations;
  }

  /// The attached pre-checks, or nullptr (the default: standalone
  /// methods behave exactly as before).
  const Observations* observations() const { return observations_; }

  /// Process-unique id of this method instance, assigned at construction
  /// and never reused. Caches keyed by method (like BatchRunner's scratch
  /// cache) use it instead of the object address, which a later instance
  /// could legitimately reoccupy.
  uint64_t instance_id() const { return books_->instance_id; }

  /// Display name, e.g. "3DReach" or "SpaReach-BFL (mbr)".
  virtual std::string name() const = 0;

  /// Main-memory footprint of the method's index structures, in bytes.
  /// Matches what Table 4 reports per method (labeling schemes, R-trees,
  /// SPA-graph), excluding the shared network/condensation.
  virtual size_t IndexSizeBytes() const = 0;

 protected:
  /// The whole-query pre-check: the attached observations' SettleRange
  /// verdict for (source, region) — the answer when it settles, counted
  /// into `counters` — or nullopt when it does not (or none is attached).
  std::optional<bool> PreCheck(ComponentId source, const Rect& region,
                               QueryCounters& counters) const {
    if (observations_ == nullptr) return std::nullopt;
    switch (observations_->SettleRange(source, region)) {
      case Observations::Verdict::kNo:
        ++counters.settled_negative;
        return false;
      case Observations::Verdict::kYes:
        ++counters.settled_positive;
        return true;
      case Observations::Verdict::kUnknown:
        break;
    }
    return std::nullopt;
  }

 private:
  static uint64_t NextInstanceId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  /// The instance's id and drained counter totals, kept off the object:
  /// one pointer in place of the id leaves the base at three words, so no
  /// derived member moves. Query paths are sensitive to member layout
  /// alone; shifting every 3DReach member by one word measurably slowed
  /// the streaming overlay's base probes.
  struct Bookkeeping {
    uint64_t instance_id = NextInstanceId();
    std::mutex mutex;  // Guards totals.
    QueryCounters totals;
  };

  const Observations* observations_ = nullptr;
  std::unique_ptr<Bookkeeping> books_ = std::make_unique<Bookkeeping>();
};

}  // namespace gsr

#endif  // GSR_CORE_RANGE_REACH_H_
