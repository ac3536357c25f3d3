#ifndef GSR_LABELING_INTERVAL_LABELING_H_
#define GSR_LABELING_INTERVAL_LABELING_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "exec/thread_pool.h"
#include "graph/digraph.h"
#include "graph/spanning_forest.h"
#include "labeling/flat_label_store.h"
#include "labeling/label_set.h"

namespace gsr {

/// The interval-based reachability labeling of Agrawal et al., constructed
/// with the paper's forest-based Algorithm 1 (Section 3.2): geosocial
/// networks have many zero-in-degree vertices, so a spanning *forest* is
/// used; tree labels are derived from it; and the non-spanning edges are
/// then processed in ascending post-order of their source (= reverse
/// topological order), each time propagating labels to the forest
/// ancestors of the edge source.
///
/// Implementation notes relative to the literal pseudo-code:
///  - The priority-queue tree phase (lines 7-18) deposits, at each vertex,
///    exactly the singleton labels of its tree descendants — whose post
///    numbers form the contiguous range [min_post_subtree(v), post(v)].
///    We materialize that range directly; the resulting covered set is
///    identical and construction stays linear even on vertices with
///    millions of tree descendants.
///  - Label sets stay normalized throughout (see LabelSet); the
///    uncompressed/compressed accounting of Table 6 is recovered exactly
///    from CoveredValues()/size().
///  - Construction mutates per-vertex LabelSets; the finished labeling is
///    frozen into a FlatLabelStore (offsets + packed interval array), so
///    the query path never chases a per-vertex heap pointer.
///  - With a thread pool, construction is parallelized over spanning trees
///    and post-order ranges with a schedule that provably reproduces the
///    serial result bit-for-bit — including Stats (see DESIGN.md, "Index
///    construction pipeline").
///
/// The input must be a DAG; arbitrary graphs are first condensed (see
/// CondensedNetwork in src/core). Reachability follows Lemma 3.1:
/// GReach(v, u) holds iff some label of v contains post(u).
class IntervalLabeling {
 public:
  struct Options {
    /// Forest strategy (Section 8 future work: shallow forests). Both
    /// strategies yield correct labelings; see ForestStrategy.
    ForestStrategy forest_strategy = ForestStrategy::kDfs;
  };

  /// Label-count accounting reported in Table 6.
  struct Stats {
    /// Singleton labels the literal construction generates before the
    /// compression step: one per distinct descendant post value.
    uint64_t uncompressed_labels = 0;
    /// Interval labels after compression (absorb + merge).
    uint64_t compressed_labels = 0;
    /// Number of non-spanning edges processed.
    uint64_t non_tree_edges = 0;
    /// Number of trees in the spanning forest.
    uint64_t forest_trees = 0;
  };

  /// Builds the labeling for `dag` (must be acyclic). When `pool` is
  /// non-null the tree phase, non-tree-edge propagation and freeze run on
  /// its workers; labels and Stats are identical to the serial build.
  static IntervalLabeling Build(const DiGraph& dag, const Options& options,
                                exec::ThreadPool* pool);
  static IntervalLabeling Build(const DiGraph& dag, const Options& options) {
    return Build(dag, options, nullptr);
  }
  static IntervalLabeling Build(const DiGraph& dag) {
    return Build(dag, Options{}, nullptr);
  }

  /// Writes the forest arrays, Table 6 stats and flat label store
  /// (snapshot layer). The serialized labeling answers queries exactly
  /// like the built one; the forest's non_tree_edges (a construction-only
  /// artifact) are not persisted.
  void SerializeTo(BinaryWriter& w) const;

  /// Restores a labeling from `r`. With `ctx.borrow` the flat label
  /// arrays stay zero-copy views into the reader's buffer; the (small)
  /// forest arrays are always owned copies.
  static Result<IntervalLabeling> Deserialize(BinaryReader& r,
                                              const BorrowContext& ctx);

  VertexId num_vertices() const { return flat_.num_vertices(); }

  /// The 1-based post-order number of `v`.
  uint32_t post(VertexId v) const { return forest_.post[v]; }

  /// The vertex with post-order number `p` (p in 1..n).
  VertexId VertexOfPost(uint32_t p) const { return forest_.vertex_of_post[p]; }

  /// The label set L(v), as a view into the flat store.
  LabelView Labels(VertexId v) const { return flat_.View(v); }

  /// Lemma 3.1: u is reachable from v iff a label of v contains post(u).
  bool CanReach(VertexId v, VertexId u) const {
    return flat_.Contains(v, forest_.post[u]);
  }

  /// Batched Lemma 3.1 probe: bit k set iff v reaches targets[k]
  /// (count <= simd::kMaskWidth). One dispatched kernel call answers the
  /// whole batch — the SpaReach-INT candidate-loop shape.
  uint64_t CanReachMask(VertexId v, const VertexId* targets,
                        size_t count) const {
    uint32_t posts[simd::kMaskWidth];
    for (size_t k = 0; k < count; ++k) posts[k] = forest_.post[targets[k]];
    const auto run = flat_.Intervals(v);
    return simd::IntervalContainsMany(run.data(), run.size(), posts, count);
  }

  /// Arbitrary-count batched Lemma 3.1 probe: out[k] = 1 iff v reaches
  /// targets[k]. The label run of v is fetched once and re-dispatched
  /// against simd::kMaskWidth posts at a time, so a caller holding many
  /// targets (the work-sharing scheduler's grouped SpaReach-INT path)
  /// pays one flat-store lookup for the whole batch.
  void CanReachManyInto(VertexId v, const VertexId* targets, size_t count,
                        uint8_t* out) const {
    const auto run = flat_.Intervals(v);
    uint32_t posts[simd::kMaskWidth];
    for (size_t base = 0; base < count; base += simd::kMaskWidth) {
      const size_t chunk = std::min(simd::kMaskWidth, count - base);
      for (size_t k = 0; k < chunk; ++k) {
        posts[k] = forest_.post[targets[base + k]];
      }
      const uint64_t mask =
          simd::IntervalContainsMany(run.data(), run.size(), posts, chunk);
      for (size_t k = 0; k < chunk; ++k) {
        out[base + k] = static_cast<uint8_t>((mask >> k) & 1);
      }
    }
  }

  /// Enumerates the descendants D(v) (including v itself, Equation 1),
  /// calling `fn(vertex)` until it returns false. Each label [l,h] is a
  /// relational range scan over the post -> vertex array. Returns true
  /// when stopped early.
  template <typename Fn>
  bool ForEachDescendant(VertexId v, Fn&& fn) const {
    for (const Interval& interval : flat_.Intervals(v)) {
      for (uint32_t p = interval.lo; p <= interval.hi; ++p) {
        if (!fn(forest_.vertex_of_post[p])) return true;
      }
    }
    return false;
  }

  /// Materializes D(v) including v itself.
  std::vector<VertexId> Descendants(VertexId v) const;

  /// The spanning forest the labeling was built on (exposed for tests).
  const SpanningForest& forest() const { return forest_; }

  /// The frozen label storage (exposed for tests and size accounting).
  const FlatLabelStore& flat_store() const { return flat_; }
  /// True when the label intervals were loaded kPaged and stay on disk.
  bool paged() const { return flat_.paged(); }

  const Stats& stats() const { return stats_; }

  /// Main-memory footprint of the labeling in bytes (labels + post arrays).
  size_t SizeBytes() const;

 private:
  IntervalLabeling() = default;

  SpanningForest forest_;
  FlatLabelStore flat_;
  Stats stats_;
};

}  // namespace gsr

#endif  // GSR_LABELING_INTERVAL_LABELING_H_
