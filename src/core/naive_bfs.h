#ifndef GSR_CORE_NAIVE_BFS_H_
#define GSR_CORE_NAIVE_BFS_H_

#include <memory>
#include <string>

#include "core/geosocial_network.h"
#include "core/range_reach.h"
#include "graph/traversal.h"

namespace gsr {

/// Index-free RangeReach evaluation: a plain BFS over the *original*
/// network from the query vertex, testing every visited spatial vertex
/// against the region. O(|V| + |E|) per query and trivially correct — the
/// ground truth every indexed method is validated against in the tests.
class NaiveBfsMethod : public RangeReachMethod {
 public:
  /// Binds to `network`, which must outlive this object.
  explicit NaiveBfsMethod(const GeoSocialNetwork* network)
      : network_(network) {}

  /// Per-thread BFS state (visited marks + frontier queue).
  struct Scratch : QueryScratch {
    explicit Scratch(const DiGraph* graph) : bfs(graph) {}
    BfsTraversal bfs;
  };

  std::unique_ptr<QueryScratch> NewScratch() const override {
    return std::make_unique<Scratch>(&network_->graph());
  }

  bool Evaluate(VertexId vertex, const Rect& region,
                QueryScratch& scratch) const override {
    BfsTraversal& bfs = static_cast<Scratch&>(scratch).bfs;
    bool found = false;
    bfs.ForEachReachable(vertex, [&](VertexId v) {
      if (network_->IsSpatial(v) && region.Contains(network_->PointOf(v))) {
        found = true;
        return false;
      }
      return true;
    });
    return found;
  }

  /// Same BFS without the early exit, delivering every spatial vertex
  /// inside the region. BFS visits each vertex once, so the sink's
  /// exactly-once contract holds for free — this is the count/enum
  /// ground truth, like Evaluate is for boolean.
  void CollectInto(VertexId vertex, const Rect& region, ResultSink& sink,
                   QueryScratch& scratch) const override {
    BfsTraversal& bfs = static_cast<Scratch&>(scratch).bfs;
    bfs.ForEachReachable(vertex, [&](VertexId v) {
      if (network_->IsSpatial(v) && region.Contains(network_->PointOf(v))) {
        return sink.Add(v);
      }
      return true;
    });
  }


  VertexId num_vertices() const override { return network_->num_vertices(); }

  std::string name() const override { return "NaiveBFS"; }

  size_t IndexSizeBytes() const override { return 0; }  // No index at all.

 private:
  const GeoSocialNetwork* network_;
};

}  // namespace gsr

#endif  // GSR_CORE_NAIVE_BFS_H_
