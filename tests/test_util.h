#ifndef GSR_TESTS_TEST_UTIL_H_
#define GSR_TESTS_TEST_UTIL_H_

#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/geosocial_network.h"
#include "core/range_reach.h"
#include "graph/digraph.h"

namespace gsr::testing {

/// The whole contents of the file at `path` (empty when unreadable).
inline std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// RangeReachEnum as a value: the reachable spatial vertices of `vertex`
/// inside `region`, ascending, evaluated on `scratch`.
inline std::vector<VertexId> EnumOf(const RangeReachMethod& method,
                                    VertexId vertex, const Rect& region,
                                    QueryScratch& scratch) {
  std::vector<VertexId> out;
  method.EvaluateEnumInto(vertex, region, scratch, out);
  return out;
}

/// One scratch per method, index-aligned with `methods`.
inline std::vector<std::unique_ptr<QueryScratch>> NewScratches(
    const std::vector<std::unique_ptr<RangeReachMethod>>& methods) {
  std::vector<std::unique_ptr<QueryScratch>> scratches;
  for (const auto& method : methods) scratches.push_back(method->NewScratch());
  return scratches;
}

/// A random DAG: edges only go from lower to higher id (then ids are
/// shuffled implicitly by the caller if needed). `density` is the expected
/// number of edges per vertex.
inline DiGraph RandomDag(uint32_t n, double density, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<VertexId, VertexId>> edges;
  const uint64_t target = static_cast<uint64_t>(density * n);
  for (uint64_t e = 0; e < target; ++e) {
    const VertexId a = static_cast<VertexId>(rng.NextBounded(n));
    const VertexId b = static_cast<VertexId>(rng.NextBounded(n));
    if (a == b) continue;
    edges.emplace_back(std::min(a, b), std::max(a, b));
  }
  auto graph = DiGraph::FromEdges(n, std::move(edges));
  GSR_CHECK(graph.ok());
  return std::move(graph).value();
}

/// A random directed graph (cycles allowed).
inline DiGraph RandomDigraph(uint32_t n, double density, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<VertexId, VertexId>> edges;
  const uint64_t target = static_cast<uint64_t>(density * n);
  for (uint64_t e = 0; e < target; ++e) {
    const VertexId a = static_cast<VertexId>(rng.NextBounded(n));
    const VertexId b = static_cast<VertexId>(rng.NextBounded(n));
    if (a != b) edges.emplace_back(a, b);
  }
  auto graph = DiGraph::FromEdges(n, std::move(edges));
  GSR_CHECK(graph.ok());
  return std::move(graph).value();
}

/// A random geosocial network (cycles allowed); a random subset of the
/// vertices is spatial with uniform points in [0, 100]^2.
inline GeoSocialNetwork RandomGeoSocialNetwork(uint32_t n, double density,
                                               double spatial_fraction,
                                               uint64_t seed) {
  Rng rng(seed);
  DiGraph graph = RandomDigraph(n, density, seed ^ 0x5bd1e995u);
  std::vector<std::optional<Point2D>> points(graph.num_vertices());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (rng.NextBernoulli(spatial_fraction)) {
      points[v] = Point2D{rng.NextDoubleInRange(0, 100),
                          rng.NextDoubleInRange(0, 100)};
    }
  }
  auto network = GeoSocialNetwork::Create(std::move(graph), points);
  GSR_CHECK(network.ok());
  return std::move(network).value();
}

/// Vertex naming for the paper's running example (Figure 1).
enum FigureOneVertex : VertexId {
  kA = 0,
  kB = 1,
  kC = 2,
  kD = 3,
  kE = 4,
  kF = 5,
  kG = 6,
  kH = 7,
  kI = 8,
  kJ = 9,
  kK = 10,
  kL = 11,
};

/// The 12-vertex geosocial network of Figure 1, reconstructed from the
/// paper's worked examples:
///  - edges: a->b, a->d, a->j, b->e, b->l, b->d, c->i, c->k, c->d, e->f,
///    g->i, i->f, j->g, j->h, l->h  (spanning edges of Figure 3 plus the
///    dashed non-spanning edges (l,h), (b,d), (g,i), (i,f), (c,d));
///  - spatial vertices: e, f, h, i (venues; e and h lie inside the example
///    query region R, f and i outside).
inline GeoSocialNetwork FigureOneNetwork() {
  GraphBuilder builder;
  builder.ReserveVertices(12);
  const std::vector<std::pair<VertexId, VertexId>> edges = {
      {kA, kB}, {kA, kD}, {kA, kJ}, {kB, kE}, {kB, kL},
      {kB, kD}, {kC, kI}, {kC, kK}, {kC, kD}, {kE, kF},
      {kG, kI}, {kI, kF}, {kJ, kG}, {kJ, kH}, {kL, kH},
  };
  for (const auto& [from, to] : edges) builder.AddEdge(from, to);
  auto graph = builder.Build();
  GSR_CHECK(graph.ok());

  std::vector<std::optional<Point2D>> points(12);
  points[kE] = Point2D{6.0, 6.0};  // Inside R.
  points[kH] = Point2D{7.0, 5.0};  // Inside R.
  points[kF] = Point2D{1.0, 8.0};  // Outside R.
  points[kI] = Point2D{9.0, 1.0};  // Outside R.
  auto network = GeoSocialNetwork::Create(std::move(graph).value(), points);
  GSR_CHECK(network.ok());
  return std::move(network).value();
}

/// The example query region R of Figure 1: contains e and h only.
inline Rect FigureOneRegion() { return Rect(5.0, 4.0, 8.0, 7.0); }

}  // namespace gsr::testing

#endif  // GSR_TESTS_TEST_UTIL_H_
