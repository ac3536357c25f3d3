// Quickstart: build a small geosocial network by hand, index it with the
// paper's 3DReach method and answer RangeReach queries.
//
//   RangeReach(G, v, R) is TRUE iff vertex v can reach, through the
//   directed edges of G, some vertex whose point lies inside region R.
//
// Run:  ./build/examples/quickstart

#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "core/condensed_network.h"
#include "core/geosocial_network.h"
#include "core/naive_bfs.h"
#include "core/three_d_reach.h"
#include "graph/digraph.h"

int main() {
  using namespace gsr;  // NOLINT

  // 1. Assemble the graph: users 0-2 (alice, bob, carol), venues 3-5.
  //    alice -> bob -> cafe(3); bob -> museum(4); carol -> park(5).
  GraphBuilder builder;
  builder.AddEdge(0, 1);  // alice follows bob
  builder.AddEdge(1, 3);  // bob checked in at the cafe
  builder.AddEdge(1, 4);  // bob checked in at the museum
  builder.AddEdge(2, 5);  // carol checked in at the park
  auto graph = builder.Build();
  if (!graph.ok()) {
    std::fprintf(stderr, "graph: %s\n", graph.status().ToString().c_str());
    return 1;
  }

  // 2. Attach coordinates to the venues (users stay non-spatial).
  std::vector<std::optional<Point2D>> points(6);
  points[3] = Point2D{2.0, 2.0};  // cafe, downtown
  points[4] = Point2D{2.5, 1.5};  // museum, downtown
  points[5] = Point2D{9.0, 9.0};  // park, uptown
  auto network = GeoSocialNetwork::Create(std::move(graph).value(), points);
  if (!network.ok()) {
    std::fprintf(stderr, "network: %s\n", network.status().ToString().c_str());
    return 1;
  }

  // 3. Build the index: SCC condensation once, then 3DReach on top.
  const CondensedNetwork cn(&*network);
  const ThreeDReach index(&cn);
  std::printf("indexed %u vertices, %llu edges, %llu venues (%zu bytes)\n",
              network->num_vertices(),
              static_cast<unsigned long long>(network->num_edges()),
              static_cast<unsigned long long>(network->num_spatial_vertices()),
              index.IndexSizeBytes());

  // 4. Ask questions. Every query runs on a scratch from NewScratch():
  //    the index itself is immutable, so one scratch per thread is all a
  //    multi-threaded caller needs.
  const std::unique_ptr<QueryScratch> scratch = index.NewScratch();
  const Rect downtown(0.0, 0.0, 4.0, 4.0);
  const Rect uptown(8.0, 8.0, 10.0, 10.0);
  const char* names[] = {"alice", "bob", "carol"};
  for (VertexId user = 0; user < 3; ++user) {
    std::printf("%s reaches downtown: %s, uptown: %s\n", names[user],
                index.Evaluate(user, downtown, *scratch) ? "yes" : "no",
                index.Evaluate(user, uptown, *scratch) ? "yes" : "no");
  }

  // 5. Richer questions on the same index: RangeReachCount/Enum project
  //    the full result set, and AnyReach asks over several sources at
  //    once — "does anyone alice or carol follows reach uptown?"
  const std::vector<VertexId> friends = {0, 2};  // alice and carol
  std::printf("alice's downtown venues: %llu (enum:",
              static_cast<unsigned long long>(
                  index.EvaluateCount(0, downtown, *scratch)));
  std::vector<VertexId> venues;
  index.EvaluateEnumInto(0, downtown, *scratch, venues);
  for (const VertexId venue : venues) std::printf(" #%u", venue);
  std::printf(")\n");
  std::printf("any of {alice, carol} reaches uptown: %s\n",
              index.EvaluateAny(friends, uptown, *scratch) ? "yes" : "no");

  // 6. Sanity: the index-free oracle agrees.
  const NaiveBfsMethod oracle(&*network);
  const std::unique_ptr<QueryScratch> oracle_scratch = oracle.NewScratch();
  for (VertexId user = 0; user < 3; ++user) {
    if (index.Evaluate(user, downtown, *scratch) !=
        oracle.Evaluate(user, downtown, *oracle_scratch)) {
      std::fprintf(stderr, "index disagrees with BFS oracle!\n");
      return 1;
    }
  }
  std::printf("3DReach agrees with the BFS oracle on every query.\n");
  return 0;
}
