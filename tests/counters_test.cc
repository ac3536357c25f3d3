#include <gtest/gtest.h>

#include "core/geo_reach.h"
#include "core/soc_reach.h"
#include "core/spa_reach.h"
#include "core/three_d_reach.h"
#include "tests/test_util.h"

namespace gsr {
namespace {

/// The per-method cost counters back the analysis bench; their semantics
/// are pinned down here on hand-built networks.

GeoSocialNetwork StarNetwork(uint32_t venues) {
  // Vertex 0 checks into `venues` venues spread over [0, venues) x {0}.
  GraphBuilder builder;
  builder.ReserveVertices(venues + 1);
  std::vector<std::optional<Point2D>> points(venues + 1);
  for (uint32_t i = 0; i < venues; ++i) {
    builder.AddEdge(0, i + 1);
    points[i + 1] = Point2D{static_cast<double>(i), 0.0};
  }
  auto graph = builder.Build();
  GSR_CHECK(graph.ok());
  auto network = GeoSocialNetwork::Create(std::move(graph).value(), points);
  GSR_CHECK(network.ok());
  return std::move(network).value();
}

TEST(CountersTest, SpaReachCandidatesEqualRangeResult) {
  const GeoSocialNetwork network = StarNetwork(20);
  const CondensedNetwork cn(&network);
  const SpaReachBfl method(&cn);
  const auto scratch = method.NewScratch();

  // Region covering venues 0..9 (x in [0, 9]): 10 candidates. The query
  // vertex reaches the very first candidate, so at least 1 and at most 10
  // GReach calls are issued.
  EXPECT_TRUE(method.Evaluate(0, Rect(-0.5, -1, 9.5, 1), *scratch));
  method.DrainScratchCounters(*scratch);
  EXPECT_EQ(method.counters().queries, 1u);
  EXPECT_EQ(method.counters().candidates, 10u);
  EXPECT_GE(method.counters().greach_calls, 1u);
  EXPECT_LE(method.counters().greach_calls, 10u);

  // A negative query from a venue probes every candidate.
  method.ResetCounters();
  EXPECT_FALSE(method.Evaluate(1, Rect(4.5, -1, 9.5, 1), *scratch));
  method.DrainScratchCounters(*scratch);
  EXPECT_EQ(method.counters().candidates, 5u);
  EXPECT_EQ(method.counters().greach_calls, 5u);
}

TEST(CountersTest, SocReachMaterializesAllDescendants) {
  const GeoSocialNetwork network = StarNetwork(15);
  const CondensedNetwork cn(&network);
  const SocReach method(&cn);
  const auto scratch = method.NewScratch();
  // Vertex 0 has 16 descendants (itself + 15 venues); a query with an
  // empty-region answer still materializes all of them.
  EXPECT_FALSE(method.Evaluate(0, Rect(100, 100, 101, 101), *scratch));
  method.DrainScratchCounters(*scratch);
  EXPECT_EQ(method.counters().descendants, 16u);
  EXPECT_EQ(method.counters().containment_tests, 16u);

  // A positive query stops testing early but materializes D(v) anyway.
  method.ResetCounters();
  EXPECT_TRUE(method.Evaluate(0, Rect(-1, -1, 20, 1), *scratch));
  method.DrainScratchCounters(*scratch);
  EXPECT_EQ(method.counters().descendants, 16u);
  EXPECT_LE(method.counters().containment_tests, 16u);
}

TEST(CountersTest, ThreeDReachIssuesOneQueryPerLabel) {
  const GeoSocialNetwork network = StarNetwork(10);
  const CondensedNetwork cn(&network);
  const ThreeDReach method(&cn);
  const auto scratch = method.NewScratch();
  const ComponentId source = cn.ComponentOf(0);
  const size_t labels = method.labeling().Labels(source).size();
  // Negative answer: every label's cuboid is issued.
  EXPECT_FALSE(method.Evaluate(0, Rect(100, 100, 101, 101), *scratch));
  method.DrainScratchCounters(*scratch);
  EXPECT_EQ(method.counters().range_queries, labels);
  // Positive answer: stops at the first matching cuboid.
  method.ResetCounters();
  EXPECT_TRUE(method.Evaluate(0, Rect(-1, -1, 20, 1), *scratch));
  method.DrainScratchCounters(*scratch);
  EXPECT_GE(method.counters().range_queries, 1u);
  EXPECT_LE(method.counters().range_queries, labels);
}

TEST(CountersTest, GeoReachVisitCounts) {
  const GeoSocialNetwork network = StarNetwork(12);
  const CondensedNetwork cn(&network);
  const GeoReachMethod method(&cn);
  const auto scratch = method.NewScratch();
  // Negative query from vertex 0: unless pruned at the source, the BFS
  // walks the star. Either way at least the source is visited.
  method.Evaluate(0, Rect(100, 100, 101, 101), *scratch);
  method.DrainScratchCounters(*scratch);
  EXPECT_EQ(method.counters().queries, 1u);
  EXPECT_GE(method.counters().vertices_visited, 1u);
  EXPECT_LE(method.counters().pruned, method.counters().vertices_visited);
}

TEST(CountersTest, CountersAccumulateAcrossQueries) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(100, 2.0, 0.5, 21);
  const CondensedNetwork cn(&network);
  const SpaReachBfl spa(&cn);
  const SocReach soc(&cn);
  const ThreeDReach threed(&cn);
  const GeoReachMethod geo(&cn);
  const auto spa_scratch = spa.NewScratch();
  const auto soc_scratch = soc.NewScratch();
  const auto threed_scratch = threed.NewScratch();
  const auto geo_scratch = geo.NewScratch();
  Rng rng(22);
  for (int q = 0; q < 25; ++q) {
    const VertexId v = static_cast<VertexId>(rng.NextBounded(100));
    const Rect region(10, 10, 60, 60);
    spa.Evaluate(v, region, *spa_scratch);
    soc.Evaluate(v, region, *soc_scratch);
    threed.Evaluate(v, region, *threed_scratch);
    geo.Evaluate(v, region, *geo_scratch);
  }
  spa.DrainScratchCounters(*spa_scratch);
  soc.DrainScratchCounters(*soc_scratch);
  threed.DrainScratchCounters(*threed_scratch);
  geo.DrainScratchCounters(*geo_scratch);
  EXPECT_EQ(spa.counters().queries, 25u);
  EXPECT_EQ(soc.counters().queries, 25u);
  EXPECT_EQ(threed.counters().queries, 25u);
  EXPECT_EQ(geo.counters().queries, 25u);
  spa.ResetCounters();
  EXPECT_EQ(spa.counters().queries, 0u);
}

}  // namespace
}  // namespace gsr
