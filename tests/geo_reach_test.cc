#include "core/geo_reach.h"

#include <gtest/gtest.h>

#include "core/naive_bfs.h"
#include "tests/test_util.h"

namespace gsr {
namespace {

TEST(GeoReachTest, ClassifiesFigureOne) {
  const GeoSocialNetwork network = testing::FigureOneNetwork();
  const CondensedNetwork cn(&network);
  GeoReachMethod::Options options;
  options.grid_depth = 3;
  options.max_reach_grids = 8;
  options.merge_count = 3;
  options.max_rmbr_ratio = 0.8;
  const GeoReachMethod geo(&cn, options);

  // Vertices reaching no spatial vertex are B-vertices with GeoB = false.
  EXPECT_EQ(geo.ClassOf(cn.ComponentOf(testing::kD)),
            GeoReachMethod::SpaClass::kBFalse);
  EXPECT_EQ(geo.ClassOf(cn.ComponentOf(testing::kK)),
            GeoReachMethod::SpaClass::kBFalse);
  // Spatial leaves carry their own cell.
  EXPECT_EQ(geo.ClassOf(cn.ComponentOf(testing::kE)),
            GeoReachMethod::SpaClass::kG);
  EXPECT_FALSE(geo.ReachGridOf(cn.ComponentOf(testing::kE)).empty());

  const auto counts = geo.CountClasses();
  EXPECT_EQ(counts.b_false + counts.b_true + counts.r + counts.g,
            cn.num_components());
  EXPECT_GT(counts.g, 0u);
}

TEST(GeoReachTest, RmbrCoversReachablePoints) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(150, 2.0, 0.4, 7);
  const CondensedNetwork cn(&network);
  GeoReachMethod::Options options;
  options.max_reach_grids = 2;  // Force many R-vertices.
  options.max_rmbr_ratio = 1.1;  // But never downgrade to B.
  const GeoReachMethod geo(&cn, options);
  BfsTraversal bfs(&network.graph());

  for (VertexId v = 0; v < network.num_vertices(); v += 3) {
    const ComponentId c = cn.ComponentOf(v);
    if (geo.ClassOf(c) != GeoReachMethod::SpaClass::kR) continue;
    const Rect& rmbr = geo.RmbrOf(c);
    bfs.ForEachReachable(v, [&](VertexId u) {
      if (network.IsSpatial(u)) {
        EXPECT_TRUE(rmbr.Contains(network.PointOf(u)))
            << "RMBR of " << v << " misses point of " << u;
      }
      return true;
    });
  }
}

TEST(GeoReachTest, BFalseExactlyWhenNothingSpatialReachable) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(120, 1.5, 0.3, 13);
  const CondensedNetwork cn(&network);
  const GeoReachMethod geo(&cn);
  BfsTraversal bfs(&network.graph());
  for (VertexId v = 0; v < network.num_vertices(); ++v) {
    bool reaches_spatial = false;
    bfs.ForEachReachable(v, [&](VertexId u) {
      if (network.IsSpatial(u)) {
        reaches_spatial = true;
        return false;
      }
      return true;
    });
    const bool is_b_false = geo.ClassOf(cn.ComponentOf(v)) ==
                            GeoReachMethod::SpaClass::kBFalse;
    EXPECT_EQ(is_b_false, !reaches_spatial) << "vertex " << v;
  }
}

class GeoReachOptionsTest
    : public ::testing::TestWithParam<GeoReachMethod::Options> {};

TEST_P(GeoReachOptionsTest, AgreesWithNaiveUnderAllSettings) {
  // The SPA-Graph parameters trade pruning power for size; none of them
  // may change answers.
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(150, 2.5, 0.4, 29);
  const CondensedNetwork cn(&network);
  const GeoReachMethod geo(&cn, GetParam());
  const auto geo_scratch = geo.NewScratch();
  const NaiveBfsMethod oracle(&network);
  const auto oracle_scratch = oracle.NewScratch();
  Rng rng(31);
  for (int q = 0; q < 200; ++q) {
    const VertexId v =
        static_cast<VertexId>(rng.NextBounded(network.num_vertices()));
    const double x = rng.NextDoubleInRange(0, 90);
    const double y = rng.NextDoubleInRange(0, 90);
    const Rect region(x, y, x + 20, y + 20);
    ASSERT_EQ(geo.Evaluate(v, region, *geo_scratch),
              oracle.Evaluate(v, region, *oracle_scratch))
        << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ParameterSweep, GeoReachOptionsTest,
    ::testing::Values(
        GeoReachMethod::Options{.grid_depth = 2,
                                .max_rmbr_ratio = 0.8,
                                .max_reach_grids = 4,
                                .merge_count = 1},
        GeoReachMethod::Options{.grid_depth = 5,
                                .max_rmbr_ratio = 0.5,
                                .max_reach_grids = 16,
                                .merge_count = 3},
        GeoReachMethod::Options{.grid_depth = 7,
                                .max_rmbr_ratio = 0.2,
                                .max_reach_grids = 2,
                                .merge_count = 1},
        GeoReachMethod::Options{.grid_depth = 4,
                                .max_rmbr_ratio = 0.01,  // Nearly all B.
                                .max_reach_grids = 64,
                                .merge_count = 2},
        GeoReachMethod::Options{.grid_depth = 6,
                                .max_rmbr_ratio = 1.0,
                                .max_reach_grids = 1,  // Nearly all R.
                                .merge_count = 1}));

TEST(GeoReachTest, NetworkWithoutSpatialVertices) {
  auto graph = DiGraph::FromEdges(5, {{0, 1}, {1, 2}, {3, 4}});
  ASSERT_TRUE(graph.ok());
  auto network = GeoSocialNetwork::Create(
      std::move(graph).value(), std::vector<std::optional<Point2D>>(5));
  ASSERT_TRUE(network.ok());
  const CondensedNetwork cn(&*network);
  const GeoReachMethod geo(&cn);
  const auto geo_scratch = geo.NewScratch();
  const auto counts = geo.CountClasses();
  EXPECT_EQ(counts.b_false, cn.num_components());
  for (VertexId v = 0; v < 5; ++v) {
    EXPECT_FALSE(geo.Evaluate(v, Rect(-1e9, -1e9, 1e9, 1e9), *geo_scratch));
  }
}

}  // namespace
}  // namespace gsr
