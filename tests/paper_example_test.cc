#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/condensed_network.h"
#include "core/condensed_spatial_index.h"
#include "core/method_factory.h"
#include "core/naive_bfs.h"
#include "tests/test_util.h"

namespace gsr {
namespace {

using testing::FigureOneNetwork;
using testing::FigureOneRegion;
using testing::kA;
using testing::kB;
using testing::kC;
using testing::kD;
using testing::kE;
using testing::kJ;

/// Reproduces the paper's running example (Figure 1): every method must
/// answer RangeReach(G, a, R) = TRUE and RangeReach(G, c, R) = FALSE
/// (Examples 2.3, 2.4, 2.6, 4.1, 4.2, 4.3).
class PaperExampleTest : public ::testing::TestWithParam<MethodKind> {};

TEST_P(PaperExampleTest, FigureOneQueries) {
  const GeoSocialNetwork network = FigureOneNetwork();
  const CondensedNetwork cn(&network);
  MethodConfig config;
  config.kind = GetParam();
  const auto method = CreateMethod(&cn, config);
  const auto scratch = method->NewScratch();

  const Rect region = FigureOneRegion();
  EXPECT_TRUE(method->Evaluate(kA, region, *scratch)) << method->name();
  EXPECT_FALSE(method->Evaluate(kC, region, *scratch)) << method->name();

  // More pairs derivable from Figure 1: b reaches e (in R); j reaches h
  // (in R); d reaches nothing spatial.
  EXPECT_TRUE(method->Evaluate(kB, region, *scratch)) << method->name();
  EXPECT_TRUE(method->Evaluate(kJ, region, *scratch)) << method->name();
  EXPECT_FALSE(method->Evaluate(kD, region, *scratch)) << method->name();

  // A region covering only f's point: reachable from a (via e), from c
  // (via i) and from j (via g -> i), but not from l (l only reaches h).
  const Rect around_f(0.5, 7.5, 1.5, 8.5);
  EXPECT_TRUE(method->Evaluate(kA, around_f, *scratch)) << method->name();
  EXPECT_TRUE(method->Evaluate(kC, around_f, *scratch)) << method->name();
  EXPECT_TRUE(method->Evaluate(kJ, around_f, *scratch)) << method->name();
  EXPECT_FALSE(method->Evaluate(testing::kL, around_f, *scratch))
      << method->name();
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, PaperExampleTest,
    ::testing::Values(MethodKind::kNaiveBfs, MethodKind::kSpaReachBfl,
                      MethodKind::kSpaReachInt, MethodKind::kSpaReachPll,
                      MethodKind::kSpaReachFeline, MethodKind::kGeoReach,
                      MethodKind::kSocReach, MethodKind::kThreeDReach,
                      MethodKind::kThreeDReachRev),
    [](const ::testing::TestParamInfo<MethodKind>& info) {
      std::string name = MethodKindName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(PaperExampleTest, FigureOneIsADag) {
  const GeoSocialNetwork network = FigureOneNetwork();
  const CondensedNetwork cn(&network);
  // Figure 1 has no cycles: every vertex is its own component.
  EXPECT_EQ(cn.num_components(), network.num_vertices());
}

TEST(PaperExampleTest, SpaReachCandidateSemantics) {
  // Example 2.4: the spatial range query over R returns exactly {e, h}.
  const GeoSocialNetwork network = FigureOneNetwork();
  const CondensedNetwork cn(&network);
  const CondensedSpatialIndex index(&cn, SccSpatialMode::kReplicate);
  std::vector<ComponentId> candidates;
  index.ForEachCandidate(FigureOneRegion(),
                         [&](ComponentId c, bool verified) {
                           EXPECT_TRUE(verified);
                           candidates.push_back(c);
                           return true;
                         });
  ASSERT_EQ(candidates.size(), 2u);
  const std::set<ComponentId> got(candidates.begin(), candidates.end());
  EXPECT_EQ(got, (std::set<ComponentId>{cn.ComponentOf(kE),
                                        cn.ComponentOf(testing::kH)}));
}

}  // namespace
}  // namespace gsr
