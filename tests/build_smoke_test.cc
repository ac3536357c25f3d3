// Fast end-to-end sanity pass of the parallel index-construction
// pipeline: generate one tiny synthetic dataset, build every Figure 7
// method serially and with a 2-thread pool, and assert the labeling
// statistics, index sizes and query answers match. This is the ctest
// behind the `build_smoke` convenience target (`cmake --build build
// --target build_smoke`).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/condensed_network.h"
#include "core/method_factory.h"
#include "core/naive_bfs.h"
#include "datagen/generator.h"
#include "datagen/workload.h"
#include "labeling/interval_labeling.h"

namespace gsr {
namespace {

GeoSocialNetwork TinyNetwork() {
  GeneratorConfig config;
  config.num_users = 200;
  config.num_venues = 300;
  config.num_friendships = 900;
  config.num_checkins = 1200;
  config.seed = 4242;
  return GenerateGeoSocialNetwork(config);
}

TEST(BuildSmokeTest, TwoThreadBuildMatchesSerial) {
  const GeoSocialNetwork network = TinyNetwork();
  const CondensedNetwork cn(&network);

  // Labeling statistics (the Table 6 numbers) are construction-order
  // sensitive by nature; the parallel pipeline must reproduce them bit
  // for bit.
  const IntervalLabeling serial_labeling = IntervalLabeling::Build(cn.dag());
  exec::ThreadPool pool(2);
  const IntervalLabeling parallel_labeling =
      IntervalLabeling::Build(cn.dag(), IntervalLabeling::Options{}, &pool);
  EXPECT_EQ(parallel_labeling.stats().uncompressed_labels,
            serial_labeling.stats().uncompressed_labels);
  EXPECT_EQ(parallel_labeling.stats().compressed_labels,
            serial_labeling.stats().compressed_labels);
  EXPECT_EQ(parallel_labeling.stats().non_tree_edges,
            serial_labeling.stats().non_tree_edges);
  EXPECT_EQ(parallel_labeling.stats().forest_trees,
            serial_labeling.stats().forest_trees);
  EXPECT_EQ(parallel_labeling.flat_store().SizeBytes(),
            serial_labeling.flat_store().SizeBytes());

  // Every method of the final comparison: same index size, same answers.
  const NaiveBfsMethod oracle(&network);
  const auto oracle_scratch = oracle.NewScratch();
  WorkloadGenerator workload(&network, /*seed=*/4243);
  QuerySpec spec;
  spec.count = 60;
  spec.min_out_degree = 1;
  spec.max_out_degree = 1u << 30;
  const std::vector<RangeReachQuery> queries = workload.Generate(spec);

  for (MethodConfig config : Figure7MethodConfigs()) {
    config.build.num_threads = 1;
    const auto serial = CreateMethod(&cn, config);
    const auto serial_scratch = serial->NewScratch();
    config.build.num_threads = 2;
    const auto parallel = CreateMethod(&cn, config);
    const auto parallel_scratch = parallel->NewScratch();
    EXPECT_EQ(parallel->IndexSizeBytes(), serial->IndexSizeBytes())
        << serial->name();
    for (const auto& [vertex, region] : queries) {
      const bool expected = oracle.Evaluate(vertex, region, *oracle_scratch);
      ASSERT_EQ(serial->Evaluate(vertex, region, *serial_scratch), expected)
          << serial->name();
      ASSERT_EQ(parallel->Evaluate(vertex, region, *parallel_scratch), expected)
          << parallel->name();
    }
  }
}

}  // namespace
}  // namespace gsr
