#include <gtest/gtest.h>

#include <filesystem>

#include "core/condensed_network.h"
#include "core/method_factory.h"
#include "core/three_d_reach.h"
#include "datagen/generator.h"
#include "datagen/io.h"
#include "datagen/workload.h"

namespace gsr {
namespace {

/// Full-pipeline integration: generate -> save -> load -> index -> query.
/// The loaded network must be indistinguishable from the generated one for
/// every method, over a realistic workload.
TEST(EndToEndTest, SaveLoadIndexQueryPipeline) {
  GeneratorConfig config;
  config.num_users = 800;
  config.num_venues = 1500;
  config.num_friendships = 5000;
  config.num_checkins = 9000;
  config.core_fraction = 0.6;
  config.seed = 20250706;
  const GeoSocialNetwork generated = GenerateGeoSocialNetwork(config);

  const std::string prefix =
      (std::filesystem::temp_directory_path() / "gsr_e2e").string();
  ASSERT_TRUE(SaveGeoSocialNetwork(generated, prefix).ok());
  auto loaded = LoadGeoSocialNetwork(prefix);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const CondensedNetwork cn_generated(&generated);
  const CondensedNetwork cn_loaded(&*loaded);
  EXPECT_EQ(cn_generated.num_components(), cn_loaded.num_components());

  const ThreeDReach index_generated(&cn_generated);
  const auto generated_scratch = index_generated.NewScratch();
  const ThreeDReach index_loaded(&cn_loaded);
  const auto loaded_scratch = index_loaded.NewScratch();

  WorkloadGenerator workload(&generated, 42);
  QuerySpec spec;
  spec.count = 300;
  spec.min_out_degree = 1;
  spec.max_out_degree = 1u << 30;
  for (const auto& [vertex, region] : workload.Generate(spec)) {
    ASSERT_EQ(index_generated.Evaluate(vertex, region, *generated_scratch),
              index_loaded.Evaluate(vertex, region, *loaded_scratch));
  }

  std::filesystem::remove(prefix + ".edges");
  std::filesystem::remove(prefix + ".points");
}

/// Workload selectivity mode drives every method consistently end to end.
TEST(EndToEndTest, SelectivityWorkloadAcrossMethods) {
  GeneratorConfig config;
  config.num_users = 500;
  config.num_venues = 2000;
  config.num_friendships = 3000;
  config.num_checkins = 6000;
  config.core_fraction = 1.0;
  config.seed = 77;
  const GeoSocialNetwork network = GenerateGeoSocialNetwork(config);
  const CondensedNetwork cn(&network);

  MethodConfig reference_config;
  reference_config.kind = MethodKind::kNaiveBfs;
  const auto reference = CreateMethod(&cn, reference_config);
  const auto reference_scratch = reference->NewScratch();

  WorkloadGenerator workload(&network, 11);
  for (const double selectivity : PaperSelectivities()) {
    QuerySpec spec;
    spec.count = 40;
    spec.selectivity_percent = selectivity;
    const auto queries = workload.Generate(spec);
    for (const MethodKind kind :
         {MethodKind::kSpaReachBfl, MethodKind::kSpaReachPll,
          MethodKind::kSpaReachFeline, MethodKind::kThreeDReach,
          MethodKind::kThreeDReachRev}) {
      MethodConfig method_config;
      method_config.kind = kind;
      const auto method = CreateMethod(&cn, method_config);
      const auto scratch = method->NewScratch();
      for (const auto& [vertex, region] : queries) {
        ASSERT_EQ(method->Evaluate(vertex, region, *scratch),
                  reference->Evaluate(vertex, region, *reference_scratch))
            << method->name() << " selectivity " << selectivity;
      }
    }
  }
}

}  // namespace
}  // namespace gsr
