#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "core/condensed_network.h"
#include "core/method_factory.h"
#include "core/method_snapshot.h"
#include "core/naive_bfs.h"
#include "datagen/generator.h"
#include "datagen/workload.h"
#include "exec/batch_runner.h"
#include "exec/thread_pool.h"
#include "snapshot/page_cache.h"
#include "tests/test_util.h"

namespace gsr {
namespace {

/// The central correctness property of the whole library: every evaluation
/// method, under both SCC spatial modes, must answer exactly like the
/// index-free BFS ground truth on arbitrary (cyclic) geosocial networks.

struct AgreementCase {
  uint32_t n;
  double density;
  double spatial_fraction;
  uint64_t seed;
};

std::vector<MethodConfig> AllConfigs() {
  std::vector<MethodConfig> configs;
  for (const MethodKind kind :
       {MethodKind::kSpaReachBfl, MethodKind::kSpaReachInt,
        MethodKind::kSpaReachPll, MethodKind::kSpaReachFeline,
        MethodKind::kGeoReach, MethodKind::kSocReach, MethodKind::kThreeDReach,
        MethodKind::kThreeDReachRev, MethodKind::kPlanner}) {
    for (const SccSpatialMode mode :
         {SccSpatialMode::kReplicate, SccSpatialMode::kMbr}) {
      MethodConfig config;
      config.kind = kind;
      config.scc_mode = mode;
      configs.push_back(config);
      // SocReach/GeoReach ignore the mode; keep one instance each.
      if (kind == MethodKind::kSocReach || kind == MethodKind::kGeoReach) {
        break;
      }
    }
  }
  // A second planner portfolio covering the member kinds the default
  // ({BFL, SocReach, 3DReach}) leaves out, so agreement and the snapshot
  // round-trip exercise every inline member representation.
  MethodConfig wide;
  wide.kind = MethodKind::kPlanner;
  wide.planner.portfolio = {
      MethodKind::kSpaReachInt, MethodKind::kSpaReachPll,
      MethodKind::kSpaReachFeline, MethodKind::kGeoReach,
      MethodKind::kThreeDReachRev};
  wide.planner.calibration_samples = 8;  // Keep test builds quick.
  configs.push_back(wide);
  return configs;
}

class MethodsAgreementTest : public ::testing::TestWithParam<AgreementCase> {};

TEST_P(MethodsAgreementTest, AllMethodsMatchNaiveBfs) {
  const AgreementCase& param = GetParam();
  const GeoSocialNetwork network = testing::RandomGeoSocialNetwork(
      param.n, param.density, param.spatial_fraction, param.seed);
  const CondensedNetwork cn(&network);
  const NaiveBfsMethod oracle(&network);
  const std::unique_ptr<QueryScratch> oracle_scratch = oracle.NewScratch();

  std::vector<std::unique_ptr<RangeReachMethod>> methods;
  for (const MethodConfig& config : AllConfigs()) {
    methods.push_back(CreateMethod(&cn, config));
  }
  const auto scratches = testing::NewScratches(methods);

  Rng rng(param.seed ^ 0xABCDEF);
  for (int q = 0; q < 150; ++q) {
    const VertexId v =
        static_cast<VertexId>(rng.NextBounded(network.num_vertices()));
    const double x = rng.NextDoubleInRange(-10, 100);
    const double y = rng.NextDoubleInRange(-10, 100);
    const Rect region(x, y, x + rng.NextDoubleInRange(0, 60),
                      y + rng.NextDoubleInRange(0, 60));
    const bool expected = oracle.Evaluate(v, region, *oracle_scratch);
    for (size_t m = 0; m < methods.size(); ++m) {
      const auto& method = methods[m];
      ASSERT_EQ(method->Evaluate(v, region, *scratches[m]), expected)
          << method->name() << " disagrees on vertex " << v << " region "
          << region.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomNetworks, MethodsAgreementTest,
    ::testing::Values(
        AgreementCase{30, 1.5, 0.5, 1}, AgreementCase{60, 2.0, 0.3, 2},
        AgreementCase{100, 3.0, 0.4, 3}, AgreementCase{100, 1.0, 0.2, 4},
        AgreementCase{200, 2.5, 0.5, 5}, AgreementCase{200, 4.0, 0.1, 6},
        AgreementCase{400, 2.0, 0.3, 7}, AgreementCase{50, 5.0, 0.8, 8},
        AgreementCase{150, 0.5, 0.6, 9}, AgreementCase{300, 3.5, 0.25, 10}));

TEST(MethodsAgreementTest, ParallelBuildsMatchNaiveBfs) {
  // Index construction on a pool (STR bulk loads, labelings, GeoReach
  // waves) must not change a single answer at any build thread count.
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(400, 2.5, 0.4, 41);
  const CondensedNetwork cn(&network);
  const NaiveBfsMethod oracle(&network);
  const std::unique_ptr<QueryScratch> oracle_scratch = oracle.NewScratch();
  for (const unsigned threads : {1u, 2u, 8u}) {
    std::vector<std::unique_ptr<RangeReachMethod>> methods;
    for (MethodConfig config : AllConfigs()) {
      config.build.num_threads = threads;
      methods.push_back(CreateMethod(&cn, config));
    }
    const auto scratches = testing::NewScratches(methods);
    Rng rng(4242);
    for (int q = 0; q < 150; ++q) {
      const VertexId v =
          static_cast<VertexId>(rng.NextBounded(network.num_vertices()));
      const double x = rng.NextDoubleInRange(-10, 100);
      const double y = rng.NextDoubleInRange(-10, 100);
      const Rect region(x, y, x + rng.NextDoubleInRange(0, 60),
                        y + rng.NextDoubleInRange(0, 60));
      const bool expected = oracle.Evaluate(v, region, *oracle_scratch);
      for (size_t m = 0; m < methods.size(); ++m) {
        const auto& method = methods[m];
        ASSERT_EQ(method->Evaluate(v, region, *scratches[m]), expected)
            << method->name() << " built on " << threads
            << " threads disagrees on vertex " << v << " region "
            << region.ToString();
      }
    }
  }
}

TEST(MethodsAgreementTest, SyntheticDatasetsBothRegimes) {
  // Exercise the generator's two regimes end to end, smaller scale.
  for (const double core_fraction : {1.0, 0.5}) {
    GeneratorConfig config;
    config.num_users = 300;
    config.num_venues = 500;
    config.num_friendships = 1500;
    config.num_checkins = 2500;
    config.core_fraction = core_fraction;
    config.seed = 777;
    const GeoSocialNetwork network = GenerateGeoSocialNetwork(config);
    const CondensedNetwork cn(&network);
    const NaiveBfsMethod oracle(&network);
    const std::unique_ptr<QueryScratch> oracle_scratch = oracle.NewScratch();

    std::vector<std::unique_ptr<RangeReachMethod>> methods;
    for (const MethodConfig& method_config : AllConfigs()) {
      methods.push_back(CreateMethod(&cn, method_config));
    }
    const auto scratches = testing::NewScratches(methods);

    WorkloadGenerator workload(&network, 99);
    QuerySpec spec;
    spec.count = 100;
    spec.min_out_degree = 1;
    spec.max_out_degree = 1u << 30;
    for (const RangeReachQuery& query : workload.Generate(spec)) {
      const bool expected = oracle.Evaluate(query.vertex, query.region,
                                            *oracle_scratch);
      for (size_t m = 0; m < methods.size(); ++m) {
        const auto& method = methods[m];
        ASSERT_EQ(method->Evaluate(query.vertex, query.region, *scratches[m]),
                  expected)
            << method->name() << " core_fraction=" << core_fraction;
      }
    }
  }
}

TEST(MethodsAgreementTest, EmptyRegionIsAlwaysFalse) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(50, 2.0, 0.5, 42);
  const CondensedNetwork cn(&network);
  for (const MethodConfig& config : AllConfigs()) {
    const auto method = CreateMethod(&cn, config);
    const auto scratch = method->NewScratch();
    for (VertexId v = 0; v < network.num_vertices(); v += 5) {
      EXPECT_FALSE(method->Evaluate(v, Rect(), *scratch)) << method->name();
    }
  }
}

TEST(MethodsAgreementTest, QueryVertexItselfSpatial) {
  // A spatial query vertex inside R must yield TRUE (paths of length 0).
  GraphBuilder builder;
  builder.ReserveVertices(2);
  builder.AddEdge(0, 1);
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  std::vector<std::optional<Point2D>> points(2);
  points[0] = Point2D{5, 5};
  auto network = GeoSocialNetwork::Create(std::move(graph).value(), points);
  ASSERT_TRUE(network.ok());
  const CondensedNetwork cn(&*network);
  for (const MethodConfig& config : AllConfigs()) {
    const auto method = CreateMethod(&cn, config);
    const auto scratch = method->NewScratch();
    EXPECT_TRUE(method->Evaluate(0, Rect(0, 0, 10, 10), *scratch))
        << method->name();
    EXPECT_FALSE(method->Evaluate(1, Rect(0, 0, 10, 10), *scratch))
        << method->name();
  }
}

TEST(MethodsAgreementTest, SnapshotLoadedMethodsMatchNaiveBfs) {
  // The snapshot guarantee: a method loaded from disk — owned copy,
  // zero-copy mmap, or the explicitly-cached paged path — answers exactly
  // like the ground truth, i.e. exactly like the instance it was saved
  // from. The paged instances here also prove the lifetime contract: the
  // LoadedMethod's page_cache handle is dropped immediately, and the
  // method keeps answering through the shared_ptr its paged arrays hold.
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(200, 2.5, 0.4, 77);
  const CondensedNetwork cn(&network);
  const NaiveBfsMethod oracle(&network);
  const std::unique_ptr<QueryScratch> oracle_scratch = oracle.NewScratch();

  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() != '/') dir += '/';

  std::vector<std::unique_ptr<RangeReachMethod>> methods;
  int config_index = 0;
  for (const MethodConfig& config : AllConfigs()) {
    const auto built = CreateMethod(&cn, config);
    const std::string path =
        dir + "agreement_" + std::to_string(config_index++) + ".snap";
    ASSERT_TRUE(SaveMethodSnapshot(*built, config, cn, path).ok())
        << built->name();
    for (const snapshot::LoadMode mode :
         {snapshot::LoadMode::kOwnedCopy, snapshot::LoadMode::kMmap,
          snapshot::LoadMode::kPaged}) {
      auto loaded = LoadMethodSnapshot(&cn, path, {.mode = mode});
      ASSERT_TRUE(loaded.ok())
          << built->name() << ": " << loaded.status().ToString();
      methods.push_back(std::move(loaded->method));
    }
  }
  const auto scratches = testing::NewScratches(methods);

  Rng rng(0xFEED);
  for (int q = 0; q < 150; ++q) {
    const VertexId v =
        static_cast<VertexId>(rng.NextBounded(network.num_vertices()));
    const double x = rng.NextDoubleInRange(-10, 100);
    const double y = rng.NextDoubleInRange(-10, 100);
    const Rect region(x, y, x + rng.NextDoubleInRange(0, 60),
                      y + rng.NextDoubleInRange(0, 60));
    const bool expected = oracle.Evaluate(v, region, *oracle_scratch);
    for (size_t m = 0; m < methods.size(); ++m) {
      const auto& method = methods[m];
      ASSERT_EQ(method->Evaluate(v, region, *scratches[m]), expected)
          << "snapshot-loaded " << method->name() << " disagrees on vertex "
          << v << " region " << region.ToString();
    }
  }
}

TEST(MethodsAgreementTest, PagedTinyCacheBudgetsStayExactUnderEviction) {
  // The out-of-core guarantee: kPaged answers bit-identically to the
  // ground truth even when the cache budget is far below the index size,
  // so every descent and label probe churns through real evictions. Also
  // covers the collection kinds — count/enum force full traversals, which
  // is where a paging bug (stale frame, bad bounce copy) would surface.
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(400, 2.5, 0.4, 177);
  const CondensedNetwork cn(&network);
  const NaiveBfsMethod oracle(&network);
  const std::unique_ptr<QueryScratch> oracle_scratch = oracle.NewScratch();

  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() != '/') dir += '/';

  snapshot::PageCache::Stats total;
  int config_index = 0;
  for (const MethodConfig& config : AllConfigs()) {
    const auto built = CreateMethod(&cn, config);
    const std::string path =
        dir + "paged_tiny_" + std::to_string(config_index++) + ".snap";
    ASSERT_TRUE(SaveMethodSnapshot(*built, config, cn, path).ok())
        << built->name();
    // 16 KiB (the clamp floor of 4 frames) and 64 KiB — both far below
    // any of these indexes, so frames recycle constantly.
    for (const size_t budget : {size_t{16} << 10, size_t{64} << 10}) {
      auto loaded = LoadMethodSnapshot(
          &cn, path,
          {.mode = snapshot::LoadMode::kPaged, .page_cache_bytes = budget});
      ASSERT_TRUE(loaded.ok())
          << built->name() << ": " << loaded.status().ToString();
      ASSERT_NE(loaded->page_cache, nullptr) << built->name();
      const auto loaded_scratch = loaded->method->NewScratch();

      Rng rng(0xBADB00C + config_index);
      for (int q = 0; q < 40; ++q) {
        const VertexId v =
            static_cast<VertexId>(rng.NextBounded(network.num_vertices()));
        const double x = rng.NextDoubleInRange(-10, 100);
        const double y = rng.NextDoubleInRange(-10, 100);
        const Rect region(x, y, x + rng.NextDoubleInRange(0, 60),
                          y + rng.NextDoubleInRange(0, 60));
        ASSERT_EQ(loaded->method->Evaluate(v, region, *loaded_scratch),
                  oracle.Evaluate(v, region, *oracle_scratch))
            << loaded->method->name() << " budget " << budget << " vertex "
            << v << " region " << region.ToString();
        ASSERT_EQ(loaded->method->EvaluateCount(v, region, *loaded_scratch),
                  oracle.EvaluateCount(v, region, *oracle_scratch))
            << loaded->method->name() << " budget " << budget;
        ASSERT_EQ(testing::EnumOf(*loaded->method, v, region, *loaded_scratch),
                  testing::EnumOf(oracle, v, region, *oracle_scratch))
            << loaded->method->name() << " budget " << budget;
      }

      const snapshot::PageCache::Stats stats =
          loaded->page_cache->GetStats();
      total.hits += stats.hits;
      total.misses += stats.misses;
      total.evictions += stats.evictions;
      total.bypass_reads += stats.bypass_reads;
    }
  }
  // The cache actually served the queries — and had to recycle frames.
  EXPECT_GT(total.hits, 0u);
  EXPECT_GT(total.misses, 0u);
  EXPECT_GT(total.evictions, 0u);
}

TEST(MethodsAgreementTest, AllKernelLevelsMatchNaiveBfs) {
  // The SIMD contract: every method answers bit-identically to the BFS
  // ground truth whichever kernel level (scalar / SSE4.2 / AVX2) is
  // forced. Levels above what this machine supports clamp down, so the
  // loop is safe everywhere and exercises every level the host has.
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(250, 2.5, 0.4, 31);
  const CondensedNetwork cn(&network);
  const NaiveBfsMethod oracle(&network);
  const std::unique_ptr<QueryScratch> oracle_scratch = oracle.NewScratch();

  std::vector<std::unique_ptr<RangeReachMethod>> methods;
  for (const MethodConfig& config : AllConfigs()) {
    methods.push_back(CreateMethod(&cn, config));
  }
  const auto scratches = testing::NewScratches(methods);

  for (const simd::KernelLevel level :
       {simd::KernelLevel::kScalar, simd::KernelLevel::kSse42,
        simd::KernelLevel::kAvx2}) {
    simd::ScopedKernelLevel scoped(level);
    Rng rng(0xC0DE);  // Same query stream at every level.
    for (int q = 0; q < 120; ++q) {
      const VertexId v =
          static_cast<VertexId>(rng.NextBounded(network.num_vertices()));
      const double x = rng.NextDoubleInRange(-10, 100);
      const double y = rng.NextDoubleInRange(-10, 100);
      const Rect region(x, y, x + rng.NextDoubleInRange(0, 60),
                        y + rng.NextDoubleInRange(0, 60));
      const bool expected = oracle.Evaluate(v, region, *oracle_scratch);
      for (size_t m = 0; m < methods.size(); ++m) {
        const auto& method = methods[m];
        ASSERT_EQ(method->Evaluate(v, region, *scratches[m]), expected)
            << method->name() << " disagrees at kernel level "
            << simd::KernelLevelName(simd::ActiveLevel()) << " on vertex "
            << v << " region " << region.ToString();
      }
    }
  }
}

TEST(MethodsAgreementTest, SchedulerSharedExecutionMatchesSerial) {
  // The work-sharing scheduler's core promise: RunShared (grouped
  // EvaluateGroup execution) answers bit-identically to the serial
  // Evaluate loop — for every method and SCC mode, at every thread count
  // and forced kernel level. The workload is skewed (hot query vertices
  // re-issuing pooled regions) so real multi-member groups, duplicate
  // collapse and 64-slot splitting all actually execute.
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(220, 2.5, 0.4, 91);
  const CondensedNetwork cn(&network);

  WorkloadGenerator workload(&network, 321);
  QuerySpec spec;
  spec.count = 250;
  spec.min_out_degree = 0;
  spec.max_out_degree = 1u << 30;
  spec.vertex_zipf = 1.1;
  spec.regions_per_vertex = 3;
  const std::vector<RangeReachQuery> queries = workload.Generate(spec);

  for (const MethodConfig& config : AllConfigs()) {
    const auto method = CreateMethod(&cn, config);
    const auto scratch = method->NewScratch();
    std::vector<uint8_t> serial;
    serial.reserve(queries.size());
    for (const RangeReachQuery& query : queries) {
      serial.push_back(
          method->Evaluate(query.vertex, query.region, *scratch) ? 1 : 0);
    }

    for (const unsigned threads :
         {1u, 4u, exec::ThreadPool::DefaultThreads()}) {
      exec::ThreadPool pool(threads);
      exec::BatchRunner runner(&pool);
      for (const simd::KernelLevel level :
           {simd::KernelLevel::kScalar, simd::KernelLevel::kSse42,
            simd::KernelLevel::kAvx2}) {
        simd::ScopedKernelLevel scoped(level);
        // Force grouping: 250 queries sit below the adaptive small-window
        // bypass, which would run the per-query path we are not testing.
        exec::SchedulerOptions options;
        options.min_window_to_group = 1;
        const exec::BatchResult shared =
            runner.RunShared(*method, queries, options);
        ASSERT_EQ(shared.answers, serial)
            << method->name() << " diverges under the scheduler at "
            << threads << " threads, kernel level "
            << simd::KernelLevelName(simd::ActiveLevel());
      }
    }
  }
}

TEST_P(MethodsAgreementTest, CountEnumAndAnyReachMatchNaiveBfs) {
  // The collection contract extends the boolean one: for every method
  // and SCC mode, RangeReachCount / RangeReachEnum / AnyReach must equal
  // the index-free BFS ground truth — same sets, not just same booleans.
  const AgreementCase& param = GetParam();
  const GeoSocialNetwork network = testing::RandomGeoSocialNetwork(
      param.n, param.density, param.spatial_fraction, param.seed);
  const CondensedNetwork cn(&network);
  const NaiveBfsMethod oracle(&network);
  const std::unique_ptr<QueryScratch> oracle_scratch = oracle.NewScratch();

  std::vector<std::unique_ptr<RangeReachMethod>> methods;
  for (const MethodConfig& config : AllConfigs()) {
    methods.push_back(CreateMethod(&cn, config));
  }
  const auto scratches = testing::NewScratches(methods);

  Rng rng(param.seed ^ 0x5EED);
  for (int q = 0; q < 80; ++q) {
    const VertexId v =
        static_cast<VertexId>(rng.NextBounded(network.num_vertices()));
    const double x = rng.NextDoubleInRange(-10, 100);
    const double y = rng.NextDoubleInRange(-10, 100);
    const Rect region(x, y, x + rng.NextDoubleInRange(0, 60),
                      y + rng.NextDoubleInRange(0, 60));
    const std::vector<VertexId> expected_enum =
        testing::EnumOf(oracle, v, region, *oracle_scratch);
    const uint64_t expected_count = oracle.EvaluateCount(v, region,
                                                         *oracle_scratch);
    ASSERT_EQ(expected_count, expected_enum.size());

    std::vector<VertexId> sources;
    for (int s = 0; s < 4; ++s) {
      sources.push_back(
          static_cast<VertexId>(rng.NextBounded(network.num_vertices())));
    }
    const bool expected_any = oracle.EvaluateAny(sources, region,
                                                 *oracle_scratch);

    for (size_t m = 0; m < methods.size(); ++m) {
      const auto& method = methods[m];
      ASSERT_EQ(method->EvaluateCount(v, region, *scratches[m]), expected_count)
          << method->name() << " count disagrees on vertex " << v
          << " region " << region.ToString();
      ASSERT_EQ(testing::EnumOf(*method, v, region, *scratches[m]),
                expected_enum)
          << method->name() << " enum disagrees on vertex " << v
          << " region " << region.ToString();
      ASSERT_EQ(method->EvaluateAny(sources, region, *scratches[m]),
                expected_any)
          << method->name() << " AnyReach disagrees on region "
          << region.ToString();
    }
  }
}

TEST(MethodsAgreementTest, CountEnumMatrixMatchesOracleEverywhere) {
  // The full execution matrix for the collection kinds: every method
  // config x {1, 4, max} threads x every forced kernel level x scheduler
  // off/on must produce the oracle's exact counts and (sorted) result
  // sets. The workload is skewed so the scheduler's grouped collection
  // (multi-member groups, duplicate collapse) actually executes.
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(200, 2.5, 0.4, 137);
  const CondensedNetwork cn(&network);
  const NaiveBfsMethod oracle(&network);
  const std::unique_ptr<QueryScratch> oracle_scratch = oracle.NewScratch();

  WorkloadGenerator workload(&network, 555);
  QuerySpec spec;
  spec.count = 120;
  spec.min_out_degree = 0;
  spec.max_out_degree = 1u << 30;
  spec.vertex_zipf = 1.1;
  spec.regions_per_vertex = 3;
  const std::vector<RangeReachQuery> queries = workload.Generate(spec);

  std::vector<uint64_t> expected_counts;
  std::vector<std::vector<VertexId>> expected_enums;
  for (const RangeReachQuery& query : queries) {
    expected_counts.push_back(
        oracle.EvaluateCount(query.vertex, query.region, *oracle_scratch));
    expected_enums.push_back(
        testing::EnumOf(oracle, query.vertex, query.region, *oracle_scratch));
  }

  for (const MethodConfig& config : AllConfigs()) {
    const auto method = CreateMethod(&cn, config);
    for (const unsigned threads :
         {1u, 4u, exec::ThreadPool::DefaultThreads()}) {
      exec::ThreadPool pool(threads);
      exec::BatchRunner runner(&pool);
      for (const simd::KernelLevel level :
           {simd::KernelLevel::kScalar, simd::KernelLevel::kSse42,
            simd::KernelLevel::kAvx2}) {
        simd::ScopedKernelLevel scoped(level);
        const std::string where =
            method->name() + " at " + std::to_string(threads) +
            " threads, kernel level " +
            simd::KernelLevelName(simd::ActiveLevel());

        exec::BatchOptions batch;
        batch.kind = QueryKind::kCount;
        ASSERT_EQ(runner.Run(*method, queries, batch).counts,
                  expected_counts)
            << where << " (batch count)";
        batch.kind = QueryKind::kEnum;
        ASSERT_EQ(runner.Run(*method, queries, batch).enums, expected_enums)
            << where << " (batch enum)";

        exec::SchedulerOptions shared;
        shared.min_window_to_group = 1;  // Force the grouped path.
        shared.kind = QueryKind::kCount;
        ASSERT_EQ(runner.RunShared(*method, queries, shared).counts,
                  expected_counts)
            << where << " (scheduler count)";
        shared.kind = QueryKind::kEnum;
        ASSERT_EQ(runner.RunShared(*method, queries, shared).enums,
                  expected_enums)
            << where << " (scheduler enum)";
      }
    }
  }
}

TEST(MethodsAgreementTest, AnyReachMatrixMatchesOracleEverywhere) {
  // Same matrix for multi-source AnyReach through BatchRunner::RunAny.
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(200, 2.5, 0.4, 149);
  const CondensedNetwork cn(&network);
  const NaiveBfsMethod oracle(&network);
  const std::unique_ptr<QueryScratch> oracle_scratch = oracle.NewScratch();

  WorkloadGenerator workload(&network, 777);
  QuerySpec spec;
  spec.count = 100;
  spec.min_out_degree = 0;
  spec.max_out_degree = 1u << 30;
  spec.kind = WorkloadKind::kAnyOfK;
  spec.any_k = 4;
  const std::vector<AnyReachQuery> queries = workload.GenerateAnyReach(spec);

  std::vector<uint8_t> expected;
  for (const auto& [sources, region] : queries) {
    expected.push_back(oracle.EvaluateAny(sources, region, *oracle_scratch));
  }

  for (const MethodConfig& config : AllConfigs()) {
    const auto method = CreateMethod(&cn, config);
    for (const unsigned threads :
         {1u, 4u, exec::ThreadPool::DefaultThreads()}) {
      exec::ThreadPool pool(threads);
      exec::BatchRunner runner(&pool);
      for (const simd::KernelLevel level :
           {simd::KernelLevel::kScalar, simd::KernelLevel::kSse42,
            simd::KernelLevel::kAvx2}) {
        simd::ScopedKernelLevel scoped(level);
        ASSERT_EQ(runner.RunAny(*method, queries).answers, expected)
            << method->name() << " AnyReach diverges at " << threads
            << " threads, kernel level "
            << simd::KernelLevelName(simd::ActiveLevel());
      }
    }
  }
}

TEST(MethodsAgreementTest, IndexSizesArePositive) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(100, 2.0, 0.5, 55);
  const CondensedNetwork cn(&network);
  for (const MethodConfig& config : AllConfigs()) {
    const auto method = CreateMethod(&cn, config);
    EXPECT_GT(method->IndexSizeBytes(), 0u) << method->name();
    EXPECT_FALSE(method->name().empty());
  }
}

}  // namespace
}  // namespace gsr
