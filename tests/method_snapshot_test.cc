#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/condensed_network.h"
#include "core/method_factory.h"
#include "core/method_snapshot.h"
#include "core/naive_bfs.h"
#include "exec/thread_pool.h"
#include "snapshot/page_cache.h"
#include "tests/test_util.h"

namespace gsr {
namespace {

/// Save/load round trips for every snapshot-able method. The loaded
/// instance must answer every query exactly like the built one — in
/// owned-copy mode, in zero-copy mmap mode, and in explicitly-cached
/// paged mode.

std::string TempPath(const std::string& name) {
  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() != '/') dir += '/';
  return dir + name;
}

std::vector<MethodConfig> SnapshotableConfigs() {
  std::vector<MethodConfig> configs;
  for (const MethodKind kind :
       {MethodKind::kSpaReachBfl, MethodKind::kSpaReachInt,
        MethodKind::kSpaReachPll, MethodKind::kSpaReachFeline,
        MethodKind::kGeoReach, MethodKind::kSocReach, MethodKind::kThreeDReach,
        MethodKind::kThreeDReachRev}) {
    for (const SccSpatialMode mode :
         {SccSpatialMode::kReplicate, SccSpatialMode::kMbr}) {
      MethodConfig config;
      config.kind = kind;
      config.scc_mode = mode;
      configs.push_back(config);
      if (kind == MethodKind::kSocReach || kind == MethodKind::kGeoReach) {
        break;
      }
    }
  }
  return configs;
}

void ExpectIdenticalAnswers(const RangeReachMethod& built,
                            const RangeReachMethod& loaded,
                            const GeoSocialNetwork& network, uint64_t seed) {
  const auto built_scratch = built.NewScratch();
  const auto loaded_scratch = loaded.NewScratch();
  Rng rng(seed);
  for (int q = 0; q < 200; ++q) {
    const VertexId v =
        static_cast<VertexId>(rng.NextBounded(network.num_vertices()));
    const double x = rng.NextDoubleInRange(-10, 100);
    const double y = rng.NextDoubleInRange(-10, 100);
    const Rect region(x, y, x + rng.NextDoubleInRange(0, 60),
                      y + rng.NextDoubleInRange(0, 60));
    ASSERT_EQ(loaded.Evaluate(v, region, *loaded_scratch),
              built.Evaluate(v, region, *built_scratch))
        << loaded.name() << " diverges on vertex " << v << " region "
        << region.ToString();
  }
}

TEST(MethodSnapshotTest, AllMethodsRoundTripEveryLoadMode) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(250, 2.5, 0.4, 101);
  const CondensedNetwork cn(&network);

  int config_index = 0;
  for (const MethodConfig& config : SnapshotableConfigs()) {
    const auto built = CreateMethod(&cn, config);
    const std::string path =
        TempPath("method_" + std::to_string(config_index++) + ".snap");
    ASSERT_TRUE(SaveMethodSnapshot(*built, config, cn, path).ok())
        << built->name();

    for (const snapshot::LoadMode mode :
         {snapshot::LoadMode::kOwnedCopy, snapshot::LoadMode::kMmap,
          snapshot::LoadMode::kPaged}) {
      auto loaded = LoadMethodSnapshot(&cn, path, {.mode = mode});
      ASSERT_TRUE(loaded.ok())
          << built->name() << ": " << loaded.status().ToString();
      EXPECT_EQ(loaded->method->name(), built->name());
      EXPECT_EQ(loaded->config.kind, config.kind);
      EXPECT_EQ(loaded->config.scc_mode, config.scc_mode);
      EXPECT_GT(loaded->method->IndexSizeBytes(), 0u);
      EXPECT_EQ(loaded->page_cache != nullptr,
                mode == snapshot::LoadMode::kPaged);
      ExpectIdenticalAnswers(*built, *loaded->method, network, 202);
    }
  }
}

TEST(MethodSnapshotTest, RoundTripWithThreadPool) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(150, 2.0, 0.5, 103);
  const CondensedNetwork cn(&network);
  exec::ThreadPool pool(2);

  MethodConfig config;
  config.kind = MethodKind::kThreeDReach;
  const auto built = CreateMethod(&cn, config);
  const std::string path = TempPath("method_pool.snap");
  ASSERT_TRUE(SaveMethodSnapshot(*built, config, cn, path, &pool).ok());
  auto loaded = LoadMethodSnapshot(
      &cn, path, {.mode = snapshot::LoadMode::kOwnedCopy, .pool = &pool});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectIdenticalAnswers(*built, *loaded->method, network, 204);
}

TEST(MethodSnapshotTest, LoadedMethodOutlivesTheFile) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(150, 2.0, 0.5, 105);
  const CondensedNetwork cn(&network);

  MethodConfig config;
  config.kind = MethodKind::kSpaReachInt;
  const auto built = CreateMethod(&cn, config);

  for (const snapshot::LoadMode mode :
       {snapshot::LoadMode::kMmap, snapshot::LoadMode::kPaged}) {
    const std::string path = TempPath("method_unlink.snap");
    ASSERT_TRUE(SaveMethodSnapshot(*built, config, cn, path).ok());
    auto loaded = LoadMethodSnapshot(&cn, path, {.mode = mode});
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    // POSIX keeps the mapping (kMmap) / the open descriptor (kPaged)
    // alive after the unlink; the loaded method pins it, so queries must
    // keep working — including cache misses that pread the unlinked file.
    ASSERT_EQ(std::remove(path.c_str()), 0);
    if (loaded->page_cache != nullptr) loaded->page_cache->Drop();
    ExpectIdenticalAnswers(*built, *loaded->method, network, 206);
  }
}

TEST(MethodSnapshotTest, PagedConcurrentQueriesShareOneTinyCache) {
  // Many reader threads descending the same paged index through one
  // 4-frame cache: constant eviction churn under contention, answers must
  // stay exact. This is the TSan target for the paged read path (clock
  // sweep, pin/unpin, load hand-off between threads).
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(250, 2.5, 0.4, 113);
  const CondensedNetwork cn(&network);

  for (const MethodKind kind :
       {MethodKind::kThreeDReach, MethodKind::kSpaReachInt}) {
    MethodConfig config;
    config.kind = kind;
    const auto built = CreateMethod(&cn, config);
    const auto built_scratch = built->NewScratch();
    const std::string path = TempPath("method_paged_mt.snap");
    ASSERT_TRUE(SaveMethodSnapshot(*built, config, cn, path).ok());
    auto loaded = LoadMethodSnapshot(
        &cn, path,
        {.mode = snapshot::LoadMode::kPaged, .page_cache_bytes = 1});
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

    Rng rng(114);
    std::vector<RangeReachQuery> queries;
    std::vector<uint8_t> expected;
    for (int q = 0; q < 400; ++q) {
      const VertexId v =
          static_cast<VertexId>(rng.NextBounded(network.num_vertices()));
      const double x = rng.NextDoubleInRange(-10, 100);
      const double y = rng.NextDoubleInRange(-10, 100);
      const Rect region(x, y, x + rng.NextDoubleInRange(0, 60),
                        y + rng.NextDoubleInRange(0, 60));
      queries.push_back({v, region});
      expected.push_back(built->Evaluate(v, region, *built_scratch) ? 1 : 0);
    }

    exec::ThreadPool pool(exec::ThreadPool::DefaultThreads());
    const RangeReachMethod& method = *loaded->method;
    // One scratch per worker, as the scratch contract requires of
    // concurrent callers: only the page cache is shared here.
    std::vector<std::unique_ptr<QueryScratch>> scratches;
    for (unsigned w = 0; w < pool.size(); ++w) {
      scratches.push_back(method.NewScratch());
    }
    pool.ParallelFor(queries.size(), 8, [&](size_t i, unsigned worker) {
      const auto& [vertex, region] = queries[i];
      GSR_CHECK(method.Evaluate(vertex, region, *scratches[worker]) ==
                (expected[i] != 0));
    });

    const snapshot::PageCache::Stats stats = loaded->page_cache->GetStats();
    EXPECT_GT(stats.misses, 0u) << built->name();
    EXPECT_GT(stats.evictions, 0u) << built->name();
  }
}

TEST(MethodSnapshotTest, SavingAPagedLoadedMethodFailsCleanly) {
  // A kPaged-loaded R-tree or labeling keeps its arrays in the file it
  // was loaded from, so there is nothing in memory to save. GeoReach has
  // no pageable structure and loads fully resident, so it saves as usual.
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(150, 2.0, 0.5, 115);
  const CondensedNetwork cn(&network);
  std::vector<MethodConfig> configs = SnapshotableConfigs();
  configs.emplace_back().kind = MethodKind::kPlanner;
  configs.back().planner.calibration_samples = 0;

  const std::string path = TempPath("method_paged_source.snap");
  const std::string resaved = TempPath("method_paged_resave.snap");
  for (const MethodConfig& config : configs) {
    const auto built = CreateMethod(&cn, config);
    ASSERT_TRUE(SaveMethodSnapshot(*built, config, cn, path).ok());
    auto loaded = LoadMethodSnapshot(
        &cn, path, {.mode = snapshot::LoadMode::kPaged});
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    std::remove(resaved.c_str());
    const Status status =
        SaveMethodSnapshot(*loaded->method, config, cn, resaved);
    if (config.kind == MethodKind::kGeoReach) {
      ASSERT_TRUE(status.ok()) << status.ToString();
      EXPECT_TRUE(testing::ReadWholeFile(resaved) ==
                  testing::ReadWholeFile(path));
      continue;
    }
    ASSERT_FALSE(status.ok()) << built->name();
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
        << built->name() << ": " << status.ToString();
    EXPECT_FALSE(std::ifstream(resaved).good()) << built->name();
  }
  std::remove(path.c_str());
}

TEST(MethodSnapshotTest, EverySingleByteFlipFailsOrAnswersUnchanged) {
  // Exhaustive single-byte corruption of a small v2 3DReach snapshot, in
  // every load mode. Each flip must either surface as an error Status or
  // leave a method whose answers match the clean file's — flips that land
  // in the unchecksummed padding between sections take the second path.
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(600, 3.0, 0.5, 117);
  const CondensedNetwork cn(&network);
  MethodConfig config;
  config.kind = MethodKind::kThreeDReach;
  const auto built = CreateMethod(&cn, config);
  const std::string path = TempPath("method_corrupt.snap");
  ASSERT_TRUE(SaveMethodSnapshot(*built, config, cn, path).ok());
  const std::string clean = testing::ReadWholeFile(path);
  ASSERT_GT(clean.size(), 0u);

  Rng rng(118);
  std::vector<RangeReachQuery> queries;
  std::vector<bool> expected;
  const auto built_scratch = built->NewScratch();
  for (int q = 0; q < 32; ++q) {
    const VertexId v =
        static_cast<VertexId>(rng.NextBounded(network.num_vertices()));
    const double x = rng.NextDoubleInRange(-10, 100);
    const double y = rng.NextDoubleInRange(-10, 100);
    const Rect region(x, y, x + rng.NextDoubleInRange(0, 60),
                      y + rng.NextDoubleInRange(0, 60));
    queries.push_back({v, region});
    expected.push_back(built->Evaluate(v, region, *built_scratch));
  }

  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.good());
  size_t rejected = 0;
  size_t loaded_ok = 0;
  for (size_t i = 0; i < clean.size(); ++i) {
    file.seekp(static_cast<std::streamoff>(i));
    file.put(static_cast<char>(~clean[i]));
    file.flush();
    for (const snapshot::LoadMode mode :
         {snapshot::LoadMode::kOwnedCopy, snapshot::LoadMode::kMmap,
          snapshot::LoadMode::kPaged}) {
      auto loaded = LoadMethodSnapshot(&cn, path, {.mode = mode});
      if (!loaded.ok()) {
        ++rejected;
        continue;
      }
      ++loaded_ok;
      const RangeReachMethod& method = *loaded->method;
      const auto scratch = method.NewScratch();
      for (size_t q = 0; q < queries.size(); ++q) {
        const auto& [vertex, region] = queries[q];
        ASSERT_EQ(method.Evaluate(vertex, region, *scratch), expected[q])
            << "byte " << i << " load mode " << static_cast<int>(mode)
            << " query " << q;
      }
    }
    file.seekp(static_cast<std::streamoff>(i));
    file.put(clean[i]);
    file.flush();
  }
  file.close();
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(loaded_ok, 0u);  // The padding between sections is unchecked.
  EXPECT_TRUE(testing::ReadWholeFile(path) == clean);
  std::remove(path.c_str());
}

TEST(MethodSnapshotTest, FingerprintMismatchIsRejected) {
  const GeoSocialNetwork network_a =
      testing::RandomGeoSocialNetwork(150, 2.0, 0.5, 107);
  const GeoSocialNetwork network_b =
      testing::RandomGeoSocialNetwork(151, 2.0, 0.5, 108);
  const CondensedNetwork cn_a(&network_a);
  const CondensedNetwork cn_b(&network_b);

  MethodConfig config;
  config.kind = MethodKind::kSocReach;
  const auto built = CreateMethod(&cn_a, config);
  const std::string path = TempPath("method_fingerprint.snap");
  ASSERT_TRUE(SaveMethodSnapshot(*built, config, cn_a, path).ok());

  auto loaded = LoadMethodSnapshot(&cn_b, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(loaded.status().message().find("fingerprint"), std::string::npos)
      << loaded.status().ToString();
}

TEST(MethodSnapshotTest, NaiveBfsCannotBeSnapshotted) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(50, 2.0, 0.5, 109);
  const CondensedNetwork cn(&network);
  const NaiveBfsMethod method(&network);
  MethodConfig config;
  config.kind = MethodKind::kNaiveBfs;
  const Status status = SaveMethodSnapshot(
      method, config, cn, TempPath("method_naive.snap"));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(MethodSnapshotTest, MissingFileFails) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(50, 2.0, 0.5, 110);
  const CondensedNetwork cn(&network);
  auto loaded = LoadMethodSnapshot(&cn, TempPath("no_such_method.snap"));
  EXPECT_FALSE(loaded.ok());
}

TEST(MethodSnapshotTest, SaveToUnwritablePathFails) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(50, 2.0, 0.5, 111);
  const CondensedNetwork cn(&network);
  MethodConfig config;
  config.kind = MethodKind::kSocReach;
  const auto built = CreateMethod(&cn, config);
  const Status status = SaveMethodSnapshot(
      *built, config, cn, TempPath("missing_dir/method.snap"));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace gsr
