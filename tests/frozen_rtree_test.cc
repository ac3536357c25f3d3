#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/checksum.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/condensed_network.h"
#include "core/method_factory.h"
#include "core/method_snapshot.h"
#include "exec/thread_pool.h"
#include "spatial/frozen_rtree.h"
#include "tests/rtree_test_util.h"
#include "tests/test_util.h"

namespace gsr {
namespace {

/// FrozenRTree's packed form enumerates hits in one fixed order (the
/// bit-identical-answers guarantee snapshot loading is built on), answers
/// batched masked descents like per-query ones, and survives a serialize
/// round trip in both owned-copy and borrowed (mmap-style) modes. The
/// bulk load's agreement with a linear scan is covered in rtree_test.

using testing::ExpectMatchesLinearScan;
using testing::ExpectWellFormed;
using testing::RandomPoints;
using testing::RandomQueryRect;
using testing::RandomSegments;

/// Two trees enumerate the same hits in the same order, not merely the
/// same set.
template <typename BoxT, typename LeafT>
void ExpectSameEnumeration(const FrozenRTree<BoxT, LeafT>& a,
                           const FrozenRTree<BoxT, LeafT>& b,
                           const std::vector<BoxT>& queries) {
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.Height(), b.Height());
  EXPECT_EQ(a.Bounds(), b.Bounds());
  for (const BoxT& query : queries) {
    EXPECT_EQ(a.AnyIntersecting(query), b.AnyIntersecting(query));
    EXPECT_EQ(a.CollectIntersecting(query), b.CollectIntersecting(query));
  }
}

TEST(FrozenRTreeTest, Points2DAgreeWithLinearScan) {
  const auto entries = RandomPoints(500, 11);
  const auto frozen = FrozenRTreePoints2D::BulkLoad(entries);
  Rng rng(12);
  std::vector<Rect> queries;
  for (int q = 0; q < 200; ++q) queries.push_back(RandomQueryRect(rng));
  ExpectMatchesLinearScan(frozen, entries, queries);
}

TEST(FrozenRTreeTest, Segments3DAgreeWithLinearScan) {
  const auto entries = RandomSegments(500, 31);
  const auto frozen = FrozenRTree3D::BulkLoad(entries);
  ExpectWellFormed(frozen);
  Rng rng(32);
  std::vector<Box3D> queries;
  for (int q = 0; q < 200; ++q) {
    queries.push_back(Box3D::FromRectAndInterval(
        RandomQueryRect(rng), rng.NextDoubleInRange(0, 50),
        rng.NextDoubleInRange(50, 100)));
  }
  ExpectMatchesLinearScan(frozen, entries, queries);
}

TEST(FrozenRTreeTest, MaskedDescentMatchesPerQueryExistence) {
  // AnyIntersectingMasked (one shared descent answering up to 64
  // existence queries) must return exactly the per-query AnyIntersecting
  // bits, for every pending-mask shape and at every kernel level.
  const auto frozen = FrozenRTree3D::BulkLoad(RandomSegments(700, 61));

  Rng rng(62);
  for (const simd::KernelLevel level :
       {simd::KernelLevel::kScalar, simd::KernelLevel::kSse42,
        simd::KernelLevel::kAvx2}) {
    simd::ScopedKernelLevel scoped(level);
    for (const size_t count : {size_t{1}, size_t{3}, size_t{17}, size_t{64}}) {
      Box3D queries[64];
      uint64_t expected = 0;
      for (size_t k = 0; k < count; ++k) {
        queries[k] = Box3D::FromRectAndInterval(
            RandomQueryRect(rng), rng.NextDoubleInRange(0, 50),
            rng.NextDoubleInRange(50, 100));
        if (frozen.AnyIntersecting(queries[k])) expected |= uint64_t{1} << k;
      }
      const uint64_t full =
          count == 64 ? ~uint64_t{0} : (uint64_t{1} << count) - 1;
      EXPECT_EQ(frozen.AnyIntersectingMasked(queries, full), expected)
          << "count " << count << " level "
          << simd::KernelLevelName(simd::ActiveLevel());

      // A sparse pending mask only answers its own bits.
      const uint64_t sparse = full & 0x5555555555555555ull;
      EXPECT_EQ(frozen.AnyIntersectingMasked(queries, sparse),
                expected & sparse);
    }
  }

  // Empty pending mask and empty tree are both no-ops.
  Box3D one = Box3D::FromRectAndInterval(Rect(0, 0, 100, 100), 0, 100);
  EXPECT_EQ(frozen.AnyIntersectingMasked(&one, 0), 0u);
  const auto empty = FrozenRTree3D::BulkLoad({});
  EXPECT_EQ(empty.AnyIntersectingMasked(&one, ~uint64_t{0}), 0u);
}

TEST(FrozenRTreeTest, SerializeRoundTripBothModes) {
  const auto entries = RandomPoints(600, 41);
  const auto frozen = FrozenRTreePoints2D::BulkLoad(entries);

  BinaryWriter writer;
  frozen.SerializeTo(writer);
  // Borrowed deserialization views into this buffer; the keepalive is what
  // a real load would pin the file mapping with.
  const auto buffer = std::make_shared<std::vector<std::byte>>(writer.bytes());

  Rng rng(42);
  std::vector<Rect> queries;
  for (int q = 0; q < 150; ++q) queries.push_back(RandomQueryRect(rng));

  {
    BinaryReader reader(*buffer);
    auto restored = FrozenRTreePoints2D::Deserialize(reader, BorrowContext{});
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    ExpectSameEnumeration(frozen, *restored, queries);
    ExpectMatchesLinearScan(*restored, entries, queries);
  }
  {
    BinaryReader reader(*buffer);
    BorrowContext borrow;
    borrow.borrow = true;
    borrow.keepalive = buffer;
    auto restored = FrozenRTreePoints2D::Deserialize(reader, borrow);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    ExpectSameEnumeration(frozen, *restored, queries);
  }
}

TEST(FrozenRTreeTest, MaskedEnumerationMatchesPerQueryOrder) {
  // ForEachIntersectingMasked's contract: for every live query k, hits
  // arrive in exactly ForEachIntersecting(queries[k]) order, whatever
  // the mask shape and kernel level. Dead mask bits must never fire.
  const auto frozen = FrozenRTreePoints2D::BulkLoad(RandomPoints(900, 61));

  Rng rng(62);
  std::vector<Rect> queries;
  for (int k = 0; k < 64; ++k) queries.push_back(RandomQueryRect(rng));
  // Degenerate queries among live bits: inverted/empty and far away.
  queries[3] = Rect();
  queries[17] = Rect(500, 500, 600, 600);

  for (const simd::KernelLevel level :
       {simd::KernelLevel::kScalar, simd::KernelLevel::kSse42,
        simd::KernelLevel::kAvx2}) {
    simd::ScopedKernelLevel scoped(level);
    for (const uint64_t mask :
         {~uint64_t{0}, uint64_t{1}, uint64_t{0xAAAAAAAAAAAAAAAA},
          uint64_t{0x8000000000000001}, uint64_t{0}}) {
      std::vector<std::vector<uint64_t>> got(64);
      frozen.CollectIntersectingMasked(queries.data(), mask,
                                       std::span<std::vector<uint64_t>>(got));
      for (int k = 0; k < 64; ++k) {
        if ((mask >> k) & 1) {
          EXPECT_EQ(got[k], frozen.CollectIntersecting(queries[k]))
              << "query " << k << " mask " << mask << " level "
              << simd::KernelLevelName(simd::ActiveLevel());
        } else {
          EXPECT_TRUE(got[k].empty()) << "dead bit " << k << " fired";
        }
      }
      // Degenerate live queries collect nothing.
      if ((mask >> 3) & 1) {
        EXPECT_TRUE(got[3].empty());
      }
      if ((mask >> 17) & 1) {
        EXPECT_TRUE(got[17].empty());
      }
    }
  }
}

TEST(FrozenRTreeTest, MaskedEnumerationBoxesVariant) {
  // Same contract on the Box3D tree (the 3DReach MBR-mode shape).
  const auto frozen = FrozenRTree3D::BulkLoad(RandomSegments(700, 71));

  Rng rng(72);
  std::vector<Box3D> queries;
  for (int k = 0; k < 64; ++k) {
    const Rect rect = RandomQueryRect(rng);
    const double z_lo = rng.NextDoubleInRange(0, 60);
    queries.push_back(Box3D::FromRectAndInterval(
        rect, z_lo, z_lo + rng.NextDoubleInRange(0, 40)));
  }

  const uint64_t mask = 0xF0F0F0F0F0F0F0F0;
  std::vector<std::vector<uint64_t>> got(64);
  frozen.CollectIntersectingMasked(queries.data(), mask,
                                   std::span<std::vector<uint64_t>>(got));
  for (int k = 0; k < 64; ++k) {
    if ((mask >> k) & 1) {
      EXPECT_EQ(got[k], frozen.CollectIntersecting(queries[k])) << k;
    } else {
      EXPECT_TRUE(got[k].empty()) << k;
    }
  }
}

TEST(FrozenRTreeTest, MaskedEnumerationOnEmptyTree) {
  const FrozenRTreePoints2D frozen;
  std::vector<Rect> queries(64, Rect(0, 0, 100, 100));
  std::vector<std::vector<uint64_t>> got(64, {1, 2, 3});
  frozen.CollectIntersectingMasked(queries.data(), ~uint64_t{0},
                                   std::span<std::vector<uint64_t>>(got));
  // Live slots are cleared even when the tree has nothing to deliver.
  for (const auto& ids : got) EXPECT_TRUE(ids.empty());
}

TEST(FrozenRTreeTest, CorruptChildLinkIsRejected) {
  const auto frozen = FrozenRTreePoints2D::BulkLoad(RandomPoints(600, 51));
  ASSERT_GT(frozen.Height(), 1);  // Need internal nodes to corrupt a link.

  BinaryWriter writer;
  frozen.SerializeTo(writer);
  std::vector<std::byte> bytes = writer.TakeBytes();

  // A back-link to node 0 would make the descent cyclic; Deserialize must
  // reject it ("invalid child link") rather than loop or crash. The child
  // node array follows size (u64), height (i32), the node array and the
  // child box array; scan for the first child-link value instead of
  // hand-computing the offset.
  BinaryReader scan(bytes);
  uint64_t size = 0;
  int32_t height = 0;
  ASSERT_TRUE(scan.ReadU64(&size).ok());
  ASSERT_TRUE(scan.ReadI32(&height).ok());
  std::span<const FrozenRTreePoints2D::Node> nodes;
  std::span<const Rect> child_boxes;
  ASSERT_TRUE(scan.ReadArrayView(&nodes).ok());
  ASSERT_TRUE(scan.ReadArrayView(&child_boxes).ok());
  std::span<const uint32_t> child_nodes;
  const size_t links_at = [&] {
    BinaryReader probe(bytes);
    EXPECT_TRUE(probe.Skip(scan.offset()).ok());
    EXPECT_TRUE(probe.ReadArrayView(&child_nodes).ok());
    return probe.offset() - child_nodes.size() * sizeof(uint32_t);
  }();
  ASSERT_FALSE(child_nodes.empty());
  const uint32_t zero = 0;
  std::memcpy(bytes.data() + links_at, &zero, sizeof(zero));

  BinaryReader reader(bytes);
  auto restored = FrozenRTreePoints2D::Deserialize(reader, BorrowContext{});
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.status().message().find("child link"), std::string::npos)
      << restored.status().ToString();
}

// --- Golden bytes --------------------------------------------------------
//
// The STR bulk load is pinned byte for byte: these hashes (XXH64 of the
// SerializeTo bytes, and of whole method snapshot files) were recorded
// once and must never change. Any edit to tile sizes, the sort
// order, node numbering or the packed layout changes answers' enumeration
// order and every snapshot on disk, and fails here first. Coordinates are
// quantized to a coarse grid so the comparator's tie-break chain (other
// centers, box extents, id) decides a large share of the order.

template <typename LeafT>
LeafT GoldenGeom(Rng& rng);

double GridCoord(Rng& rng, uint64_t cells) {
  return static_cast<double>(rng.NextBounded(cells)) * 0.5;
}

template <>
Point2D GoldenGeom<Point2D>(Rng& rng) {
  return Point2D{GridCoord(rng, 128), GridCoord(rng, 128)};
}
template <>
Rect GoldenGeom<Rect>(Rng& rng) {
  const double x = GridCoord(rng, 128);
  const double y = GridCoord(rng, 128);
  return Rect(x, y, x + GridCoord(rng, 8), y + GridCoord(rng, 8));
}
template <>
Point3D GoldenGeom<Point3D>(Rng& rng) {
  return Point3D{GridCoord(rng, 64), GridCoord(rng, 64), GridCoord(rng, 64)};
}
template <>
Box3D GoldenGeom<Box3D>(Rng& rng) {
  const double x = GridCoord(rng, 64);
  const double y = GridCoord(rng, 64);
  const double z = GridCoord(rng, 64);
  return Box3D(x, y, z, x + GridCoord(rng, 4), y + GridCoord(rng, 4),
               z + GridCoord(rng, 16));
}

template <typename BoxT, typename LeafT>
uint64_t GoldenTreeHash(size_t n, exec::ThreadPool* pool) {
  Rng rng(0x57A6 + n);
  std::vector<std::pair<LeafT, uint64_t>> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // Every 7th entry repeats its predecessor's geometry: exact duplicates
    // differ only in id.
    const LeafT geom = (i % 7 == 6) ? entries.back().first
                                    : GoldenGeom<LeafT>(rng);
    entries.emplace_back(geom, static_cast<uint64_t>(n - i));
  }
  const auto tree =
      FrozenRTree<BoxT, LeafT>::BulkLoad(std::move(entries), pool);
  BinaryWriter writer;
  tree.SerializeTo(writer);
  return XxHash64(writer.bytes().data(), writer.bytes().size());
}

constexpr size_t kGoldenSizes[] = {0, 1, 32, 33, 1025, 20000};

template <typename BoxT, typename LeafT>
void ExpectGoldenTreeHashes(const char* type, const uint64_t (&golden)[6]) {
  exec::ThreadPool two(2);
  exec::ThreadPool eight(8);
  for (size_t s = 0; s < 6; ++s) {
    const size_t n = kGoldenSizes[s];
    for (exec::ThreadPool* pool : {static_cast<exec::ThreadPool*>(nullptr),
                                   &two, &eight}) {
      const uint64_t hash = GoldenTreeHash<BoxT, LeafT>(n, pool);
      EXPECT_EQ(hash, golden[s])
          << type << " n=" << n
          << " threads=" << (pool == nullptr ? 1u : pool->size())
          << " got 0x" << std::hex << hash;
    }
  }
}

TEST(FrozenRTreeGoldenTest, BulkLoadBytesArePinned) {
  ExpectGoldenTreeHashes<Rect, Rect>("Rect/Rect",
      {0x980d0b8e72041fe5, 0xba0f46098f6bfe6e, 0x2c81fe17c879fc7d,
       0x1f2e01ec3a4bb997, 0xc9db0015dfdb6bed, 0x13b94c1e53bc74c4});
  ExpectGoldenTreeHashes<Rect, Point2D>("Rect/Point2D",
      {0x980d0b8e72041fe5, 0xe0bdcb0ad2ec5e59, 0x9138982b09ffc713,
       0x98ce48f1b0ba345f, 0x38db3a5a491b1889, 0xa1834f3809d0fbde});
  ExpectGoldenTreeHashes<Box3D, Box3D>("Box3D/Box3D",
      {0x980d0b8e72041fe5, 0x6a5c2758fb27d1a3, 0xec212e3118f4a34d,
       0x16da1200738f8967, 0xf4ea89f1523c5fd5, 0x1d307ebc2d962a24});
  ExpectGoldenTreeHashes<Box3D, Point3D>("Box3D/Point3D",
      {0x980d0b8e72041fe5, 0x4e563f7e1ac08bf9, 0x060497832e9932e5,
       0x0ff380db9dac5d67, 0x3ba74c7dfa813d38, 0xb0ea03084a582b07});
}

/// One pinned method snapshot: every snapshot-able kind, both SCC modes
/// where the kind has a spatial index, and two planners — the default
/// portfolio, and one holding every fixed kind inline as a member.
struct GoldenSnapshotCase {
  MethodKind kind;
  SccSpatialMode mode;
  uint64_t golden;
  std::vector<MethodKind> portfolio = {};  // kPlanner; empty = default.
};

std::vector<GoldenSnapshotCase> GoldenSnapshotCases() {
  return {
      {MethodKind::kThreeDReach, SccSpatialMode::kReplicate,
       0x95e35dd02caea7aa},
      {MethodKind::kThreeDReach, SccSpatialMode::kMbr, 0x708e34149727498a},
      {MethodKind::kThreeDReachRev, SccSpatialMode::kReplicate,
       0xcb0606eb88362da6},
      {MethodKind::kSpaReachInt, SccSpatialMode::kReplicate,
       0x0e312342633130b9},
      {MethodKind::kSpaReachInt, SccSpatialMode::kMbr, 0x16aec07748127ddf},
      {MethodKind::kSocReach, SccSpatialMode::kReplicate, 0x25611454d0775d8c},
      {MethodKind::kSpaReachBfl, SccSpatialMode::kReplicate,
       0x71b7d9aec8139f85},
      {MethodKind::kSpaReachPll, SccSpatialMode::kReplicate,
       0x2b3884d642396ec1},
      {MethodKind::kSpaReachFeline, SccSpatialMode::kReplicate,
       0xf564f07f916521c3},
      {MethodKind::kGeoReach, SccSpatialMode::kReplicate, 0xc56d7d025c7e2ad0},
      {MethodKind::kThreeDReachRev, SccSpatialMode::kMbr, 0x67d3ad2b41334e98},
      {MethodKind::kPlanner, SccSpatialMode::kReplicate, 0xc16acff63c3ae9a8},
      {MethodKind::kPlanner, SccSpatialMode::kMbr, 0x1fbfca3ecb4da83e,
       {MethodKind::kSpaReachBfl, MethodKind::kSpaReachInt,
        MethodKind::kSpaReachPll, MethodKind::kSpaReachFeline,
        MethodKind::kGeoReach, MethodKind::kSocReach,
        MethodKind::kThreeDReach, MethodKind::kThreeDReachRev}},
  };
}

MethodConfig GoldenSnapshotConfig(const GoldenSnapshotCase& c,
                                  unsigned threads) {
  MethodConfig config;
  config.kind = c.kind;
  config.scc_mode = c.mode;
  config.build.num_threads = threads;
  if (c.kind == MethodKind::kPlanner) {
    // Timed calibration would make the persisted cost models vary run to
    // run. Set for planners only: the meta section records the planner
    // options for every kind, so the other files keep the default.
    config.planner.calibration_samples = 0;
    if (!c.portfolio.empty()) config.planner.portfolio = c.portfolio;
  }
  return config;
}

std::string TempPath(const std::string& name) {
  std::string path = ::testing::TempDir();
  if (!path.empty() && path.back() != '/') path += '/';
  return path + name;
}

TEST(FrozenRTreeGoldenTest, MethodSnapshotBytesArePinned) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(600, 3.0, 0.5, 2024);
  const CondensedNetwork cn(&network);
  const std::string path = TempPath("golden_method.snap");
  for (const GoldenSnapshotCase& c : GoldenSnapshotCases()) {
    for (const unsigned threads : {1u, 2u, 8u}) {
      const MethodConfig config = GoldenSnapshotConfig(c, threads);
      const auto method = CreateMethod(&cn, config);
      ASSERT_TRUE(SaveMethodSnapshot(*method, config, cn, path).ok());
      const std::string bytes = testing::ReadWholeFile(path);
      ASSERT_FALSE(bytes.empty());
      const uint64_t hash = XxHash64(bytes.data(), bytes.size());
      EXPECT_EQ(hash, c.golden)
          << method->name() << " mode " << static_cast<int>(c.mode)
          << " members " << c.portfolio.size() << " threads " << threads
          << " got 0x" << std::hex << hash;
    }
  }
  std::remove(path.c_str());
}

// Loading a snapshot and saving the loaded method reproduces the file
// byte for byte, whether the arrays were copied or borrowed from a map.
TEST(FrozenRTreeGoldenTest, ResavedMethodSnapshotIsIdentical) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(600, 3.0, 0.5, 2024);
  const CondensedNetwork cn(&network);
  const std::string path = TempPath("golden_resave_in.snap");
  const std::string resaved = TempPath("golden_resave_out.snap");
  for (const GoldenSnapshotCase& c : GoldenSnapshotCases()) {
    const MethodConfig config = GoldenSnapshotConfig(c, 1);
    const auto method = CreateMethod(&cn, config);
    ASSERT_TRUE(SaveMethodSnapshot(*method, config, cn, path).ok());
    const std::string original = testing::ReadWholeFile(path);
    for (const snapshot::LoadMode mode :
         {snapshot::LoadMode::kOwnedCopy, snapshot::LoadMode::kMmap}) {
      auto loaded = LoadMethodSnapshot(&cn, path, {.mode = mode});
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      ASSERT_TRUE(
          SaveMethodSnapshot(*loaded->method, loaded->config, cn, resaved)
              .ok());
      EXPECT_TRUE(testing::ReadWholeFile(resaved) == original)
          << method->name() << " mode " << static_cast<int>(c.mode)
          << " members " << c.portfolio.size() << " load mode "
          << static_cast<int>(mode);
    }
  }
  std::remove(path.c_str());
  std::remove(resaved.c_str());
}

}  // namespace
}  // namespace gsr
