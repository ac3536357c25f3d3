#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/rng.h"
#include "spatial/frozen_rtree.h"
#include "tests/rtree_test_util.h"

namespace gsr {
namespace {

/// The STR bulk load (FrozenRTree::BulkLoad) answers every query exactly
/// like a linear scan over its entries, whatever the tree size, leaf type
/// or query shape, and builds a well-formed packed tree.

using testing::ExpectMatchesLinearScan;
using testing::ExpectWellFormed;
using testing::RandomPoints;
using testing::RandomQueryRect;
using testing::RandomSegments;

std::vector<std::pair<Box3D, uint64_t>> RandomBoxes3D(size_t n,
                                                      uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<Box3D, uint64_t>> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = rng.NextDoubleInRange(0, 100);
    const double y = rng.NextDoubleInRange(0, 100);
    const double z = rng.NextDoubleInRange(0, 100);
    entries.emplace_back(
        Box3D(x, y, z, x + rng.NextDoubleInRange(0, 5),
              y + rng.NextDoubleInRange(0, 5), z + rng.NextDoubleInRange(0, 5)),
        static_cast<uint64_t>(i));
  }
  return entries;
}

TEST(FrozenRTreeTest, EmptyTree) {
  const auto frozen = FrozenRTreePoints2D::BulkLoad({});
  EXPECT_TRUE(frozen.empty());
  EXPECT_EQ(frozen.size(), 0u);
  EXPECT_EQ(frozen.Height(), 0);
  EXPECT_FALSE(frozen.AnyIntersecting(Rect(0, 0, 100, 100)));
  EXPECT_TRUE(frozen.CollectIntersecting(Rect(0, 0, 100, 100)).empty());
  EXPECT_TRUE(frozen.Bounds().IsEmpty());
  ExpectWellFormed(frozen);

  BinaryWriter writer;
  frozen.SerializeTo(writer);
  BinaryReader reader(writer.bytes());
  auto restored = FrozenRTreePoints2D::Deserialize(reader, BorrowContext{});
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(restored->empty());
}

TEST(FrozenRTreeTest, SingleEntry) {
  const auto tree =
      FrozenRTree2D::BulkLoad({{Rect::FromPoint(Point2D{5, 5}), 42}});
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.Height(), 1);
  EXPECT_EQ(tree.Bounds(), Rect::FromPoint(Point2D{5, 5}));
  EXPECT_TRUE(tree.AnyIntersecting(Rect(0, 0, 10, 10)));
  EXPECT_FALSE(tree.AnyIntersecting(Rect(6, 6, 10, 10)));
  EXPECT_EQ(tree.CollectIntersecting(Rect(0, 0, 10, 10)),
            std::vector<uint64_t>{42});
  ExpectWellFormed(tree);
}

class FrozenRTreeSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(FrozenRTreeSizeTest, BulkLoadAllSizesQueryExactly) {
  // Sizes straddle the fanout (32) and its powers: one leaf, a root over
  // two leaves, three levels.
  const size_t n = GetParam();
  const auto entries = RandomPoints(n, 1000 + n);
  const auto tree = FrozenRTreePoints2D::BulkLoad(entries);
  ExpectWellFormed(tree);
  EXPECT_EQ(tree.Height() == 1, n <= FrozenRTreePoints2D::kFanout);
  Rng rng(2000 + n);
  std::vector<Rect> queries{Rect(20, 20, 55, 55), Rect(-1, -1, 101, 101)};
  for (int q = 0; q < 20; ++q) queries.push_back(RandomQueryRect(rng));
  ExpectMatchesLinearScan(tree, entries, queries);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FrozenRTreeSizeTest,
                         ::testing::Values(1, 2, 31, 32, 33, 100, 1024, 1025,
                                           4096, 20000));

TEST(FrozenRTreeTest, Boxes3DAgreeWithLinearScan) {
  const auto entries = RandomBoxes3D(3000, 61);
  const auto tree = FrozenRTree3D::BulkLoad(entries);
  ExpectWellFormed(tree);
  Rng rng(62);
  std::vector<Box3D> queries;
  for (int q = 0; q < 40; ++q) {
    const double x = rng.NextDoubleInRange(0, 100);
    const double y = rng.NextDoubleInRange(0, 100);
    const double z = rng.NextDoubleInRange(0, 100);
    queries.emplace_back(x, y, z, x + 15, y + 15, z + 15);
  }
  ExpectMatchesLinearScan(tree, entries, queries);
}

TEST(FrozenRTreeTest, PlaneQueryOverVerticalSegments) {
  // The 3DReach-REV shape: segments at (x, y) spanning z ranges, queried
  // with flat planes.
  std::vector<std::pair<Box3D, uint64_t>> entries;
  for (int i = 0; i < 100; ++i) {
    entries.emplace_back(Box3D::VerticalSegment(i, i, i, i + 10),
                         static_cast<uint64_t>(i));
  }
  const auto tree = FrozenRTree3D::BulkLoad(entries);

  // Plane z = 25 over the whole xy extent: cuts segments with z-range
  // covering 25, i.e. i in [15, 25].
  const Box3D plane = Box3D::FromRectAndInterval(Rect(0, 0, 100, 100), 25, 25);
  std::vector<uint64_t> got = tree.CollectIntersecting(plane);
  std::sort(got.begin(), got.end());
  std::vector<uint64_t> expected;
  for (uint64_t i = 15; i <= 25; ++i) expected.push_back(i);
  EXPECT_EQ(got, expected);
  ExpectMatchesLinearScan(tree, entries, {plane});
}

TEST(FrozenRTreeTest, CuboidQueriesOverPoints3D) {
  Rng rng(95);
  std::vector<std::pair<Point3D, uint64_t>> entries;
  for (size_t i = 0; i < 5000; ++i) {
    entries.emplace_back(Point3D{rng.NextDoubleInRange(0, 100),
                                 rng.NextDoubleInRange(0, 100),
                                 rng.NextDoubleInRange(0, 1000)},
                         i);
  }
  const auto tree = FrozenRTreePoints3D::BulkLoad(entries);
  ExpectWellFormed(tree);
  std::vector<Box3D> queries;
  for (int q = 0; q < 40; ++q) {
    const double x = rng.NextDoubleInRange(0, 80);
    const double y = rng.NextDoubleInRange(0, 80);
    const double z = rng.NextDoubleInRange(0, 800);
    queries.emplace_back(x, y, z, x + 20, y + 20, z + 200);
  }
  ExpectMatchesLinearScan(tree, entries, queries);
}

TEST(FrozenRTreeTest, BoundariesAreInclusive) {
  const auto tree = FrozenRTreePoints3D::BulkLoad({{Point3D{5, 5, 10}, 1}});
  EXPECT_TRUE(tree.AnyIntersecting(Box3D(5, 5, 10, 6, 6, 11)));
  EXPECT_TRUE(tree.AnyIntersecting(Box3D(4, 4, 9, 5, 5, 10)));
  EXPECT_FALSE(tree.AnyIntersecting(Box3D(5.1, 5, 10, 6, 6, 11)));

  const auto flat = FrozenRTreePoints2D::BulkLoad({{Point2D{5, 5}, 1}});
  EXPECT_TRUE(flat.AnyIntersecting(Rect(5, 5, 6, 6)));
  EXPECT_TRUE(flat.AnyIntersecting(Rect(4, 4, 5, 5)));
  EXPECT_FALSE(flat.AnyIntersecting(Rect(5.1, 5, 6, 6)));
}

TEST(FrozenRTreeTest, DuplicatePointsAllSurface) {
  // Bitwise-identical geometries differ only in id; every copy must
  // surface, whatever the tiles they land in.
  std::vector<std::pair<Point2D, uint64_t>> entries;
  for (uint64_t i = 0; i < 50; ++i) entries.emplace_back(Point2D{1, 1}, i);
  const auto tree = FrozenRTreePoints2D::BulkLoad(entries);
  ExpectWellFormed(tree);
  EXPECT_EQ(tree.CollectIntersecting(Rect(0, 0, 2, 2)).size(), 50u);
  ExpectMatchesLinearScan(tree, entries, {Rect(0, 0, 2, 2)});
}

TEST(FrozenRTreeTest, EarlyTerminationStopsVisit) {
  const auto tree = FrozenRTreePoints2D::BulkLoad(RandomPoints(1000, 51));
  int visits = 0;
  const bool stopped = tree.ForEachIntersecting(
      Rect(0, 0, 100, 100), [&](const Point2D&, uint64_t) {
        ++visits;
        return visits < 5;
      });
  EXPECT_TRUE(stopped);
  EXPECT_EQ(visits, 5);
  EXPECT_FALSE(tree.ForEachIntersecting(
      Rect(0, 0, 100, 100), [](const Point2D&, uint64_t) { return true; }));
}

TEST(FrozenRTreeTest, PointLeavesMatchBoxLeaves) {
  // The same data stored as points and as degenerate rectangles gives
  // identical answers — and the point form is the smaller index, which is
  // why the paper's non-MBR variant wins on size (Section 6.2): 2 doubles
  // per leaf entry instead of 4.
  const auto point_entries = RandomPoints(3000, 91);
  std::vector<std::pair<Rect, uint64_t>> box_entries;
  for (const auto& [p, id] : point_entries) {
    box_entries.emplace_back(Rect::FromPoint(p), id);
  }
  const auto points = FrozenRTreePoints2D::BulkLoad(point_entries);
  const auto boxes = FrozenRTree2D::BulkLoad(box_entries);
  EXPECT_LT(points.SizeBytes(), boxes.SizeBytes());

  Rng rng(92);
  for (int q = 0; q < 60; ++q) {
    const Rect query = RandomQueryRect(rng);
    auto a = points.CollectIntersecting(query);
    auto b = boxes.CollectIntersecting(query);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
  }
}

}  // namespace
}  // namespace gsr
