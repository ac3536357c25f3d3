#ifndef GSR_TESTS_RTREE_TEST_UTIL_H_
#define GSR_TESTS_RTREE_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/rng.h"
#include "spatial/frozen_rtree.h"

namespace gsr::testing {

/// Shared by rtree_test (STR bulk load against a linear scan) and
/// frozen_rtree_test (packed layout, serialization, golden bytes): random
/// entry generators, the linear-scan oracle and a structural check over the
/// serialized arrays.

inline std::vector<std::pair<Point2D, uint64_t>> RandomPoints(size_t n,
                                                              uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<Point2D, uint64_t>> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    entries.emplace_back(Point2D{rng.NextDoubleInRange(0, 100),
                                 rng.NextDoubleInRange(0, 100)},
                         static_cast<uint64_t>(i));
  }
  return entries;
}

inline std::vector<std::pair<Box3D, uint64_t>> RandomSegments(
    size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<Box3D, uint64_t>> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double z_lo = rng.NextDoubleInRange(0, 50);
    entries.emplace_back(
        Box3D::VerticalSegment(rng.NextDoubleInRange(0, 100),
                               rng.NextDoubleInRange(0, 100), z_lo,
                               z_lo + rng.NextDoubleInRange(0, 50)),
        static_cast<uint64_t>(i));
  }
  return entries;
}

inline Rect RandomQueryRect(Rng& rng) {
  const double x = rng.NextDoubleInRange(-10, 100);
  const double y = rng.NextDoubleInRange(-10, 100);
  return Rect(x, y, x + rng.NextDoubleInRange(0, 40),
              y + rng.NextDoubleInRange(0, 40));
}

/// Ids of every entry intersecting `query`, ascending: the oracle.
template <typename BoxT, typename LeafT>
std::vector<uint64_t> LinearScan(
    const std::vector<std::pair<LeafT, uint64_t>>& entries,
    const BoxT& query) {
  std::vector<uint64_t> out;
  for (const auto& [geom, id] : entries) {
    if (GeomIntersects(query, geom)) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Every query finds exactly the linear scan's entries, each once.
template <typename BoxT, typename LeafT>
void ExpectMatchesLinearScan(
    const FrozenRTree<BoxT, LeafT>& tree,
    const std::vector<std::pair<LeafT, uint64_t>>& entries,
    const std::vector<BoxT>& queries) {
  EXPECT_EQ(tree.size(), entries.size());
  EXPECT_EQ(tree.SizeBytes() > 0, !entries.empty());
  for (const BoxT& query : queries) {
    const std::vector<uint64_t> expected = LinearScan(entries, query);
    std::vector<uint64_t> got = tree.CollectIntersecting(query);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << query.ToString();
    EXPECT_EQ(tree.AnyIntersecting(query), !expected.empty())
        << query.ToString();
  }
}

/// Structural self-check over the serialized arrays: breadth-first
/// numbering (root 0, children after parents), node fill within
/// [1, kFanout], every leaf at depth Height(), node MBRs covering their
/// entries and child boxes equal to the child nodes' MBRs.
template <typename BoxT, typename LeafT>
void ExpectWellFormed(const FrozenRTree<BoxT, LeafT>& tree) {
  using Tree = FrozenRTree<BoxT, LeafT>;
  BinaryWriter writer;
  tree.SerializeTo(writer);
  BinaryReader reader(writer.bytes());
  uint64_t size = 0;
  int32_t height = 0;
  std::span<const typename Tree::Node> nodes;
  std::span<const BoxT> child_boxes;
  std::span<const uint32_t> child_nodes;
  std::span<const LeafT> leaf_geoms;
  std::span<const uint64_t> leaf_ids;
  ASSERT_TRUE(reader.ReadU64(&size).ok());
  ASSERT_TRUE(reader.ReadI32(&height).ok());
  ASSERT_TRUE(reader.ReadArrayView(&nodes).ok());
  ASSERT_TRUE(reader.ReadArrayView(&child_boxes).ok());
  ASSERT_TRUE(reader.ReadArrayView(&child_nodes).ok());
  ASSERT_TRUE(reader.ReadArrayView(&leaf_geoms).ok());
  ASSERT_TRUE(reader.ReadArrayView(&leaf_ids).ok());
  ASSERT_EQ(size, tree.size());
  ASSERT_EQ(height, tree.Height());
  ASSERT_EQ(leaf_ids.size(), size);
  if (size == 0) {
    EXPECT_TRUE(nodes.empty());
    EXPECT_EQ(height, 0);
    return;
  }
  EXPECT_EQ(tree.Bounds(), nodes[0].mbr);
  std::vector<int> depth(nodes.size(), 0);
  depth[0] = 1;
  uint64_t next_leaf_entry = 0;
  for (uint32_t idx = 0; idx < nodes.size(); ++idx) {
    const auto& node = nodes[idx];
    ASSERT_GE(node.count, 1u) << idx;
    ASSERT_LE(node.count, Tree::kFanout) << idx;
    EXPECT_EQ(node.reserved, 0u);
    BoxT covered;
    if (node.is_leaf) {
      EXPECT_EQ(depth[idx], height) << "leaf " << idx;
      // Leaves own consecutive slices in node order.
      EXPECT_EQ(node.first, next_leaf_entry);
      next_leaf_entry += node.count;
      for (uint32_t i = node.first; i < node.first + node.count; ++i) {
        covered.Expand(GeomToBox(leaf_geoms[i]));
      }
    } else {
      for (uint32_t i = node.first; i < node.first + node.count; ++i) {
        const uint32_t child = child_nodes[i];
        ASSERT_GT(child, idx);
        ASSERT_LT(child, nodes.size());
        depth[child] = depth[idx] + 1;
        EXPECT_EQ(child_boxes[i], nodes[child].mbr);
        covered.Expand(child_boxes[i]);
      }
    }
    EXPECT_EQ(covered, node.mbr) << "node " << idx;
  }
  EXPECT_EQ(next_leaf_entry, size);
}

}  // namespace gsr::testing

#endif  // GSR_TESTS_RTREE_TEST_UTIL_H_
