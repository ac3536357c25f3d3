#include "spatial/frozen_rtree.h"

#include <cmath>
#include <cstddef>

#include "common/check.h"
#include "exec/parallel.h"

namespace gsr {

namespace {

/// STR geometry traits: dimensionality of a box type, entry centers and
/// box extremes along one dimension (the sort keys of StrLess).
int BoxDims(const Rect&) { return 2; }
int BoxDims(const Box3D&) { return 3; }

double CenterAlong(const Rect& r, int dim) {
  return dim == 0 ? (r.min_x + r.max_x) / 2.0 : (r.min_y + r.max_y) / 2.0;
}
double CenterAlong(const Box3D& b, int dim) {
  return (b.min[dim] + b.max[dim]) / 2.0;
}
double CenterAlong(const Point2D& p, int dim) { return dim == 0 ? p.x : p.y; }
double CenterAlong(const Point3D& p, int dim) {
  return dim == 0 ? p.x : (dim == 1 ? p.y : p.z);
}

double BoxMinAlong(const Rect& r, int dim) {
  return dim == 0 ? r.min_x : r.min_y;
}
double BoxMaxAlong(const Rect& r, int dim) {
  return dim == 0 ? r.max_x : r.max_y;
}
double BoxMinAlong(const Box3D& b, int dim) { return b.min[dim]; }
double BoxMaxAlong(const Box3D& b, int dim) { return b.max[dim]; }

/// One node-sized run of consecutive items produced by STR tiling.
struct Run {
  size_t lo = 0;
  size_t hi = 0;
};

/// Strict total order used for STR tiling along `dim`: center along dim,
/// then the remaining centers, then box extents, then id. Ties only
/// between bitwise-identical entries, which makes the sorted permutation
/// unique — the foundation of the deterministic parallel build.
template <typename ItemT>
bool StrLess(const ItemT& a, const ItemT& b, int dim, int dims) {
  {
    const double ca = CenterAlong(a.first, dim);
    const double cb = CenterAlong(b.first, dim);
    if (ca != cb) return ca < cb;
  }
  for (int d = 0; d < dims; ++d) {
    if (d == dim) continue;
    const double ca = CenterAlong(a.first, d);
    const double cb = CenterAlong(b.first, d);
    if (ca != cb) return ca < cb;
  }
  const auto box_a = GeomToBox(a.first);
  const auto box_b = GeomToBox(b.first);
  for (int d = 0; d < dims; ++d) {
    if (BoxMinAlong(box_a, d) != BoxMinAlong(box_b, d)) {
      return BoxMinAlong(box_a, d) < BoxMinAlong(box_b, d);
    }
    if (BoxMaxAlong(box_a, d) != BoxMaxAlong(box_b, d)) {
      return BoxMaxAlong(box_a, d) < BoxMaxAlong(box_b, d);
    }
  }
  return a.second < b.second;
}

/// STR tiling: sorts and slices `items` level by level along each
/// dimension and returns the node-sized runs in ascending position.
/// Equivalent to the classic recursion, but expressed as per-dimension
/// rounds of independent range sorts so they can run on `pool`.
template <typename ItemT>
std::vector<Run> StrSortIntoRuns(std::vector<ItemT>& items, int dims,
                                 size_t capacity, exec::ThreadPool* pool) {
  std::vector<Run> runs;
  std::vector<Run> current{{0, items.size()}};
  for (int dim = 0; dim < dims && !current.empty(); ++dim) {
    // Ranges already small enough become one node, unsorted — exactly as
    // the classic recursion's base case.
    std::vector<Run> to_sort;
    for (const Run& r : current) {
      (r.hi - r.lo <= capacity ? runs : to_sort).push_back(r);
    }

    auto less = [dim, dims](const ItemT& a, const ItemT& b) {
      return StrLess(a, b, dim, dims);
    };
    if (to_sort.size() == 1) {
      // The dim-0 round is one big range: split it across workers.
      exec::ParallelSort(pool,
                         items.begin() + static_cast<ptrdiff_t>(to_sort[0].lo),
                         items.begin() + static_cast<ptrdiff_t>(to_sort[0].hi),
                         less);
    } else {
      // Deeper rounds have many independent slabs: one sort per worker.
      exec::ForEachIndex(pool, to_sort.size(), 1, [&](size_t i) {
        std::sort(items.begin() + static_cast<ptrdiff_t>(to_sort[i].lo),
                  items.begin() + static_cast<ptrdiff_t>(to_sort[i].hi), less);
      });
    }

    std::vector<Run> next;
    for (const Run& r : to_sort) {
      const size_t n = r.hi - r.lo;
      if (dim >= dims - 1) {
        // Last dimension: chop the run into consecutive full nodes.
        for (size_t start = r.lo; start < r.hi; start += capacity) {
          runs.push_back(Run{start, std::min(start + capacity, r.hi)});
        }
        continue;
      }
      const double nodes_needed =
          std::ceil(static_cast<double>(n) / static_cast<double>(capacity));
      const size_t slices = static_cast<size_t>(std::max(
          1.0, std::ceil(std::pow(nodes_needed,
                                  1.0 / static_cast<double>(dims - dim)))));
      const size_t slab = (n + slices - 1) / slices;
      for (size_t start = r.lo; start < r.hi; start += slab) {
        next.push_back(Run{start, std::min(start + slab, r.hi)});
      }
    }
    current = std::move(next);
  }
  // Emit in ascending item position, matching the serial recursion order.
  std::sort(runs.begin(), runs.end(),
            [](const Run& a, const Run& b) { return a.lo < b.lo; });
  return runs;
}

}  // namespace

template <typename BoxT, typename LeafT>
FrozenRTree<BoxT, LeafT> FrozenRTree<BoxT, LeafT>::BulkLoad(
    std::vector<std::pair<LeafT, uint64_t>> entries, exec::ThreadPool* pool) {
  FrozenRTree out;
  out.size_ = entries.size();
  if (entries.empty()) return out;

  // One STR level, bottom-up. Node i of the level covers [runs[i].lo,
  // runs[i].hi) of that level's sorted input: `entries` for the leaves;
  // for upper levels `items`, the level below's node MBRs tagged with
  // their level-local index (StrLess's final tie-break, and the child
  // link the packing pass follows).
  struct Level {
    std::vector<Run> runs;
    std::vector<BoxT> mbrs;
    std::vector<std::pair<BoxT, uint64_t>> items;
  };
  const int dims = BoxDims(BoxT());
  std::vector<Level> levels(1);
  levels[0].runs = StrSortIntoRuns(entries, dims, kFanout, pool);
  levels[0].mbrs.resize(levels[0].runs.size());
  exec::ForEachIndex(pool, levels[0].runs.size(), 8, [&](size_t i) {
    BoxT mbr;
    for (size_t k = levels[0].runs[i].lo; k < levels[0].runs[i].hi; ++k) {
      mbr.Expand(GeomToBox(entries[k].first));
    }
    levels[0].mbrs[i] = mbr;
  });
  // Build upper levels by STR-tiling the node MBRs until one root remains.
  while (levels.back().runs.size() > 1) {
    Level up;
    const std::vector<BoxT>& below = levels.back().mbrs;
    up.items.resize(below.size());
    exec::ForEachIndex(pool, below.size(), 512,
                       [&](size_t i) { up.items[i] = {below[i], i}; });
    up.runs = StrSortIntoRuns(up.items, dims, kFanout, pool);
    up.mbrs.resize(up.runs.size());
    exec::ForEachIndex(pool, up.runs.size(), 8, [&](size_t i) {
      BoxT mbr;
      for (size_t k = up.runs[i].lo; k < up.runs[i].hi; ++k) {
        mbr.Expand(up.items[k].first);
      }
      up.mbrs[i] = mbr;
    });
    levels.push_back(std::move(up));
  }
  out.height_ = static_cast<int>(levels.size());

  // Breadth-first numbering, top level first: node 0 is the root and
  // every child gets a higher index than its parent — a property
  // Deserialize re-validates to reject cyclic (corrupt) node links. All
  // leaves sit at one depth, so a level's nodes are numbered in the order
  // their parents list them; `order` holds those level-local indices.
  size_t total_nodes = 0;
  for (const Level& level : levels) total_nodes += level.runs.size();
  out.owned_nodes_.reserve(total_nodes);
  // Every node but the root is exactly one parent's child.
  out.owned_child_boxes_.reserve(total_nodes - 1);
  out.owned_child_nodes_.reserve(total_nodes - 1);
  std::vector<uint32_t> order{0};
  for (size_t l = levels.size() - 1; l > 0; --l) {
    const Level& level = levels[l];
    const uint32_t first_child =
        static_cast<uint32_t>(out.owned_nodes_.size() + order.size());
    std::vector<uint32_t> next;
    next.reserve(levels[l - 1].runs.size());
    for (const uint32_t i : order) {
      const auto [lo, hi] = level.runs[i];
      Node packed;
      packed.mbr = level.mbrs[i];
      packed.is_leaf = 0;
      packed.first = static_cast<uint32_t>(out.owned_child_nodes_.size());
      packed.count = static_cast<uint32_t>(hi - lo);
      for (size_t k = lo; k < hi; ++k) {
        out.owned_child_boxes_.push_back(level.items[k].first);
        out.owned_child_nodes_.push_back(
            first_child + static_cast<uint32_t>(next.size()));
        next.push_back(static_cast<uint32_t>(level.items[k].second));
      }
      out.owned_nodes_.push_back(packed);
    }
    order = std::move(next);
  }

  // Leaves: entries land in breadth-first leaf order, each leaf's slice
  // at a fixed offset, so the copy runs in parallel.
  const Level& leaves = levels[0];
  const size_t first_leaf = out.owned_nodes_.size();
  uint32_t leaf_entries = 0;
  for (const uint32_t i : order) {
    const auto [lo, hi] = leaves.runs[i];
    Node packed;
    packed.mbr = leaves.mbrs[i];
    packed.first = leaf_entries;
    packed.count = static_cast<uint32_t>(hi - lo);
    leaf_entries += packed.count;
    out.owned_nodes_.push_back(packed);
  }
  out.owned_leaf_geoms_.resize(entries.size());
  out.owned_leaf_ids_.resize(entries.size());
  exec::ForEachIndex(pool, order.size(), 8, [&](size_t j) {
    const auto [lo, hi] = leaves.runs[order[j]];
    size_t at = out.owned_nodes_[first_leaf + j].first;
    for (size_t k = lo; k < hi; ++k, ++at) {
      out.owned_leaf_geoms_[at] = entries[k].first;
      out.owned_leaf_ids_[at] = entries[k].second;
    }
  });

  out.nodes_ = out.owned_nodes_;
  out.child_boxes_ = out.owned_child_boxes_;
  out.child_nodes_ = out.owned_child_nodes_;
  out.leaf_geoms_ = out.owned_leaf_geoms_;
  out.leaf_ids_ = out.owned_leaf_ids_;
  out.root_mbr_ = out.owned_nodes_[0].mbr;
  return out;
}

template <typename BoxT, typename LeafT>
void FrozenRTree<BoxT, LeafT>::SerializeTo(BinaryWriter& w) const {
  GSR_CHECK(!paged_);  // A paged tree's arrays live on disk, not in memory.
  w.WriteU64(size_);
  w.WriteI32(height_);
  w.WriteArray(nodes_);
  w.WriteArray(child_boxes_);
  w.WriteArray(child_nodes_);
  w.WriteArray(leaf_geoms_);
  w.WriteArray(leaf_ids_);
}

template <typename BoxT, typename LeafT>
Result<FrozenRTree<BoxT, LeafT>> FrozenRTree<BoxT, LeafT>::Deserialize(
    BinaryReader& r, const BorrowContext& ctx) {
  FrozenRTree out;
  uint64_t size = 0;
  GSR_RETURN_IF_ERROR(r.ReadU64(&size));
  GSR_RETURN_IF_ERROR(r.ReadI32(&out.height_));
  out.size_ = static_cast<size_t>(size);
  GSR_RETURN_IF_ERROR(r.ReadArrayPageable(ctx, &out.owned_nodes_, &out.nodes_,
                                          &out.paged_nodes_));
  GSR_RETURN_IF_ERROR(r.ReadArrayPageable(ctx, &out.owned_child_boxes_,
                                          &out.child_boxes_,
                                          &out.paged_child_boxes_));
  GSR_RETURN_IF_ERROR(r.ReadArrayPageable(ctx, &out.owned_child_nodes_,
                                          &out.child_nodes_,
                                          &out.paged_child_nodes_));
  GSR_RETURN_IF_ERROR(r.ReadArrayPageable(ctx, &out.owned_leaf_geoms_,
                                          &out.leaf_geoms_,
                                          &out.paged_leaf_geoms_));
  GSR_RETURN_IF_ERROR(r.ReadArrayPageable(ctx, &out.owned_leaf_ids_,
                                          &out.leaf_ids_,
                                          &out.paged_leaf_ids_));

  // Structural validation: every index a query descent follows must be in
  // range, and child links must point strictly forward (the BFS layout
  // invariant), so corrupt files fail here instead of crashing later.
  if (out.child_boxes_.size() != out.child_nodes_.size() ||
      out.leaf_geoms_.size() != out.leaf_ids_.size() ||
      out.leaf_ids_.size() != out.size_ ||
      (out.nodes_.empty() && out.size_ != 0)) {
    return Status::InvalidArgument("frozen rtree: array sizes disagree");
  }
  uint64_t leaf_entries = 0;
  for (size_t idx = 0; idx < out.nodes_.size(); ++idx) {
    const Node& node = out.nodes_[idx];
    const uint64_t end = static_cast<uint64_t>(node.first) + node.count;
    if (node.is_leaf > 1) {
      return Status::InvalidArgument("frozen rtree: bad node tag");
    }
    if (node.is_leaf) {
      if (end > out.leaf_ids_.size()) {
        return Status::InvalidArgument("frozen rtree: leaf range out of bounds");
      }
      leaf_entries += node.count;
      continue;
    }
    if (end > out.child_nodes_.size()) {
      return Status::InvalidArgument("frozen rtree: child range out of bounds");
    }
    for (uint64_t i = node.first; i < end; ++i) {
      if (out.child_nodes_[i] <= idx || out.child_nodes_[i] >= out.nodes_.size()) {
        return Status::InvalidArgument("frozen rtree: invalid child link");
      }
    }
  }
  if (leaf_entries != out.size_) {
    return Status::InvalidArgument(
        "frozen rtree: leaf ranges do not cover the entry count");
  }
  if (!out.nodes_.empty()) out.root_mbr_ = out.nodes_[0].mbr;
  if (ctx.paged != nullptr) {
    // Validation above ran against the reader's transient section buffer;
    // from here on only the on-disk PagedArrays are touched. Clear the
    // spans so nothing dangles once the buffer is reused.
    out.paged_ = true;
    out.nodes_ = {};
    out.child_boxes_ = {};
    out.child_nodes_ = {};
    out.leaf_geoms_ = {};
    out.leaf_ids_ = {};
  }
  if (ctx.borrow) out.keepalive_ = ctx.keepalive;
  return out;
}

template class FrozenRTree<Rect, Rect>;
template class FrozenRTree<Rect, Point2D>;
template class FrozenRTree<Box3D, Box3D>;
template class FrozenRTree<Box3D, Point3D>;

}  // namespace gsr
