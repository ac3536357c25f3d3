#include "exec/query_scheduler.h"

#include <algorithm>
#include <chrono>
#include <span>

#include "common/check.h"
#include "common/simd.h"

namespace gsr::exec {

BatchResult QueryScheduler::Run(const RangeReachMethod& method,
                                const std::vector<RangeReachQuery>& queries,
                                const SchedulerOptions& options) {
  CheckVertices(method, queries);
  scratches_.Ensure(method, pool_->size());
  BatchResult result =
      SizedBatchResult(queries.size(), options.kind, options.record_latencies);
  last_share_stats_ = ShareStats{};

  const size_t window = std::max<size_t>(1, options.grouping.window);
  FirstError error;

  for (size_t start = 0; start < queries.size(); start += window) {
    const size_t count = std::min(window, queries.size() - start);

    if (count < options.min_window_to_group) {
      // A window this small has (almost) nothing to share; skip the
      // grouping pass and run one query per pool task through
      // BatchRunner::Run's dispatch path, with its default claim chunk.
      // Under open-loop serving this is the common dispatch shape
      // whenever the backlog is small, and the grouping pass would be
      // pure added latency there; a real backlog exceeds the threshold
      // and gets grouped as usual.
      last_share_stats_.groups += count;
      last_share_stats_.queries += count;
      last_share_stats_.distinct_regions += count;
      EvaluateEach(*pool_, method,
                   std::span<const RangeReachQuery>(queries.data() + start,
                                                    count),
                   start, options.kind, BatchOptions{}.chunk, scratches_,
                   error, result);
      continue;
    }

    const std::span<const QueryGroup> groups = arena_.Build(
        std::span<const RangeReachQuery>(queries.data() + start, count),
        options.grouping);
    for (const QueryGroup& group : groups) {
      ++last_share_stats_.groups;
      last_share_stats_.queries += group.member_query.size();
      last_share_stats_.distinct_regions += group.regions.size();
    }

    pool_->ParallelFor(groups.size(), 1, [&](size_t g, unsigned worker) {
      const QueryGroup& group = groups[g];
      // BuildGroups clamps groups to the kernel mask width, so stack
      // answer/sink buffers suffice.
      GSR_CHECK(group.regions.size() <= simd::kMaskWidth);
      const size_t slots = group.regions.size();
      bool answers[simd::kMaskWidth];
      ResultSink sinks[simd::kMaskWidth];
      // Per-region-slot enum arenas; duplicate queries of a slot copy
      // from it when the answers scatter. Sized only for enum groups.
      std::vector<std::vector<VertexId>> slot_vertices;
      // Clock reads only when asked: a low-dedup window degenerates into
      // hundreds of singleton groups, and a steady_clock call per group
      // is real overhead against sub-microsecond evaluations.
      std::chrono::steady_clock::time_point begin;
      if (options.record_latencies) begin = std::chrono::steady_clock::now();
      try {
        switch (options.kind) {
          case QueryKind::kBool:
            method.EvaluateGroup(group.vertex,
                                 std::span<const Rect>(group.regions),
                                 std::span<bool>(answers, slots),
                                 scratches_[worker]);
            break;
          case QueryKind::kCount:
            for (size_t k = 0; k < slots; ++k) sinks[k] = ResultSink::Count();
            method.CollectGroupInto(group.vertex,
                                    std::span<const Rect>(group.regions),
                                    std::span<ResultSink>(sinks, slots),
                                    scratches_[worker]);
            break;
          case QueryKind::kEnum:
            slot_vertices.resize(slots);
            for (size_t k = 0; k < slots; ++k) {
              sinks[k] = ResultSink::Enum(&slot_vertices[k]);
            }
            method.CollectGroupInto(group.vertex,
                                    std::span<const Rect>(group.regions),
                                    std::span<ResultSink>(sinks, slots),
                                    scratches_[worker]);
            for (size_t k = 0; k < slots; ++k) sinks[k].Finalize();
            break;
        }
      } catch (...) {
        // Swallow here so this worker keeps draining its remaining
        // groups (ParallelFor would otherwise abandon them); the first
        // exception is rethrown after the batch.
        error.Capture();
        return;
      }
      double micros = 0.0;
      if (options.record_latencies) {
        micros = std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - begin)
                     .count();
      }
      for (size_t m = 0; m < group.member_query.size(); ++m) {
        const size_t slot = start + group.member_query[m];
        const uint32_t r = group.member_region[m];
        if (options.kind == QueryKind::kBool) {
          result.answers[slot] = answers[r] ? 1 : 0;
        } else {
          result.counts[slot] = sinks[r].count();
          result.answers[slot] = sinks[r].found() ? 1 : 0;
          if (options.kind == QueryKind::kEnum) {
            result.enums[slot] = slot_vertices[r];
          }
        }
        if (options.record_latencies) result.latencies_us[slot] = micros;
      }
    });
  }

  // Pool idle: drain per-worker counters into the method aggregate, even
  // on the error path (the scratches are still healthy).
  scratches_.Drain(method);
  error.RethrowIfAny();

  for (const uint8_t answer : result.answers) result.true_count += answer;
  return result;
}

}  // namespace gsr::exec
