#ifndef GSR_EXEC_QUERY_SCHEDULER_H_
#define GSR_EXEC_QUERY_SCHEDULER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/range_reach.h"
#include "exec/batch_runner.h"
#include "exec/query_group.h"
#include "exec/thread_pool.h"

namespace gsr::exec {

/// Work-sharing query scheduler: sits between callers and a method's
/// Evaluate, reorders an admitted window of queries into shared-work
/// groups (see BuildGroups) and executes one group per pool task through
/// the method's EvaluateGroup hook.
///
/// Guarantees:
///  - Answers are bit-identical to evaluating every query serially with
///    Evaluate — grouping only changes *how often* shared work (labeling
///    probes, descendant scans, R-tree descents) runs, never an answer.
///    methods_agreement_test enforces this for all methods across thread
///    counts and forced kernel levels.
///  - Fairness: queries are admitted in windows of
///    GroupingOptions::window, so no query waits on more than one
///    window's worth of later arrivals.
///  - An exception thrown by one group does not poison the rest of the
///    batch: the remaining groups still execute, the first exception is
///    rethrown after the batch, and the scheduler stays usable for the
///    next Run.
///
/// Like BatchRunner, per-worker scratches are cached across Run() calls
/// for the same method (ScratchCache) and their counters drained into
/// the method aggregate after every batch.
class QueryScheduler {
 public:
  /// The pool must outlive the scheduler.
  explicit QueryScheduler(ThreadPool* pool) : pool_(pool) {}

  /// Groups and evaluates all queries; blocks until done. Rethrows the
  /// first exception any group threw (after all groups ran).
  BatchResult Run(const RangeReachMethod& method,
                  const std::vector<RangeReachQuery>& queries,
                  const SchedulerOptions& options = {});

  /// Number of per-worker scratches currently cached (test hook).
  size_t cached_scratch_count() const { return scratches_.size(); }

  /// Sharing achieved by the last Run (bench/test introspection).
  struct ShareStats {
    size_t groups = 0;            // Shared-work units executed.
    size_t queries = 0;           // Members across all groups.
    size_t distinct_regions = 0;  // Region slots after dedup.
  };
  const ShareStats& last_share_stats() const { return last_share_stats_; }

 private:
  ThreadPool* pool_;
  ScratchCache scratches_;
  /// Grouping state reused across windows and Run() calls, so a
  /// steady-state dispatch allocates nothing (the open-loop serving
  /// shape: many small windows per second).
  GroupingArena arena_;
  ShareStats last_share_stats_;
};

}  // namespace gsr::exec

#endif  // GSR_EXEC_QUERY_SCHEDULER_H_
