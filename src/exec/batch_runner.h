#ifndef GSR_EXEC_BATCH_RUNNER_H_
#define GSR_EXEC_BATCH_RUNNER_H_

#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/range_reach.h"
#include "exec/query_group.h"
#include "exec/thread_pool.h"

namespace gsr::exec {

class QueryScheduler;

/// Tuning knobs for one batch evaluation.
struct BatchOptions {
  /// Queries per chunk claimed from the shared cursor. Large enough to
  /// amortize the atomic increment, small enough to balance skewed
  /// per-query costs (a BFS miss can be 1000x a label-lookup hit).
  size_t chunk = 32;
  /// When set, BatchResult::latencies_us gets one entry per query
  /// (steady-clock wall time of that query on its worker).
  bool record_latencies = false;
  /// What every query of the batch computes: boolean RangeReach (the
  /// default, the paper's Problem 1), RangeReachCount, or RangeReachEnum.
  /// Count/enum batches run the methods' collection paths and fill
  /// BatchResult::counts / ::enums alongside the answers.
  QueryKind kind = QueryKind::kBool;
};

/// Answers for one batch.
struct BatchResult {
  /// answers[i] == 1 iff queries[i] is TRUE (for count/enum kinds: iff
  /// the result set is non-empty). uint8_t (not vector<bool>) so
  /// concurrent writes to distinct indices are race-free.
  std::vector<uint8_t> answers;
  /// Number of TRUE answers (== sum of answers).
  size_t true_count = 0;
  /// counts[i] == |result set of queries[i]|; filled for kCount and
  /// kEnum batches, empty for kBool.
  std::vector<uint64_t> counts;
  /// enums[i] == the result vertices of queries[i] in canonical
  /// (ascending) order; filled for kEnum batches only.
  std::vector<std::vector<VertexId>> enums;
  /// Per-query latencies in microseconds, parallel to answers; empty
  /// unless BatchOptions::record_latencies.
  std::vector<double> latencies_us;
};

/// Per-worker query scratches for one method, shared by BatchRunner and
/// QueryScheduler. Scratches are cached across batches for the same
/// method (index buffers stay warm); switching methods re-creates them.
/// Keyed by instance_id(), not address: a destroyed method's address can
/// be reoccupied by a new instance whose scratch layout differs.
class ScratchCache {
 public:
  /// Makes one scratch per worker available for `method`.
  void Ensure(const RangeReachMethod& method, unsigned workers);
  QueryScratch& operator[](unsigned worker) { return *scratches_[worker]; }
  /// Folds every scratch's counters into `method`'s aggregate. The pool
  /// must be idle, so no query races with the drain.
  void Drain(const RangeReachMethod& method);
  size_t size() const { return scratches_.size(); }

 private:
  uint64_t method_id_ = 0;  // 0 = empty.
  std::vector<std::unique_ptr<QueryScratch>> scratches_;
};

/// Keeps the first exception thrown by any task of a batch, so the other
/// tasks still run; the batch rethrows it after draining counters.
class FirstError {
 public:
  /// Call from a catch block.
  void Capture() {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!error_) error_ = std::current_exception();
  }
  void RethrowIfAny() const {
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::mutex mutex_;
  std::exception_ptr error_;
};

/// Enforces the query-vertex precondition for a whole batch before any
/// work starts: throws std::out_of_range naming the first slot whose query
/// vertex (or, for AnyReach, any source) is not below
/// method.num_vertices(). Run, RunAny and QueryScheduler::Run (behind
/// RunShared) call it first, so a bad id never reaches an index.
void CheckVertices(const RangeReachMethod& method,
                   std::span<const RangeReachQuery> queries);
void CheckVertices(const RangeReachMethod& method,
                   std::span<const AnyReachQuery> queries);

/// A BatchResult with answer (and, per kind and `record_latencies`,
/// count, enum and latency) slots for `n` queries.
BatchResult SizedBatchResult(size_t n, QueryKind kind, bool record_latencies);

/// The one per-query dispatch path, behind BatchRunner::Run and the
/// scheduler's small-window bypass: evaluates queries[i] of `kind` into
/// slot `offset + i` of `result` for every i, one query per pool index
/// claimed `chunk` at a time. Workers write disjoint slots, so no
/// synchronization is needed. Clocks are read only when `result` has
/// latency slots. A throwing query is recorded in `error` and leaves its
/// slot zero; every other query still runs.
void EvaluateEach(ThreadPool& pool, const RangeReachMethod& method,
                  std::span<const RangeReachQuery> queries, size_t offset,
                  QueryKind kind, size_t chunk, ScratchCache& scratches,
                  FirstError& error, BatchResult& result);

/// Evaluates batches of RangeReach queries on a thread pool.
///
/// Each pool worker gets its own QueryScratch (created via
/// method.NewScratch()), so any RangeReachMethod honoring the scratch
/// contract of core/range_reach.h can be driven from all workers at once.
/// After every batch the per-worker scratch counters are drained into the
/// method's aggregate counters on the calling thread, so
/// method.counters() reflects batch work exactly as a serial loop on one
/// scratch followed by one DrainScratchCounters would.
///
/// Every entry point first checks each query vertex (and AnyReach source)
/// against method.num_vertices() and throws std::out_of_range, naming the
/// slot and the id, before any query runs.
///
/// Scratches are cached across Run() calls for the same method (see
/// ScratchCache).
class BatchRunner {
 public:
  /// The pool must outlive the runner. Constructor and destructor are
  /// out of line: QueryScheduler is an incomplete type here.
  explicit BatchRunner(ThreadPool* pool);
  ~BatchRunner();

  /// Evaluates all queries; blocks until the batch is done. Rethrows the
  /// first exception any query evaluation threw, after every other query
  /// ran and the counters were drained.
  BatchResult Run(const RangeReachMethod& method,
                  const std::vector<RangeReachQuery>& queries,
                  const BatchOptions& options = {});

  /// Evaluates all queries through the work-sharing QueryScheduler:
  /// queries sharing a query vertex (and, within a vertex, spatially
  /// close regions) execute as one group via the method's EvaluateGroup
  /// hook. Answers are bit-identical to Run; shared probes/descents make
  /// it faster on skewed streams. The scheduler (and its scratch cache)
  /// persists across calls, like Run's.
  BatchResult RunShared(const RangeReachMethod& method,
                        const std::vector<RangeReachQuery>& queries,
                        const SchedulerOptions& options = {});

  /// Evaluates a batch of multi-source AnyReach queries (one per pool
  /// task, through the method's EvaluateAny hook — k-way batched probes
  /// where the method has them). Only answers/true_count are produced;
  /// BatchOptions::kind is ignored. Rethrows like Run: after every other
  /// query ran and the counters were drained.
  BatchResult RunAny(const RangeReachMethod& method,
                     const std::vector<AnyReachQuery>& queries,
                     const BatchOptions& options = {});

  /// The scheduler behind RunShared (sharing stats); nullptr until the
  /// first RunShared call.
  const QueryScheduler* scheduler() const { return scheduler_.get(); }

  /// Number of per-worker scratches currently cached (test hook).
  size_t cached_scratch_count() const { return scratches_.size(); }

 private:
  ThreadPool* pool_;
  ScratchCache scratches_;
  /// Lazily created by RunShared (incomplete type here; the destructor
  /// is out of line for the same reason).
  std::unique_ptr<QueryScheduler> scheduler_;
};

}  // namespace gsr::exec

#endif  // GSR_EXEC_BATCH_RUNNER_H_
