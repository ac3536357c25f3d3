#include "exec/batch_runner.h"

#include <chrono>
#include <stdexcept>
#include <string>

#include "exec/query_scheduler.h"

namespace gsr::exec {

void ScratchCache::Ensure(const RangeReachMethod& method, unsigned workers) {
  if (method_id_ == method.instance_id()) return;
  scratches_.clear();
  scratches_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    scratches_.push_back(method.NewScratch());
  }
  method_id_ = method.instance_id();
}

void ScratchCache::Drain(const RangeReachMethod& method) {
  for (const std::unique_ptr<QueryScratch>& scratch : scratches_) {
    method.DrainScratchCounters(*scratch);
  }
}

namespace {

[[noreturn]] void ThrowOutOfRange(const RangeReachMethod& method, size_t slot,
                                  VertexId vertex, const char* what) {
  throw std::out_of_range(std::string(what) + " " + std::to_string(vertex) +
                          " in slot " + std::to_string(slot) +
                          " is out of range: " + method.name() +
                          " answers over " +
                          std::to_string(method.num_vertices()) +
                          " vertices");
}

}  // namespace

void CheckVertices(const RangeReachMethod& method,
                   std::span<const RangeReachQuery> queries) {
  const VertexId n = method.num_vertices();
  for (size_t i = 0; i < queries.size(); ++i) {
    if (queries[i].vertex >= n) {
      ThrowOutOfRange(method, i, queries[i].vertex, "query vertex");
    }
  }
}

void CheckVertices(const RangeReachMethod& method,
                   std::span<const AnyReachQuery> queries) {
  const VertexId n = method.num_vertices();
  for (size_t i = 0; i < queries.size(); ++i) {
    for (const VertexId source : queries[i].sources) {
      if (source >= n) ThrowOutOfRange(method, i, source, "AnyReach source");
    }
  }
}

BatchResult SizedBatchResult(size_t n, QueryKind kind, bool record_latencies) {
  BatchResult result;
  result.answers.assign(n, 0);
  if (kind != QueryKind::kBool) {
    result.counts.assign(n, 0);
    if (kind == QueryKind::kEnum) result.enums.assign(n, {});
  }
  if (record_latencies) result.latencies_us.assign(n, 0.0);
  return result;
}

namespace {

/// Evaluates one query of `kind` into slot `slot` of `result`.
void EvaluateOne(const RangeReachMethod& method, const RangeReachQuery& query,
                 QueryKind kind, QueryScratch& scratch, size_t slot,
                 BatchResult& result) {
  switch (kind) {
    case QueryKind::kBool:
      result.answers[slot] =
          method.Evaluate(query.vertex, query.region, scratch) ? 1 : 0;
      return;
    case QueryKind::kCount: {
      ResultSink sink = ResultSink::Count();
      method.CollectInto(query.vertex, query.region, sink, scratch);
      result.counts[slot] = sink.count();
      result.answers[slot] = sink.found() ? 1 : 0;
      return;
    }
    case QueryKind::kEnum: {
      ResultSink sink = ResultSink::Enum(&result.enums[slot]);
      method.CollectInto(query.vertex, query.region, sink, scratch);
      sink.Finalize();
      result.counts[slot] = sink.count();
      result.answers[slot] = sink.found() ? 1 : 0;
      return;
    }
  }
}

}  // namespace

void EvaluateEach(ThreadPool& pool, const RangeReachMethod& method,
                  std::span<const RangeReachQuery> queries, size_t offset,
                  QueryKind kind, size_t chunk, ScratchCache& scratches,
                  FirstError& error, BatchResult& result) {
  // No clock read unless latencies were asked for: at sub-microsecond
  // methods a steady_clock call per query is measurable drag.
  const bool timed = !result.latencies_us.empty();
  pool.ParallelFor(queries.size(), chunk, [&](size_t i, unsigned worker) {
    std::chrono::steady_clock::time_point begin;
    if (timed) begin = std::chrono::steady_clock::now();
    try {
      EvaluateOne(method, queries[i], kind, scratches[worker], offset + i,
                  result);
    } catch (...) {
      // Swallowed so this worker keeps draining its chunk (ParallelFor
      // would otherwise abandon it); the batch rethrows afterwards.
      error.Capture();
      return;
    }
    if (timed) {
      result.latencies_us[offset + i] =
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - begin)
              .count();
    }
  });
}

BatchRunner::BatchRunner(ThreadPool* pool) : pool_(pool) {}
BatchRunner::~BatchRunner() = default;

BatchResult BatchRunner::Run(const RangeReachMethod& method,
                             const std::vector<RangeReachQuery>& queries,
                             const BatchOptions& options) {
  CheckVertices(method, queries);
  scratches_.Ensure(method, pool_->size());
  BatchResult result =
      SizedBatchResult(queries.size(), options.kind, options.record_latencies);
  FirstError error;
  EvaluateEach(*pool_, method, queries, 0, options.kind, options.chunk,
               scratches_, error, result);
  // Pool idle: fold per-worker counters into the method aggregate on this
  // thread, even on the error path (the scratches are still healthy).
  scratches_.Drain(method);
  error.RethrowIfAny();

  for (const uint8_t answer : result.answers) result.true_count += answer;
  return result;
}

BatchResult BatchRunner::RunAny(const RangeReachMethod& method,
                                const std::vector<AnyReachQuery>& queries,
                                const BatchOptions& options) {
  CheckVertices(method, queries);
  scratches_.Ensure(method, pool_->size());
  BatchResult result = SizedBatchResult(queries.size(), QueryKind::kBool,
                                        options.record_latencies);

  FirstError error;
  pool_->ParallelFor(
      queries.size(), options.chunk, [&](size_t i, unsigned worker) {
        std::chrono::steady_clock::time_point begin;
        if (options.record_latencies) {
          begin = std::chrono::steady_clock::now();
        }
        try {
          result.answers[i] = method.EvaluateAny(queries[i].sources,
                                                 queries[i].region,
                                                 scratches_[worker])
                                  ? 1
                                  : 0;
        } catch (...) {
          // As in EvaluateEach: keep draining this worker's chunk.
          error.Capture();
          return;
        }
        if (options.record_latencies) {
          result.latencies_us[i] =
              std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - begin)
                  .count();
        }
      });

  scratches_.Drain(method);
  error.RethrowIfAny();

  for (const uint8_t answer : result.answers) result.true_count += answer;
  return result;
}

BatchResult BatchRunner::RunShared(const RangeReachMethod& method,
                                   const std::vector<RangeReachQuery>& queries,
                                   const SchedulerOptions& options) {
  if (!scheduler_) scheduler_ = std::make_unique<QueryScheduler>(pool_);
  return scheduler_->Run(method, queries, options);
}

}  // namespace gsr::exec
