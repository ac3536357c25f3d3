// perfbench: the repository's benchmark. Runs one named workload against
// the library's public API, checks every answer, and prints the metrics by
// name and unit. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). See README.md for the workloads and the metric tables.
//
// Usage: perfbench --workload <shared-hot|paged-small-cache|live-updates>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--scale <f>] [--out <dir>] [--corrupt-reference]
//
// Exit status: 0 when every answer matched its reference and no operation
// failed; 1 otherwise (the result line is still printed); 2 on bad usage.

#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <initializer_list>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/simd.h"
#include "common/status.h"
#include "core/condensed_network.h"
#include "core/method_factory.h"
#include "core/method_snapshot.h"
#include "core/naive_bfs.h"
#include "core/query_planner.h"
#include "core/soc_reach.h"
#include "core/spa_reach.h"
#include "core/three_d_reach.h"
#include "datagen/generator.h"
#include "datagen/workload.h"
#include "exec/batch_runner.h"
#include "exec/query_group.h"
#include "exec/query_scheduler.h"
#include "exec/streaming_engine.h"
#include "exec/thread_pool.h"
#include "snapshot/page_cache.h"
#include "trace.h"

namespace perfbench {
namespace {

using gsr::CondensedNetwork;
using gsr::GeoSocialNetwork;
using gsr::MethodConfig;
using gsr::MethodKind;
using gsr::PlannedMethod;
using gsr::QueryScratch;
using gsr::RangeReachMethod;
using gsr::RangeReachQuery;
using gsr::Rect;
using gsr::Result;
using gsr::Status;
using gsr::exec::ThreadPool;

// Every workload stays within 4 threads, the vCPU count of the reference
// machine (a 4-vCPU Intel Xeon VM).
constexpr unsigned kThreads = 4;
constexpr size_t kPoolQueries = 16384;
// Set-up is repeated, at least kSetupMinRepeats times and for at least
// kSetupMinSeconds, and its median reported: one set-up is too noisy a
// sample for a bound on setup_s.
constexpr int kSetupMinRepeats = 5;
constexpr int kSetupMaxRepeats = 50;
constexpr double kSetupMinSeconds = 1.5;
// Reference answers of the fast reference method are checked against the
// NaiveBFS oracle on this many evenly spaced pool queries.
constexpr size_t kOracleSamples = 256;
// Warm-up runs whole pool passes for at least this long, then until the
// page cache evicts at a steady rate (two consecutive passes within 5%).
constexpr double kWarmupMinSeconds = 1.0;
constexpr double kWarmupMaxSeconds = 6.0;
constexpr size_t kLatencyBlock = 1000;

// ----------------------------------------------------------------------------
// Arguments, metrics, small statistics.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
  std::string out = ".bench_build/perfbench-run";
  bool corrupt_reference = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      args->corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (!(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      args->trace = std::strtol(value, &end, 10) != 0;
    } else if (flag == "--scale") {
      args->scale = std::strtod(value, &end);
      if (!(args->scale > 0.0 && args->scale <= 1.0)) return false;
    } else if (flag == "--out") {
      args->out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return have_workload;
}

// splitmix64 of (seed, stream): one --seed drives the query pool (stream
// 2) and the update stream (stream 3).
uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // Sample count or base, printed beside the value.
};

struct RunResult {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, Tracer::Totals> span_totals;

  void Fail(uint64_t count, const std::string& what) {
    failed += count;
    if (errors.size() < 20) errors.push_back(what);
  }
};

// Linear interpolation between closest ranks.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Mean duration in nanoseconds of the spans called `name`; 0 if none ran.
double MeanSpan(const std::map<std::string, Tracer::Totals>& totals,
                const std::string& name) {
  const auto it = totals.find(name);
  if (it == totals.end() || it->second.count == 0) return 0.0;
  return static_cast<double>(it->second.total_ns) /
         static_cast<double>(it->second.count);
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// A directory for snapshot and spill files, removed with everything in it
// when the benchmark ends.
class TempDir {
 public:
  explicit TempDir(const std::string& parent) {
    std::filesystem::create_directories(parent);
    std::string pattern = parent + "/tmp-XXXXXX";
    if (mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed under " + parent);
    }
    path_ = pattern;
  }
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Whether to run set-up repeat `k`, the first one having started at
// `setup_start` (see kSetupMinRepeats).
bool MoreSetUps(int k, int64_t setup_start) {
  return k < kSetupMinRepeats ||
         (k < kSetupMaxRepeats && SecondsSince(setup_start) < kSetupMinSeconds);
}

// The named dataset with its canonical generator seed. The benchmark seed
// drives the query pools and the update stream, not the dataset: the
// generator places a fifth of all venues in one Gaussian cluster, so
// reseeding the data moved qps by 21-24% between seeds on the static
// workloads, more than any bound this benchmark can set (see README.md).
gsr::GeneratorConfig Dataset(const char* name, const Args& args) {
  return gsr::BenchmarkDatasetConfig(name, args.scale);
}

std::vector<std::vector<RangeReachQuery>> SplitBatches(
    const std::vector<RangeReachQuery>& pool, size_t batch) {
  std::vector<std::vector<RangeReachQuery>> out;
  for (size_t i = 0; i < pool.size(); i += batch) {
    out.emplace_back(pool.begin() + static_cast<ptrdiff_t>(i),
                     pool.begin() + static_cast<ptrdiff_t>(
                                        std::min(pool.size(), i + batch)));
  }
  return out;
}

// ----------------------------------------------------------------------------
// Reference answers.

struct References {
  std::vector<uint8_t> answers;
  uint64_t oracle_checked = 0;
  uint64_t oracle_mismatches = 0;
};

// Answers the pool with 3DReach-REV, a method outside the planner's
// portfolio built independently of the index under test, and checks it
// against the NaiveBFS oracle on an evenly spaced sample (NaiveBFS over the
// whole pool would not fit in set-up on the giant-SCC datasets).
References ComputeReferencesHere(const GeoSocialNetwork& network,
                                 const std::vector<RangeReachQuery>& queries) {
  References refs;
  const CondensedNetwork cn(&network);
  MethodConfig config;
  config.kind = MethodKind::kThreeDReachRev;
  const auto reference = gsr::CreateMethod(&cn, config);
  const gsr::NaiveBfsMethod oracle(&network);
  ThreadPool pool(kThreads);
  std::vector<std::unique_ptr<QueryScratch>> ref_scratch;
  std::vector<std::unique_ptr<QueryScratch>> oracle_scratch;
  for (unsigned w = 0; w < pool.size(); ++w) {
    ref_scratch.push_back(reference->NewScratch());
    oracle_scratch.push_back(oracle.NewScratch());
  }
  refs.answers.resize(queries.size());
  pool.ParallelFor(queries.size(), 64, [&](size_t i, unsigned w) {
    refs.answers[i] = reference->Evaluate(queries[i].vertex, queries[i].region,
                                          *ref_scratch[w]);
  });
  const size_t stride = std::max<size_t>(1, queries.size() / kOracleSamples);
  const size_t samples = (queries.size() + stride - 1) / stride;
  std::atomic<uint64_t> mismatches{0};
  pool.ParallelFor(samples, 1, [&](size_t k, unsigned w) {
    const RangeReachQuery& q = queries[k * stride];
    const bool truth = oracle.Evaluate(q.vertex, q.region, *oracle_scratch[w]);
    if (truth != (refs.answers[k * stride] != 0)) ++mismatches;
  });
  refs.oracle_checked = samples;
  refs.oracle_mismatches = mismatches.load();
  return refs;
}

bool WriteAll(int fd, const void* data, size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = write(fd, p, len);
    if (n <= 0) return false;
    p += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

bool ReadAll(int fd, void* data, size_t len) {
  char* p = static_cast<char*>(data);
  while (len > 0) {
    const ssize_t n = read(fd, p, len);
    if (n <= 0) return false;
    p += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

// Runs ComputeReferencesHere in a child process, so the reference index
// never counts toward the measured process's peak RSS. Must be called
// while this process has no other threads (fork copies only the caller).
Result<References> ComputeReferences(
    const GeoSocialNetwork& network,
    const std::vector<RangeReachQuery>& queries) {
  int fds[2];
  if (pipe(fds) != 0) return Status::Internal("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return Status::Internal("fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    int code = 1;
    try {
      const References refs = ComputeReferencesHere(network, queries);
      const uint64_t header[2] = {refs.oracle_checked, refs.oracle_mismatches};
      if (WriteAll(fds[1], header, sizeof(header)) &&
          WriteAll(fds[1], refs.answers.data(), refs.answers.size())) {
        code = 0;
      }
    } catch (...) {
    }
    close(fds[1]);
    _exit(code);
  }
  close(fds[1]);
  References refs;
  uint64_t header[2] = {0, 0};
  refs.answers.resize(queries.size());
  const bool read_ok =
      ReadAll(fds[0], header, sizeof(header)) &&
      ReadAll(fds[0], refs.answers.data(), refs.answers.size());
  close(fds[0]);
  int wstatus = 0;
  waitpid(pid, &wstatus, 0);
  if (!read_ok || !WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return Status::Internal("reference process failed");
  }
  refs.oracle_checked = header[0];
  refs.oracle_mismatches = header[1];
  return refs;
}

void WriteSpans(const Args& args,
                std::initializer_list<const Tracer*> tracers);

// ----------------------------------------------------------------------------
// Static workloads: shared-hot and paged-small-cache.

struct StaticSpec {
  const char* dataset;
  gsr::snapshot::LoadMode mode;
  // kPaged only: page-cache budget as a share of the snapshot file.
  double cache_fraction;
  gsr::QuerySpec queries;
  size_t batch;
  // RunShared (the work-sharing scheduler) instead of Run.
  bool shared;
  // The traced run replays every replay_stride-th query of a batch, and
  // (shared only) every group_stride-th scheduler group.
  size_t replay_stride;
  size_t group_stride;
  // Length of one measurement window of the timed loop.
  double window_s;
};

// The planner's routing must not depend on timings: calibrated routing
// sent 0-33% of queries to SpaReach-BFL across three builds of one index
// and moved throughput by about 2x. calibration_samples = 0 keeps the
// deterministic built-in cost models.
MethodConfig PlannerConfig() {
  MethodConfig config;
  config.kind = MethodKind::kPlanner;
  config.planner.calibration_samples = 0;
  return config;
}

struct StaticIndex {
  std::unique_ptr<CondensedNetwork> cn;  // Outlives `loaded`.
  gsr::LoadedMethod loaded;
  size_t index_bytes = 0;
  uint64_t file_bytes = 0;
};

// One set-up: condensation, planner build, snapshot save, snapshot load.
// Serial: on a machine shared with other work a parallel build's time
// and its allocator high-water mark vary too much between runs to bound.
Result<std::unique_ptr<StaticIndex>> SetUpStatic(
    const GeoSocialNetwork& network, const StaticSpec& spec,
    const std::string& path, Tracer& tracer, int64_t request) {
  Span setup(tracer, "setup", request);
  auto index = std::make_unique<StaticIndex>();
  {
    Span span(tracer, "graph.condense", request);
    index->cn = std::make_unique<CondensedNetwork>(&network);
  }
  const MethodConfig config = PlannerConfig();
  {
    std::unique_ptr<RangeReachMethod> built;
    {
      Span span(tracer, "core.build", request);
      built = gsr::CreateMethod(index->cn.get(), config);
    }
    index->index_bytes = built->IndexSizeBytes();
    Span span(tracer, "snapshot.save", request);
    const Status saved =
        gsr::SaveMethodSnapshot(*built, config, *index->cn, path);
    if (!saved.ok()) return saved;
  }
  index->file_bytes = std::filesystem::file_size(path);
  gsr::SnapshotLoadOptions load;
  load.mode = spec.mode;
  load.page_cache_bytes = static_cast<size_t>(
      spec.cache_fraction * static_cast<double>(index->file_bytes));
  Span span(tracer, "snapshot.load", request);
  auto loaded = gsr::LoadMethodSnapshot(index->cn.get(), path, load);
  if (!loaded.ok()) return loaded.status();
  index->loaded = std::move(loaded).value();
  return index;
}

// Work counters of one portfolio member: queries plus up to two per-query
// work counts (see MemberWorkNames).
struct MemberWork {
  uint64_t queries = 0;
  uint64_t work[2] = {0, 0};
};

MemberWork ReadMemberWork(const RangeReachMethod& member) {
  MemberWork out;
  if (const auto* spa = dynamic_cast<const gsr::SpaReachBase*>(&member)) {
    out = {spa->counters().queries,
           {spa->counters().candidates, spa->counters().greach_calls}};
  } else if (const auto* soc = dynamic_cast<const gsr::SocReach*>(&member)) {
    out = {soc->counters().queries, {soc->counters().descendants, 0}};
  } else if (const auto* t = dynamic_cast<const gsr::ThreeDReach*>(&member)) {
    out = {t->counters().queries, {t->counters().range_queries, 0}};
  }
  return out;
}

// Names of MemberWork::work for each member kind ("" = unused).
std::pair<const char*, const char*> MemberWorkNames(MethodKind kind) {
  switch (kind) {
    case MethodKind::kSpaReachBfl:
      return {"candidates_per_query", "greach_calls_per_query"};
    case MethodKind::kSocReach:
      return {"descendants_per_query", ""};
    case MethodKind::kThreeDReach:
      return {"range_queries_per_query", ""};
    default:
      return {"", ""};
  }
}

// The default portfolio, in the order its per-layer metrics are printed.
constexpr MethodKind kPortfolio[] = {MethodKind::kSpaReachBfl,
                                     MethodKind::kSocReach,
                                     MethodKind::kThreeDReach};

// A timed loop's batch latencies, and its queries counted in wall-clock
// windows. Load from outside the benchmark (other tenants of a shared
// host, hypervisor steal) comes in bursts of seconds and only ever slows
// the program down, so each figure is taken from the quieter parts of the
// run: qps is the upper quartile over windows; a latency percentile is the
// lower quartile over equal blocks of consecutive batches, each block at
// least kLatencyBlock long so that its p99 has ten batches beyond it.
class BatchLog {
 public:
  void Add(double batch_ms, size_t queries) {
    batch_ms_.push_back(batch_ms);
    window_queries_ += queries;
    queries_ += queries;
  }
  bool empty_window() const { return window_queries_ == 0; }
  void CloseWindow(double wall_s) {
    window_qps_.push_back(Ratio(static_cast<double>(window_queries_), wall_s));
    window_queries_ = 0;
    wall_s_ += wall_s;
  }

  double Qps() const { return Quantile(window_qps_, 0.75); }
  double Latency(double q) const {
    const size_t n = batch_ms_.size();
    const size_t blocks = std::max<size_t>(1, n / kLatencyBlock);
    std::vector<double> per_block;
    for (size_t i = 0; i < blocks; ++i) {
      per_block.push_back(Quantile(
          std::vector<double>(batch_ms_.begin() + i * n / blocks,
                              batch_ms_.begin() + (i + 1) * n / blocks),
          q));
    }
    return Quantile(per_block, 0.25);
  }
  double MeanQps() const {
    return Ratio(static_cast<double>(queries_), wall_s_);
  }
  uint64_t queries() const { return queries_; }
  size_t batches() const { return batch_ms_.size(); }
  size_t windows() const { return window_qps_.size(); }
  size_t blocks() const {
    return std::max<size_t>(1, batch_ms_.size() / kLatencyBlock);
  }

 private:
  std::vector<double> batch_ms_;
  std::vector<double> window_qps_;
  uint64_t window_queries_ = 0;
  uint64_t queries_ = 0;
  double wall_s_ = 0.0;
};

class StaticRunner {
 public:
  StaticRunner(const StaticSpec& spec, const StaticIndex& index,
               const std::vector<RangeReachQuery>& pool_queries,
               const std::vector<uint8_t>& refs, ThreadPool* pool,
               RunResult* result)
      : spec_(spec),
        index_(index),
        method_(*index.loaded.method),
        planner_(dynamic_cast<const PlannedMethod*>(&method_)),
        refs_(refs),
        batches_(SplitBatches(pool_queries, spec.batch)),
        runner_(pool),
        result_(result) {
    for (size_t m = 0; m < planner_->num_members(); ++m) {
      const std::string name =
          gsr::MethodKindName(planner_->member_kind(m));
      evaluate_names_.push_back("core." + name + ".evaluate");
      group_names_.push_back("core." + name + ".evaluate_group");
      replay_scratch_.push_back(planner_->member(m).NewScratch());
    }
    replay_.resize(planner_->num_members());
    grouping_.window = spec.batch;
  }

  gsr::snapshot::PageCache* page_cache() const {
    return index_.loaded.page_cache.get();
  }

  // Runs batch `b` (pool batch b modulo the batch count) and checks its
  // answers; with an enabled tracer also replays a sample. Returns the
  // batch time in milliseconds.
  double RunBatch(size_t b, Tracer& tracer) {
    const size_t slot = b % batches_.size();
    const std::vector<RangeReachQuery>& batch = batches_[slot];
    const size_t offset = slot * spec_.batch;
    Span span(tracer, "batch", static_cast<int64_t>(b));
    gsr::exec::BatchResult answers;
    const int64_t start = NowNs();
    try {
      Span run(tracer, "exec.run", static_cast<int64_t>(b));
      if (spec_.shared) {
        gsr::exec::SchedulerOptions options;
        options.grouping = grouping_;
        answers = runner_.RunShared(method_, batch, options);
      } else {
        answers = runner_.Run(method_, batch);
      }
    } catch (const std::exception& e) {
      result_->attempted += batch.size();
      result_->Fail(batch.size(), std::string("batch threw: ") + e.what());
      return static_cast<double>(NowNs() - start) * 1e-6;
    }
    const double ms = static_cast<double>(NowNs() - start) * 1e-6;
    result_->attempted += batch.size();
    uint64_t wrong = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
      if (answers.answers[i] != refs_[offset + i]) ++wrong;
    }
    if (wrong > 0) result_->Fail(wrong, "wrong answers in a batch");
    if (tracer.enabled()) {
      if (spec_.shared) ReplayGroups(batch, offset, b, tracer);
      for (size_t i = b % spec_.replay_stride; i < batch.size();
           i += spec_.replay_stride) {
        ReplayQuery(batch[i], offset + i, tracer);
      }
    }
    return ms;
  }

  // Closed loop for `seconds`, in windows of spec.window_s (whole batches
  // each); `next_batch` continues the batch sequence of an earlier loop.
  BatchLog Loop(double seconds, size_t* next_batch, Tracer& tracer) {
    BatchLog log;
    const long windows = std::max(1L, std::lround(seconds / spec_.window_s));
    for (long w = 0; w < windows; ++w) {
      const int64_t start = NowNs();
      do {
        const size_t b = (*next_batch)++;
        log.Add(RunBatch(b, tracer), batches_[b % batches_.size()].size());
      } while (SecondsSince(start) < spec_.window_s);
      log.CloseWindow(SecondsSince(start));
    }
    return log;
  }

  // Whole pool passes until the page cache evicts at a steady rate.
  void WarmUp(size_t* next_batch) {
    Tracer off(false, 0);
    const int64_t start = NowNs();
    double previous = -1.0;
    while (true) {
      const uint64_t before = Evictions();
      for (size_t i = 0; i < batches_.size(); ++i) {
        RunBatch((*next_batch)++, off);
      }
      const double rate = static_cast<double>(Evictions() - before);
      const double elapsed = SecondsSince(start);
      const bool steady =
          previous >= 0.0 && std::fabs(rate - previous) <= 0.05 * previous;
      if ((elapsed >= kWarmupMinSeconds && (steady || rate == 0.0)) ||
          elapsed >= kWarmupMaxSeconds) {
        break;
      }
      previous = rate;
    }
  }

  // One exact pass of the pool with counters read before and after: the
  // planner's settle/route shares, the members' work counts and the
  // scheduler's sharing, all deterministic for one seed.
  void CountingPass(size_t* next_batch) {
    Tracer off(false, 0);
    // Align to the pool's first batch so the pass is one full cycle.
    while (*next_batch % batches_.size() != 0) RunBatch((*next_batch)++, off);
    const PlannedMethod::Counters before = planner_->counters();
    std::vector<MemberWork> member_before;
    for (size_t m = 0; m < planner_->num_members(); ++m) {
      member_before.push_back(ReadMemberWork(planner_->member(m)));
    }
    for (size_t i = 0; i < batches_.size(); ++i) {
      RunBatch((*next_batch)++, off);
      if (spec_.shared) {
        const auto& s = runner_.scheduler()->last_share_stats();
        share_.groups += s.groups;
        share_.queries += s.queries;
        share_.distinct_regions += s.distinct_regions;
      }
    }
    const PlannedMethod::Counters& after = planner_->counters();
    pass_.queries = after.queries - before.queries;
    pass_.settled_negative = after.settled_negative - before.settled_negative;
    pass_.settled_positive = after.settled_positive - before.settled_positive;
    for (size_t k = 0; k < PlannedMethod::kKindCount; ++k) {
      pass_.routed[k] = after.routed[k] - before.routed[k];
    }
    member_pass_.resize(planner_->num_members());
    for (size_t m = 0; m < planner_->num_members(); ++m) {
      const MemberWork now = ReadMemberWork(planner_->member(m));
      member_pass_[m].queries = now.queries - member_before[m].queries;
      for (int w = 0; w < 2; ++w) {
        member_pass_[m].work[w] = now.work[w] - member_before[m].work[w];
      }
    }
  }

  void AddLayerMetrics(const std::map<std::string, Tracer::Totals>& totals,
                       std::vector<Metric>& out) const {
    const double q = static_cast<double>(pass_.queries);
    const std::string base = "n=" + std::to_string(pass_.queries) +
                             (spec_.shared ? " region slots" : " queries");
    out.push_back({"core.planner.settled_negative_frac",
                   Ratio(static_cast<double>(pass_.settled_negative), q),
                   "fraction", base});
    out.push_back({"core.planner.settled_positive_frac",
                   Ratio(static_cast<double>(pass_.settled_positive), q),
                   "fraction", base});
    for (MethodKind kind : kPortfolio) {
      out.push_back(
          {std::string("core.planner.routed.") + gsr::MethodKindName(kind) +
               "_frac",
           Ratio(static_cast<double>(pass_.routed[static_cast<size_t>(kind)]),
                 q),
           "fraction", base});
    }
    for (MethodKind kind : kPortfolio) {
      const auto [first, second] = MemberWorkNames(kind);
      const char* names[2] = {first, second};
      for (int w = 0; w < 2; ++w) {
        if (names[w][0] == '\0') continue;
        double value = 0.0;
        std::string note = "member not in portfolio";
        for (size_t m = 0; m < planner_->num_members(); ++m) {
          if (planner_->member_kind(m) != kind) continue;
          value = Ratio(static_cast<double>(member_pass_[m].work[w]),
                        static_cast<double>(member_pass_[m].queries));
          note = "n=" + std::to_string(member_pass_[m].queries) +
                 " member queries";
        }
        out.push_back({std::string("core.") + gsr::MethodKindName(kind) +
                           "." + names[w],
                       value, "count", note});
      }
    }
    for (MethodKind kind : kPortfolio) {
      double evaluate = 0.0;
      double group = 0.0;
      std::string note = "not routed";
      for (size_t m = 0; m < planner_->num_members(); ++m) {
        if (planner_->member_kind(m) != kind) continue;
        evaluate = MeanSpan(totals, evaluate_names_[m]);
        const auto it = totals.find(group_names_[m]);
        if (it != totals.end()) {
          group = Ratio(static_cast<double>(it->second.total_ns),
                        static_cast<double>(replay_[m].group_regions));
        }
        note = "n=" + std::to_string(replay_[m].evaluated) +
               " replayed, " + std::to_string(replay_[m].group_regions) +
               " group regions";
      }
      const std::string name = gsr::MethodKindName(kind);
      out.push_back({"core." + name + ".evaluate_ns", evaluate, "ns", note});
      out.push_back(
          {"core." + name + ".evaluate_group_ns", group, "ns/region", note});
    }
    out.push_back({"exec.queries_per_group",
                   Ratio(static_cast<double>(share_.queries),
                         static_cast<double>(share_.groups)),
                   "count", "n=" + std::to_string(share_.groups) + " groups"});
    out.push_back({"exec.queries_per_region",
                   Ratio(static_cast<double>(share_.queries),
                         static_cast<double>(share_.distinct_regions)),
                   "count",
                   "n=" + std::to_string(share_.distinct_regions) +
                       " regions"});
  }

  // Page-cache stats deltas of the replayed member calls, by member.
  void PrintReplayPageStats() const {
    if (page_cache() == nullptr) return;
    for (size_t m = 0; m < planner_->num_members(); ++m) {
      std::printf("  replay page cache %-14s hits/query %.3f misses/query %.3f"
                  " (n=%llu)\n",
                  gsr::MethodKindName(planner_->member_kind(m)),
                  Ratio(static_cast<double>(replay_[m].page_hits),
                        static_cast<double>(replay_[m].evaluated)),
                  Ratio(static_cast<double>(replay_[m].page_misses),
                        static_cast<double>(replay_[m].evaluated)),
                  static_cast<unsigned long long>(replay_[m].evaluated));
    }
  }

 private:
  struct MemberReplay {
    uint64_t evaluated = 0;
    uint64_t group_regions = 0;
    uint64_t page_hits = 0;
    uint64_t page_misses = 0;
  };

  uint64_t Evictions() const {
    return page_cache() == nullptr ? 0 : page_cache()->GetStats().evictions;
  }

  // The planner's stage 1 for one region: 0/1 when settled, -1 otherwise.
  int Settle(const RangeReachQuery& q, int64_t request, Tracer& tracer) const {
    bool empty = false;
    {
      Span span(tracer, "spatial.histogram.empty", request);
      empty = planner_->histogram().DefinitelyEmpty(q.region);
    }
    if (empty) return 0;
    const gsr::ComponentId source = index_.cn->ComponentOf(q.vertex);
    gsr::Observations::Verdict verdict;
    {
      Span span(tracer, "labeling.observations.settle", request);
      verdict = planner_->network_observations().SettleRange(source, q.region);
    }
    if (verdict == gsr::Observations::Verdict::kNo) return 0;
    if (verdict == gsr::Observations::Verdict::kYes) return 1;
    return -1;
  }

  size_t Route(const RangeReachQuery& q, int64_t request,
               Tracer& tracer) const {
    Span span(tracer, "core.planner.route", request);
    return planner_->RouteForTest(q.vertex, q.region);
  }

  // Serial replay of one query through the planner's stages, each call a
  // child span of the batch, on the replay's own scratches.
  void ReplayQuery(const RangeReachQuery& q, size_t index, Tracer& tracer) {
    const int64_t request = static_cast<int64_t>(index);
    int answer = Settle(q, request, tracer);
    if (answer < 0) {
      const size_t m = Route(q, request, tracer);
      MemberReplay& replay = replay_[m];
      gsr::snapshot::PageCache::Stats before;
      if (page_cache() != nullptr) before = page_cache()->GetStats();
      {
        Span span(tracer, evaluate_names_[m].c_str(), request);
        answer = planner_->member(m).Evaluate(q.vertex, q.region,
                                              *replay_scratch_[m]);
      }
      ++replay.evaluated;
      if (page_cache() != nullptr) {
        const auto after = page_cache()->GetStats();
        replay.page_hits += after.hits - before.hits;
        replay.page_misses += after.misses - before.misses;
      }
    }
    result_->attempted += 1;
    if (static_cast<uint8_t>(answer) != refs_[index]) {
      result_->Fail(1, "replayed answer differs from reference");
    }
  }

  // Replays a sample of the scheduler's groups for this batch: the
  // grouping pass itself, then each sampled group's surviving regions
  // through the routed member's EvaluateGroup.
  void ReplayGroups(const std::vector<RangeReachQuery>& batch, size_t offset,
                    size_t b, Tracer& tracer) {
    std::span<const gsr::exec::QueryGroup> groups;
    {
      Span span(tracer, "exec.build_groups", static_cast<int64_t>(b));
      groups = arena_.Build(batch, grouping_);
    }
    for (size_t g = b % spec_.group_stride; g < groups.size();
         g += spec_.group_stride) {
      const gsr::exec::QueryGroup& group = groups[g];
      const size_t n = group.regions.size();
      region_answer_.assign(n, 0);
      region_route_.assign(n, -1);
      for (size_t r = 0; r < n; ++r) {
        const int settled = Settle({group.vertex, group.regions[r]},
                                   static_cast<int64_t>(b), tracer);
        if (settled >= 0) {
          region_answer_[r] = static_cast<uint8_t>(settled);
        } else {
          region_route_[r] = static_cast<int>(
              Route({group.vertex, group.regions[r]},
                    static_cast<int64_t>(b), tracer));
        }
      }
      for (size_t m = 0; m < planner_->num_members(); ++m) {
        gather_regions_.clear();
        gather_slots_.clear();
        for (size_t r = 0; r < n; ++r) {
          if (region_route_[r] != static_cast<int>(m)) continue;
          gather_regions_.push_back(group.regions[r]);
          gather_slots_.push_back(r);
        }
        if (gather_regions_.empty()) continue;
        if (gather_capacity_ < gather_regions_.size()) {
          gather_capacity_ = gather_regions_.size();
          gather_out_ = std::make_unique<bool[]>(gather_capacity_);
        }
        std::span<bool> out(gather_out_.get(), gather_regions_.size());
        {
          Span span(tracer, group_names_[m].c_str(), static_cast<int64_t>(b));
          planner_->member(m).EvaluateGroup(group.vertex, gather_regions_, out,
                                            *replay_scratch_[m]);
        }
        replay_[m].group_regions += gather_regions_.size();
        for (size_t k = 0; k < gather_slots_.size(); ++k) {
          region_answer_[gather_slots_[k]] = out[k] ? 1 : 0;
        }
      }
      uint64_t wrong = 0;
      for (size_t i = 0; i < group.member_query.size(); ++i) {
        const size_t index = offset + group.member_query[i];
        if (region_answer_[group.member_region[i]] != refs_[index]) ++wrong;
      }
      result_->attempted += group.member_query.size();
      if (wrong > 0) result_->Fail(wrong, "replayed group answer differs");
    }
  }

  const StaticSpec& spec_;
  const StaticIndex& index_;
  const RangeReachMethod& method_;
  const PlannedMethod* planner_;
  const std::vector<uint8_t>& refs_;
  const std::vector<std::vector<RangeReachQuery>> batches_;
  gsr::exec::BatchRunner runner_;
  RunResult* result_;
  gsr::exec::GroupingOptions grouping_;
  gsr::exec::GroupingArena arena_;
  std::vector<std::string> evaluate_names_;
  std::vector<std::string> group_names_;
  std::vector<std::unique_ptr<QueryScratch>> replay_scratch_;
  std::vector<MemberReplay> replay_;
  PlannedMethod::Counters pass_;
  std::vector<MemberWork> member_pass_;
  gsr::exec::QueryScheduler::ShareStats share_;
  std::vector<uint8_t> region_answer_;
  std::vector<int> region_route_;
  std::vector<Rect> gather_regions_;
  std::vector<size_t> gather_slots_;
  std::unique_ptr<bool[]> gather_out_;
  size_t gather_capacity_ = 0;
};

void AddLatencyMetrics(const BatchLog& log, std::vector<Metric>& out) {
  const std::string n = "lower quartile of " + std::to_string(log.blocks()) +
                        " blocks, n=" + std::to_string(log.batches()) +
                        " batches";
  out.push_back({"qps", log.Qps(), "queries/s",
                 "upper quartile of " + std::to_string(log.windows()) +
                     " windows, n=" + std::to_string(log.queries()) +
                     " queries"});
  out.push_back({"batch_p50_ms", log.Latency(0.50), "ms", n});
  out.push_back({"batch_p99_ms", log.Latency(0.99), "ms", n});
}

void AddSetupLayerMetrics(const std::map<std::string, Tracer::Totals>& totals,
                          double index_bytes, double file_bytes,
                          std::vector<Metric>& out) {
  out.push_back({"graph.condense_ms", MeanSpan(totals, "graph.condense") * 1e-6,
                 "ms", ""});
  out.push_back(
      {"core.build_ms", MeanSpan(totals, "core.build") * 1e-6, "ms", ""});
  out.push_back({"core.index_mb", index_bytes / (1 << 20), "MiB", ""});
  out.push_back({"snapshot.save_ms", MeanSpan(totals, "snapshot.save") * 1e-6,
                 "ms", ""});
  out.push_back({"snapshot.load_ms", MeanSpan(totals, "snapshot.load") * 1e-6,
                 "ms", ""});
  out.push_back({"snapshot.file_mb", file_bytes / (1 << 20), "MiB", ""});
}

RunResult RunStatic(const StaticSpec& spec, const Args& args) {
  RunResult result;
  const GeoSocialNetwork network =
      gsr::GenerateGeoSocialNetwork(Dataset(spec.dataset, args));
  gsr::QuerySpec query_spec = spec.queries;
  query_spec.count = kPoolQueries;
  const std::vector<RangeReachQuery> queries =
      gsr::WorkloadGenerator(&network, Mix(args.seed, 2)).Generate(query_spec);
  std::printf("# dataset %s: %u vertices, %llu edges; %zu pool queries\n",
              spec.dataset, network.num_vertices(),
              static_cast<unsigned long long>(network.num_edges()),
              queries.size());

  auto refs = ComputeReferences(network, queries);
  if (!refs.ok()) {
    result.Fail(1, refs.status().ToString());
    return result;
  }
  if (refs->oracle_mismatches > 0) {
    result.Fail(refs->oracle_mismatches,
                "reference method disagrees with NaiveBFS");
  }
  result.attempted += refs->oracle_checked;
  std::vector<uint8_t> answers = std::move(refs->answers);
  if (args.corrupt_reference) answers[0] ^= 1;

  TempDir tmp(args.out);
  ThreadPool pool(kThreads);
  Tracer setup_tracer(true, 0);  // Set-up spans are cheap; always kept.
  std::vector<double> setup_s;
  std::unique_ptr<StaticIndex> index;
  const int64_t setup_start = NowNs();
  for (int k = 0; MoreSetUps(k, setup_start); ++k) {
    index.reset();
    const std::string path =
        tmp.path() + "/index_" + std::to_string(k) + ".gsr";
    const int64_t start = NowNs();
    auto built = SetUpStatic(network, spec, path, setup_tracer, k);
    setup_s.push_back(SecondsSince(start));
    if (!built.ok()) {
      result.Fail(1, "set-up failed: " + built.status().ToString());
      return result;
    }
    index = std::move(built).value();
  }
  if (dynamic_cast<const PlannedMethod*>(index->loaded.method.get()) ==
      nullptr) {
    result.Fail(1, "snapshot did not load as a planner");
    return result;
  }

  StaticRunner runner(spec, *index, queries, answers, &pool, &result);
  size_t next_batch = 0;
  runner.WarmUp(&next_batch);
  runner.CountingPass(&next_batch);

  Tracer off(false, 0);
  Tracer tracer(true, 1);
  gsr::snapshot::PageCache::Stats cache_before;
  BatchLog untraced;
  BatchLog traced;
  if (!args.trace) {
    untraced = runner.Loop(args.seconds, &next_batch, off);
  } else {
    untraced = runner.Loop(args.seconds / 2, &next_batch, off);
    if (runner.page_cache() != nullptr) {
      cache_before = runner.page_cache()->GetStats();
    }
    traced = runner.Loop(args.seconds / 2, &next_batch, tracer);
  }

  AddLatencyMetrics(untraced, result.end_to_end);
  result.end_to_end.push_back({"setup_s", Quantile(setup_s, 0.5), "s",
                               "median of " + std::to_string(setup_s.size())});
  if (!args.trace) return result;

  WriteSpans(args, {&setup_tracer, &tracer});
  setup_tracer.AddTotals(result.span_totals);
  tracer.AddTotals(result.span_totals);
  const auto& totals = result.span_totals;
  std::vector<Metric>& out = result.per_layer;
  AddSetupLayerMetrics(totals, static_cast<double>(index->index_bytes),
                       static_cast<double>(index->file_bytes), out);
  gsr::snapshot::PageCache::Stats cache{};
  if (runner.page_cache() != nullptr) {
    const auto now = runner.page_cache()->GetStats();
    cache.hits = now.hits - cache_before.hits;
    cache.misses = now.misses - cache_before.misses;
    cache.evictions = now.evictions - cache_before.evictions;
    cache.bypass_reads = now.bypass_reads - cache_before.bypass_reads;
  }
  // Per query of the traced loop (its batches plus their replays).
  const double traced_queries = static_cast<double>(traced.queries());
  const std::string cache_note =
      runner.page_cache() == nullptr ? "no page cache (kMmap)"
                                     : "n=" + std::to_string(traced.queries()) +
                                           " queries";
  out.push_back({"snapshot.page_cache.hit_rate",
                 Ratio(static_cast<double>(cache.hits),
                       static_cast<double>(cache.hits + cache.misses)),
                 "fraction", cache_note});
  out.push_back({"snapshot.page_cache.misses_per_query",
                 Ratio(static_cast<double>(cache.misses), traced_queries),
                 "count", cache_note});
  out.push_back({"snapshot.page_cache.evictions_per_query",
                 Ratio(static_cast<double>(cache.evictions), traced_queries),
                 "count", cache_note});
  out.push_back({"snapshot.page_cache.bypass_per_query",
                 Ratio(static_cast<double>(cache.bypass_reads), traced_queries),
                 "count", cache_note});
  out.push_back({"spatial.histogram.empty_ns",
                 MeanSpan(totals, "spatial.histogram.empty"), "ns", ""});
  out.push_back({"labeling.observations.settle_ns",
                 MeanSpan(totals, "labeling.observations.settle"), "ns", ""});
  out.push_back({"core.planner.route_ns",
                 MeanSpan(totals, "core.planner.route"), "ns", ""});
  runner.AddLayerMetrics(totals, out);
  out.push_back({"exec.batch_ms", MeanSpan(totals, "exec.run") * 1e-6, "ms",
                 "n=" + std::to_string(traced.batches()) + " batches"});
  out.push_back({"exec.build_groups_us",
                 MeanSpan(totals, "exec.build_groups") * 1e-3, "us",
                 spec.shared ? "" : "no scheduler (Run)"});
  out.push_back({"trace.overhead_frac",
                 1.0 - Ratio(traced.MeanQps(), untraced.MeanQps()),
                 "fraction", ""});
  runner.PrintReplayPageStats();
  return result;
}

// ----------------------------------------------------------------------------
// live-updates.

constexpr double kUpdateRatePerSecond = 1000.0;
constexpr double kLiveWarmupSeconds = 0.5;
constexpr size_t kLiveBatch = 32;
constexpr int64_t kLiveWindowNs = 2000000000;
// The traced run replays every kLiveReplayStride-th query of a batch.
constexpr size_t kLiveReplayStride = 8;
// Every kAuditEvery-th batch, kAuditQueries of its answers are checked
// against NaiveBFS over MaterializeView of the pinned epoch (untimed).
constexpr size_t kAuditEvery = 4;
constexpr size_t kAuditQueries = 2;

struct WriterLog {
  std::vector<double> latency_us;  // Due time -> Apply returned.
  uint64_t applied = 0;
  uint64_t late = 0;               // Started > 1 ms after it was due.
  uint64_t failed = 0;
  int64_t first_due_ns = 0;
  int64_t last_end_ns = 0;
  std::string error;
};

// Open-loop writer: update i is due at start + i / rate. Only updates due
// at or after `timed_start` are recorded.
void RunWriter(gsr::exec::StreamingRangeReach& engine,
               const std::vector<gsr::Update>& updates, int64_t start_ns,
               int64_t timed_start_ns, int64_t end_ns, Tracer& tracer,
               WriterLog* log) {
  const double interval_ns = 1e9 / kUpdateRatePerSecond;
  for (size_t i = 0; i < updates.size(); ++i) {
    const int64_t due = start_ns + static_cast<int64_t>(i * interval_ns);
    if (due >= end_ns) break;
    const int64_t wait = due - NowNs();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    const int64_t begin = NowNs();
    bool ok = true;
    std::string error;
    {
      Span span(tracer, "exec.streaming.apply", static_cast<int64_t>(i));
      try {
        const auto applied = engine.Apply(updates[i]);
        if (!applied.ok()) {
          ok = false;
          error = applied.status().ToString();
        }
      } catch (const std::exception& e) {
        ok = false;
        error = e.what();
      }
    }
    const int64_t end = NowNs();
    if (due < timed_start_ns) continue;
    if (log->applied + log->failed == 0) log->first_due_ns = due;
    if (!ok) {
      ++log->failed;
      if (log->error.empty()) log->error = error;
      continue;
    }
    ++log->applied;
    if (begin - due > 1000000) ++log->late;
    log->latency_us.push_back(static_cast<double>(end - due) * 1e-3);
    log->last_end_ns = end;
  }
}

RunResult RunLiveUpdates(const Args& args) {
  RunResult result;
  const GeoSocialNetwork network =
      gsr::GenerateGeoSocialNetwork(Dataset("weeplaces", args));
  gsr::QuerySpec query_spec;
  query_spec.count = kPoolQueries;
  query_spec.strata = gsr::DefaultMixedStrata();
  const std::vector<RangeReachQuery> queries =
      gsr::WorkloadGenerator(&network, Mix(args.seed, 2)).Generate(query_spec);
  const auto batches = SplitBatches(queries, kLiveBatch);
  gsr::UpdateStreamSpec update_spec;
  update_spec.count = static_cast<uint32_t>(
      (kLiveWarmupSeconds + args.seconds) * kUpdateRatePerSecond + 64);
  const std::vector<gsr::Update> updates =
      gsr::GenerateUpdateStream(network, update_spec, Mix(args.seed, 3));
  std::printf("# dataset weeplaces: %u vertices, %llu edges; %zu pool "
              "queries, %zu updates\n",
              network.num_vertices(),
              static_cast<unsigned long long>(network.num_edges()),
              queries.size(), updates.size());

  TempDir tmp(args.out);
  const std::string spill_dir = tmp.path() + "/spill";
  std::filesystem::create_directories(spill_dir);
  // One rebuild worker + one writer + two query workers: four threads
  // busy at most (the reader blocks in Run while its workers serve).
  ThreadPool rebuild_pool(1);
  ThreadPool read_pool(2);
  gsr::exec::StreamingOptions options;
  options.publish_every = 1;
  options.rebuild_threshold = 1024;
  options.spill_dir = spill_dir;
  options.spill_mode = gsr::snapshot::LoadMode::kMmap;

  std::vector<double> setup_s;
  std::unique_ptr<gsr::exec::StreamingRangeReach> engine;
  const int64_t setup_start = NowNs();
  for (int k = 0; MoreSetUps(k, setup_start); ++k) {
    engine.reset();
    GeoSocialNetwork copy = network;
    const int64_t start = NowNs();
    engine = std::make_unique<gsr::exec::StreamingRangeReach>(
        std::move(copy), &rebuild_pool, options);
    setup_s.push_back(SecondsSince(start));
  }

  // The engine's set-up is opaque; the traced run times its two layers
  // from outside on the same network: condensation and the 3DReach base.
  Tracer setup_tracer(args.trace, 0);
  double index_bytes = 0.0;
  if (args.trace) {
    Span span(setup_tracer, "setup", 0);
    std::unique_ptr<CondensedNetwork> cn;
    {
      Span condense(setup_tracer, "graph.condense", 0);
      cn = std::make_unique<CondensedNetwork>(&network);
    }
    MethodConfig config;
    config.kind = MethodKind::kThreeDReach;
    std::unique_ptr<RangeReachMethod> base;
    {
      Span build(setup_tracer, "core.build", 0);
      base = gsr::CreateMethod(cn.get(), config);
    }
    index_bytes = static_cast<double>(base->IndexSizeBytes());
  }

  Tracer reader_tracer(args.trace, 1);
  Tracer writer_tracer(args.trace, 2);
  Tracer off(false, 0);
  WriterLog writer_log;
  const int64_t start = NowNs() + 1000000;
  const int64_t timed_start =
      start + static_cast<int64_t>(kLiveWarmupSeconds * 1e9);
  const int64_t end = timed_start + static_cast<int64_t>(args.seconds * 1e9);
  const int64_t traced_start =
      args.trace ? timed_start + static_cast<int64_t>(args.seconds * 0.5e9)
                 : end;
  std::thread writer([&] {
    RunWriter(*engine, updates, start, timed_start, end, writer_tracer,
              &writer_log);
  });
  // Joins the writer on every path out of the reader loop, exceptions too;
  // the writer stops by itself at `end`.
  struct Joiner {
    std::thread& thread;
    ~Joiner() {
      if (thread.joinable()) thread.join();
    }
  } joiner{writer};

  gsr::exec::BatchRunner runner(&read_pool);
  BatchLog untraced;
  BatchLog traced;
  // The window being filled; audit time is taken out of its wall time.
  BatchLog* open_log = nullptr;
  int64_t window_start = 0;
  int64_t window_paused = 0;
  const auto close_window = [&](int64_t now) {
    if (open_log != nullptr && !open_log->empty_window()) {
      open_log->CloseWindow(
          static_cast<double>(now - window_start - window_paused) * 1e-9);
    }
    open_log = nullptr;
  };
  uint64_t delta_sum = 0;
  uint64_t risky = 0;
  uint64_t traced_pins = 0;
  size_t alive_max = 0;
  uint64_t audits = 0;
  while (NowNs() < start) std::this_thread::yield();
  for (size_t b = 0;; ++b) {
    const int64_t now = NowNs();
    if (now >= end) break;
    const bool tracing = now >= traced_start;
    BatchLog* log =
        now < timed_start ? nullptr : (tracing ? &traced : &untraced);
    if (log != open_log ||
        (log != nullptr && now - window_start >= kLiveWindowNs)) {
      close_window(now);
      open_log = log;
      window_start = now;
      window_paused = 0;
    }
    Tracer& tracer = tracing ? reader_tracer : off;
    const std::vector<RangeReachQuery>& batch = batches[b % batches.size()];
    std::shared_ptr<const gsr::exec::EpochView> view;
    gsr::exec::BatchResult answers;
    bool ok = true;
    {
      Span span(tracer, "batch", static_cast<int64_t>(b));
      const int64_t begin = NowNs();
      try {
        {
          Span pin(tracer, "exec.streaming.pin", static_cast<int64_t>(b));
          view = engine->Pin();
        }
        Span run(tracer, "exec.run", static_cast<int64_t>(b));
        answers = runner.Run(*view, batch);
      } catch (const std::exception& e) {
        ok = false;
        result.Fail(batch.size(), std::string("batch threw: ") + e.what());
      }
      const double ms = static_cast<double>(NowNs() - begin) * 1e-6;
      result.attempted += batch.size();
      if (log != nullptr && ok) log->Add(ms, batch.size());
      alive_max = std::max(alive_max, engine->alive_epochs());
      if (tracing && ok) {
        ++traced_pins;
        delta_sum += view->view().delta.size();
        if (view->view().delta.risky()) ++risky;
        auto scratch = view->NewScratch();
        for (size_t i = b % kLiveReplayStride; i < batch.size();
             i += kLiveReplayStride) {
          bool answer = false;
          {
            const size_t index = (b % batches.size()) * kLiveBatch + i;
            Span eval(tracer, "exec.streaming.view_evaluate",
                      static_cast<int64_t>(index));
            answer = view->Evaluate(batch[i].vertex, batch[i].region, *scratch);
          }
          if (answer != (answers.answers[i] != 0)) {
            result.Fail(1, "replayed view answer differs from batch answer");
          }
        }
      }
    }
    if (ok && b % kAuditEvery == 0) {
      const int64_t pause = NowNs();
      auto materialized = engine->MaterializeView(*view);
      if (!materialized.ok()) {
        result.Fail(1, "MaterializeView: " + materialized.status().ToString());
      } else {
        const gsr::NaiveBfsMethod oracle(&materialized.value());
        const auto scratch = oracle.NewScratch();
        for (size_t k = 0; k < kAuditQueries; ++k) {
          const size_t i = (b / kAuditEvery * 7 + k * 13) % batch.size();
          bool truth =
              oracle.Evaluate(batch[i].vertex, batch[i].region, *scratch);
          if (args.corrupt_reference && audits == 0) truth = !truth;
          ++audits;
          if (truth != (answers.answers[i] != 0)) {
            result.Fail(1, "answer differs from NaiveBFS on the pinned epoch");
          }
        }
      }
      window_paused += NowNs() - pause;
    }
  }
  close_window(NowNs());
  writer.join();
  result.attempted += audits + writer_log.applied + writer_log.failed;
  if (writer_log.failed > 0) {
    result.Fail(writer_log.failed, "Apply failed: " + writer_log.error);
  }
  const auto stats = engine->stats();
  if (stats.rebuild_failures > 0) {
    result.Fail(stats.rebuild_failures, "background rebuild failed");
  }
  std::printf("# %llu audited answers, %llu epochs published\n",
              static_cast<unsigned long long>(audits),
              static_cast<unsigned long long>(stats.publishes));

  AddLatencyMetrics(untraced, result.end_to_end);
  result.end_to_end.push_back({"setup_s", Quantile(setup_s, 0.5), "s",
                               "median of " + std::to_string(setup_s.size())});
  const double write_wall_s =
      static_cast<double>(writer_log.last_end_ns - writer_log.first_due_ns) *
      1e-9;
  const double update_ups =
      Ratio(static_cast<double>(writer_log.applied), write_wall_s);
  const double update_p99 = Quantile(writer_log.latency_us, 0.99);
  const std::string updates_note =
      "n=" + std::to_string(writer_log.latency_us.size()) + " updates";
  if (!args.trace) {
    std::printf("  update_ups %.1f updates/s, update_p99_us %.1f us (%s)\n",
                update_ups, update_p99, updates_note.c_str());
    return result;
  }

  WriteSpans(args, {&setup_tracer, &reader_tracer, &writer_tracer});
  setup_tracer.AddTotals(result.span_totals);
  reader_tracer.AddTotals(result.span_totals);
  writer_tracer.AddTotals(result.span_totals);
  const auto& totals = result.span_totals;
  std::vector<Metric>& out = result.per_layer;
  AddSetupLayerMetrics(totals, index_bytes, 0.0, out);
  const double pins = static_cast<double>(traced_pins);
  const std::string pin_note = "n=" + std::to_string(traced_pins) + " pins";
  out.push_back({"exec.batch_ms", MeanSpan(totals, "exec.run") * 1e-6, "ms",
                 pin_note});
  out.push_back({"exec.streaming.pin_us",
                 MeanSpan(totals, "exec.streaming.pin") * 1e-3, "us",
                 pin_note});
  out.push_back({"exec.streaming.view_evaluate_us",
                 MeanSpan(totals, "exec.streaming.view_evaluate") * 1e-3, "us",
                 ""});
  out.push_back({"exec.streaming.delta_size_at_pin",
                 Ratio(static_cast<double>(delta_sum), pins), "count",
                 pin_note});
  out.push_back({"exec.streaming.risky_view_frac",
                 Ratio(static_cast<double>(risky), pins), "fraction",
                 pin_note});
  out.push_back({"exec.streaming.apply_us",
                 MeanSpan(totals, "exec.streaming.apply") * 1e-3, "us", ""});
  out.push_back({"exec.streaming.writer_late_frac",
                 Ratio(static_cast<double>(writer_log.late),
                       static_cast<double>(writer_log.applied)),
                 "fraction", updates_note});
  out.push_back({"exec.streaming.update_ups", update_ups, "updates/s",
                 updates_note});
  out.push_back({"exec.streaming.update_p99_us", update_p99, "us",
                 updates_note});
  out.push_back({"exec.streaming.publishes",
                 static_cast<double>(stats.publishes), "count", ""});
  out.push_back({"exec.streaming.rebuilds_completed",
                 static_cast<double>(stats.rebuilds_completed), "count", ""});
  out.push_back({"exec.streaming.snapshot_swaps",
                 static_cast<double>(stats.snapshot_swaps), "count", ""});
  out.push_back({"exec.streaming.rebuild_failures",
                 static_cast<double>(stats.rebuild_failures), "count", ""});
  out.push_back({"exec.streaming.alive_epochs_max",
                 static_cast<double>(alive_max), "count", ""});
  out.push_back({"trace.overhead_frac",
                 1.0 - Ratio(traced.MeanQps(), untraced.MeanQps()),
                 "fraction", ""});
  return result;
}

// ----------------------------------------------------------------------------
// Output.

// Per-layer metrics every workload prints, in BENCHMARK.json order, with
// their units; a workload that does not exercise a layer reports 0 for it.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const LayerMetric kPerLayer[] = {
    {"graph.condense_ms", "ms"},
    {"core.build_ms", "ms"},
    {"core.index_mb", "MiB"},
    {"snapshot.save_ms", "ms"},
    {"snapshot.load_ms", "ms"},
    {"snapshot.file_mb", "MiB"},
    {"snapshot.page_cache.hit_rate", "fraction"},
    {"snapshot.page_cache.misses_per_query", "count"},
    {"snapshot.page_cache.evictions_per_query", "count"},
    {"snapshot.page_cache.bypass_per_query", "count"},
    {"spatial.histogram.empty_ns", "ns"},
    {"labeling.observations.settle_ns", "ns"},
    {"core.planner.settled_negative_frac", "fraction"},
    {"core.planner.settled_positive_frac", "fraction"},
    {"core.planner.route_ns", "ns"},
    {"core.planner.routed.SpaReach-BFL_frac", "fraction"},
    {"core.planner.routed.SocReach_frac", "fraction"},
    {"core.planner.routed.3DReach_frac", "fraction"},
    {"core.SpaReach-BFL.evaluate_ns", "ns"},
    {"core.SocReach.evaluate_ns", "ns"},
    {"core.3DReach.evaluate_ns", "ns"},
    {"core.SpaReach-BFL.evaluate_group_ns", "ns/region"},
    {"core.SocReach.evaluate_group_ns", "ns/region"},
    {"core.3DReach.evaluate_group_ns", "ns/region"},
    {"core.3DReach.range_queries_per_query", "count"},
    {"core.SpaReach-BFL.candidates_per_query", "count"},
    {"core.SpaReach-BFL.greach_calls_per_query", "count"},
    {"core.SocReach.descendants_per_query", "count"},
    {"exec.batch_ms", "ms"},
    {"exec.build_groups_us", "us"},
    {"exec.queries_per_group", "count"},
    {"exec.queries_per_region", "count"},
    {"exec.streaming.pin_us", "us"},
    {"exec.streaming.view_evaluate_us", "us"},
    {"exec.streaming.delta_size_at_pin", "count"},
    {"exec.streaming.risky_view_frac", "fraction"},
    {"exec.streaming.apply_us", "us"},
    {"exec.streaming.writer_late_frac", "fraction"},
    {"exec.streaming.update_ups", "updates/s"},
    {"exec.streaming.update_p99_us", "us"},
    {"exec.streaming.publishes", "count"},
    {"exec.streaming.rebuilds_completed", "count"},
    {"exec.streaming.snapshot_swaps", "count"},
    {"exec.streaming.rebuild_failures", "count"},
    {"exec.streaming.alive_epochs_max", "count"},
    {"trace.overhead_frac", "fraction"},
};

// Orders the measured per-layer metrics by kPerLayer and fills the ones
// this workload does not exercise with 0.
std::vector<Metric> CompletePerLayer(const std::vector<Metric>& measured) {
  std::vector<Metric> out;
  for (const LayerMetric& layer : kPerLayer) {
    Metric metric{layer.name, 0.0, layer.unit,
                  "layer not used by this workload"};
    for (const Metric& m : measured) {
      if (m.name == layer.name) metric = m;
    }
    out.push_back(metric);
  }
  return out;
}

// Writes the traced run's spans as JSON lines, one file per workload (the
// latest traced run's).
void WriteSpans(const Args& args,
                std::initializer_list<const Tracer*> tracers) {
  std::filesystem::create_directories(args.out);
  const std::string path = args.out + "/trace-" + args.workload + ".jsonl";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  for (const Tracer* tracer : tracers) tracer->Write(f);
  std::fclose(f);
  std::printf("# spans written to %s\n", path.c_str());
}

void PrintSpanTable(const std::map<std::string, Tracer::Totals>& totals) {
  std::printf("# spans: name, count, mean total, mean self\n");
  for (const auto& [name, t] : totals) {
    const double n = static_cast<double>(std::max<uint64_t>(1, t.count));
    std::printf("  %-40s %10llu %14.3f us %14.3f us\n", name.c_str(),
                static_cast<unsigned long long>(t.count),
                static_cast<double>(t.total_ns) / n * 1e-3,
                static_cast<double>(t.self_ns) / n * 1e-3);
  }
}

void PrintResult(const RunResult& result, const std::vector<Metric>& metrics) {
  const double failed_frac = Ratio(static_cast<double>(result.failed),
                                   static_cast<double>(result.attempted));
  std::printf("# metrics (name value unit [samples])\n");
  for (const Metric& m : metrics) {
    std::printf("  %-42s %.6g %s%s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.empty() ? "" : "  ",
                m.note.c_str());
  }
  std::printf("  %-42s %.6g fraction  n=%llu operations\n", "failed_ops_frac",
              failed_frac, static_cast<unsigned long long>(result.attempted));
  for (const std::string& e : result.errors) {
    std::printf("# error: %s\n", e.c_str());
  }
  std::string json = "{\"correct\": ";
  json += result.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " +
          std::to_string(std::max<uint64_t>(1, result.attempted));
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Main(int argc, char** argv) {
  // A fixed threshold (glibc's default value) turns off glibc's dynamic
  // mmap threshold, under which freed large buffers stay in the heap
  // depending on timing: peak_rss_mb of live-updates then moved by up to
  // 8% between runs of one seed.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <shared-hot|paged-small-cache|"
                 "live-updates> --seed <n> --seconds <s> --trace <0|1> "
                 "[--scale <f>] [--out <dir>] [--corrupt-reference]\n");
    return 2;
  }
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "scale=%g threads=%u simd=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.scale, kThreads,
              gsr::simd::KernelLevelName(gsr::simd::ActiveLevel()));
  std::fflush(stdout);

  RunResult result;
  if (args.workload == "shared-hot") {
    StaticSpec spec{};
    spec.dataset = "foursquare";
    spec.mode = gsr::snapshot::LoadMode::kMmap;
    spec.queries.vertex_zipf = 1.0;
    spec.queries.regions_per_vertex = 4;
    spec.queries.strata = gsr::DefaultMixedStrata();
    spec.batch = 4096;  // One scheduler window.
    spec.shared = true;
    spec.replay_stride = 128;
    spec.group_stride = 32;
    spec.window_s = 1.0;
    result = RunStatic(spec, args);
  } else if (args.workload == "paged-small-cache") {
    StaticSpec spec{};
    spec.dataset = "gowalla";
    spec.mode = gsr::snapshot::LoadMode::kPaged;
    spec.cache_fraction = 0.05;
    spec.queries.strata = gsr::DefaultMixedStrata();
    spec.batch = 1024;
    spec.shared = false;
    spec.replay_stride = 32;
    spec.group_stride = 1;
    spec.window_s = 1.0;
    result = RunStatic(spec, args);
  } else if (args.workload == "live-updates") {
    result = RunLiveUpdates(args);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  result.end_to_end.push_back({"peak_rss_mb", PeakRssMiB(), "MiB", ""});
  if (args.trace) {
    PrintSpanTable(result.span_totals);
  }
  PrintResult(result, args.trace ? CompletePerLayer(result.per_layer)
                                 : result.end_to_end);
  return result.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
