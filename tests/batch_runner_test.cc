#include "exec/batch_runner.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dynamic_range_reach.h"
#include "core/method_factory.h"
#include "core/soc_reach.h"
#include "datagen/workload.h"
#include "exec/streaming_engine.h"
#include "exec/thread_pool.h"
#include "tests/test_util.h"

namespace gsr {
namespace {

/// The execution-layer correctness property: a batch evaluated in
/// parallel (per-worker scratches, merged counters) must be bit-identical
/// to the same batch evaluated serially on one scratch. Run this suite
/// under -DGSR_SANITIZE=thread to also certify the absence of data races.

std::vector<MethodConfig> AllConfigs() {
  std::vector<MethodConfig> configs;
  for (const MethodKind kind :
       {MethodKind::kNaiveBfs, MethodKind::kSpaReachBfl,
        MethodKind::kSpaReachInt, MethodKind::kSpaReachPll,
        MethodKind::kSpaReachFeline, MethodKind::kGeoReach,
        MethodKind::kSocReach, MethodKind::kThreeDReach,
        MethodKind::kThreeDReachRev}) {
    MethodConfig config;
    config.kind = kind;
    configs.push_back(config);
  }
  return configs;
}

std::vector<RangeReachQuery> MixedWorkload(const GeoSocialNetwork& network,
                                           uint32_t count, uint64_t seed) {
  WorkloadGenerator workload(&network, seed);
  QuerySpec spec;
  spec.count = count;
  spec.min_out_degree = 0;
  spec.max_out_degree = 1u << 30;
  return workload.Generate(spec);
}

TEST(BatchRunnerTest, ParallelMatchesSerialForEveryMethod) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(250, 2.5, 0.4, 11);
  const CondensedNetwork cn(&network);
  const std::vector<RangeReachQuery> queries =
      MixedWorkload(network, 400, 77);

  exec::ThreadPool pool(4);
  exec::BatchRunner runner(&pool);

  for (const MethodConfig& config : AllConfigs()) {
    const auto method = CreateMethod(&cn, config);
    const auto scratch = method->NewScratch();

    std::vector<uint8_t> serial;
    serial.reserve(queries.size());
    size_t serial_true = 0;
    for (const auto& [vertex, region] : queries) {
      const bool answer = method->Evaluate(vertex, region, *scratch);
      serial.push_back(answer ? 1 : 0);
      serial_true += answer ? 1 : 0;
    }

    const exec::BatchResult parallel = runner.Run(*method, queries);
    ASSERT_EQ(parallel.answers.size(), queries.size()) << method->name();
    EXPECT_EQ(parallel.answers, serial) << method->name();
    EXPECT_EQ(parallel.true_count, serial_true) << method->name();
  }
}

TEST(BatchRunnerTest, CountersMatchSerialTwin) {
  // Two instances of the same method over the same condensation: one
  // answers the batch serially, one in parallel. After the batch the
  // parallel instance's merged counters must equal the serial one's.
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(200, 2.0, 0.5, 21);
  const CondensedNetwork cn(&network);
  const std::vector<RangeReachQuery> queries =
      MixedWorkload(network, 300, 88);

  const SocReach serial_soc(&cn);
  const SocReach parallel_soc(&cn);
  const auto serial_scratch = serial_soc.NewScratch();
  for (const auto& [vertex, region] : queries) {
    (void)serial_soc.Evaluate(vertex, region, *serial_scratch);
  }
  serial_soc.DrainScratchCounters(*serial_scratch);

  exec::ThreadPool pool(4);
  exec::BatchRunner runner(&pool);
  (void)runner.Run(parallel_soc, queries);

  EXPECT_EQ(parallel_soc.counters().queries, serial_soc.counters().queries);
  EXPECT_EQ(parallel_soc.counters().descendants,
            serial_soc.counters().descendants);
  EXPECT_EQ(parallel_soc.counters().containment_tests,
            serial_soc.counters().containment_tests);
  EXPECT_EQ(serial_soc.counters().queries, queries.size());
}

TEST(BatchRunnerTest, ScratchesAreReusedAcrossRunsAndRebuiltOnMethodSwitch) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(120, 2.0, 0.5, 31);
  const CondensedNetwork cn(&network);
  const std::vector<RangeReachQuery> queries =
      MixedWorkload(network, 100, 99);

  exec::ThreadPool pool(3);
  exec::BatchRunner runner(&pool);
  EXPECT_EQ(runner.cached_scratch_count(), 0u);

  MethodConfig config;
  config.kind = MethodKind::kThreeDReach;
  const auto first = CreateMethod(&cn, config);
  const exec::BatchResult a = runner.Run(*first, queries);
  EXPECT_EQ(runner.cached_scratch_count(), pool.size());
  const exec::BatchResult b = runner.Run(*first, queries);
  EXPECT_EQ(runner.cached_scratch_count(), pool.size());
  EXPECT_EQ(a.answers, b.answers);

  config.kind = MethodKind::kSocReach;
  const auto second = CreateMethod(&cn, config);
  (void)runner.Run(*second, queries);
  EXPECT_EQ(runner.cached_scratch_count(), pool.size());
}

TEST(BatchRunnerTest, MethodSwitchMidStreamRebuildsScratchesAndDrainsOnce) {
  // Alternating between two method instances through one runner: every
  // switch must rebuild the scratch cache for the new instance (keyed by
  // instance_id, not type — both are SocReach) and drain the outgoing
  // batch's counters exactly once, never double-counting across rounds.
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(150, 2.5, 0.4, 67);
  const CondensedNetwork cn(&network);
  const std::vector<RangeReachQuery> queries =
      MixedWorkload(network, 200, 91);

  const SocReach serial_twin(&cn);
  const SocReach parallel_a(&cn);
  const SocReach parallel_b(&cn);

  exec::ThreadPool pool(4);
  exec::BatchRunner runner(&pool);
  for (int round = 0; round < 3; ++round) {
    (void)runner.Run(parallel_a, queries);
    EXPECT_EQ(runner.cached_scratch_count(), pool.size());
    (void)runner.Run(parallel_b, queries);
    EXPECT_EQ(runner.cached_scratch_count(), pool.size());
  }
  const auto twin_scratch = serial_twin.NewScratch();
  for (int round = 0; round < 3; ++round) {
    for (const auto& [vertex, region] : queries) {
      (void)serial_twin.Evaluate(vertex, region, *twin_scratch);
    }
  }
  serial_twin.DrainScratchCounters(*twin_scratch);
  EXPECT_EQ(parallel_a.counters().queries, serial_twin.counters().queries);
  EXPECT_EQ(parallel_a.counters().descendants,
            serial_twin.counters().descendants);
  EXPECT_EQ(parallel_a.counters().containment_tests,
            serial_twin.counters().containment_tests);
  EXPECT_EQ(parallel_b.counters().queries, parallel_a.counters().queries);

  // The scheduler path keeps the exactly-once drain too. Shared execution
  // may amortize probes (descendants/containment_tests shrink), but this
  // workload has no duplicate (vertex, region) pair — regions are fresh
  // random rectangles — so each RunShared adds exactly |batch| to the
  // grouped query counter. Grouping is forced: 200 queries sit below the
  // adaptive small-window bypass, which drains through the per-query
  // path instead of the grouped one.
  exec::SchedulerOptions scheduler_options;
  scheduler_options.min_window_to_group = 1;
  const uint64_t before = parallel_a.counters().queries;
  (void)runner.RunShared(parallel_a, queries, scheduler_options);
  (void)runner.RunShared(parallel_a, queries, scheduler_options);
  EXPECT_EQ(parallel_a.counters().queries, before + 2 * queries.size());
}

TEST(BatchRunnerTest, StreamingSocReachAgreesInParallel) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(180, 2.5, 0.4, 41);
  const CondensedNetwork cn(&network);
  const std::vector<RangeReachQuery> queries =
      MixedWorkload(network, 250, 123);

  const SocReach materializing(&cn);
  const SocReach streaming(&cn, SocReach::Options{.stream_containment = true});
  ASSERT_TRUE(streaming.options().stream_containment);

  exec::ThreadPool pool(4);
  exec::BatchRunner runner(&pool);
  const exec::BatchResult base = runner.Run(materializing, queries);
  const exec::BatchResult fused = runner.Run(streaming, queries);
  EXPECT_EQ(base.answers, fused.answers);
}

TEST(BatchRunnerTest, RecordLatenciesProducesOnePerQuery) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(80, 2.0, 0.5, 51);
  const CondensedNetwork cn(&network);
  const std::vector<RangeReachQuery> queries = MixedWorkload(network, 64, 7);

  MethodConfig config;
  config.kind = MethodKind::kThreeDReach;
  const auto method = CreateMethod(&cn, config);

  exec::ThreadPool pool(2);
  exec::BatchRunner runner(&pool);
  exec::BatchOptions options;
  options.record_latencies = true;
  const exec::BatchResult result = runner.Run(*method, queries, options);
  ASSERT_EQ(result.latencies_us.size(), queries.size());
  for (const double latency : result.latencies_us) {
    EXPECT_GE(latency, 0.0);
  }
}

/// Throws on one poison vertex. Each scratch counts the evaluations it
/// served and DrainScratchCounters folds them into `drained`, so a test
/// sees both that the other queries ran and that their counters reached
/// the aggregate despite the exception.
class ThrowingMethod : public RangeReachMethod {
 public:
  static constexpr VertexId kPoison = 7;

  struct Scratch : QueryScratch {
    size_t evaluations = 0;
  };

  bool Evaluate(VertexId vertex, const Rect& region,
                QueryScratch& scratch) const override {
    if (vertex == kPoison) throw std::runtime_error("poison vertex");
    ++static_cast<Scratch&>(scratch).evaluations;
    return region.Contains(Point2D{static_cast<double>(vertex),
                                   static_cast<double>(vertex)});
  }
  void CollectInto(VertexId vertex, const Rect& region, ResultSink& sink,
                   QueryScratch& scratch) const override {
    if (Evaluate(vertex, region, scratch)) sink.Add(vertex);
  }
  std::unique_ptr<QueryScratch> NewScratch() const override {
    return std::make_unique<Scratch>();
  }
  void DrainScratchCounters(QueryScratch& scratch) const override {
    Scratch& s = static_cast<Scratch&>(scratch);
    drained += s.evaluations;
    s.evaluations = 0;
  }
  VertexId num_vertices() const override { return 100; }
  std::string name() const override { return "Throwing"; }
  size_t IndexSizeBytes() const override { return 1; }

  mutable size_t drained = 0;
};

TEST(BatchRunnerTest, ExceptionRunsTheRestDrainsAndRethrows) {
  // 100 queries on vertices 0..99, one of them poisoned. Run and RunAny
  // must still evaluate the other 99 (across every claim chunk, including
  // the poisoned query's own), drain their counters, then rethrow.
  std::vector<RangeReachQuery> queries;
  for (VertexId v = 0; v < 100; ++v) {
    queries.push_back({v, Rect(0, 0, 49.5, 49.5)});
  }

  const ThrowingMethod method;
  exec::ThreadPool pool(3);
  exec::BatchRunner runner(&pool);
  for (const QueryKind kind :
       {QueryKind::kBool, QueryKind::kCount, QueryKind::kEnum}) {
    exec::BatchOptions options;
    options.kind = kind;
    options.chunk = 8;
    options.record_latencies = kind == QueryKind::kEnum;
    const size_t before = method.drained;
    EXPECT_THROW((void)runner.Run(method, queries, options),
                 std::runtime_error);
    EXPECT_EQ(method.drained - before, queries.size() - 1);
  }

  // RunAny likewise: the default EvaluateAny throws on the poison
  // source; the other 99 single-source queries still run and drain.
  std::vector<AnyReachQuery> any;
  for (const RangeReachQuery& query : queries) {
    any.push_back({{query.vertex}, query.region});
  }
  exec::BatchOptions any_options;
  any_options.chunk = 8;
  const size_t before_any = method.drained;
  EXPECT_THROW((void)runner.RunAny(method, any, any_options),
               std::runtime_error);
  EXPECT_EQ(method.drained - before_any, queries.size() - 1);

  // The runner (and its scratch cache) stays usable afterwards.
  queries.erase(queries.begin() + ThrowingMethod::kPoison);
  const exec::BatchResult result = runner.Run(method, queries);
  EXPECT_EQ(result.answers.size(), 99u);
  EXPECT_EQ(result.true_count, 49u);  // Vertices 0..49 minus the poison.
  EXPECT_EQ(runner.cached_scratch_count(), pool.size());
}

TEST(BatchRunnerTest, DynamicRangeReachParallelReaders) {
  // DynamicRangeReach is outside the RangeReachMethod hierarchy; its
  // explicit-scratch Evaluate supports the same multi-reader regime,
  // exercised here directly on the pool.
  GeoSocialNetwork base = testing::RandomGeoSocialNetwork(150, 2.0, 0.5, 61);
  DynamicRangeReach dynamic(std::move(base));
  const VertexId venue = dynamic.AddVertex(Point2D{50.0, 50.0});
  ASSERT_TRUE(dynamic.AddEdge(0, venue).ok());

  std::vector<RangeReachQuery> queries =
      MixedWorkload(dynamic.base_network(), 200, 71);
  for (auto& query : queries) {
    // Keep vertices in range of the updated network (they already are;
    // the workload draws from the base network).
    ASSERT_LT(query.vertex, dynamic.num_vertices());
  }

  std::vector<uint8_t> serial;
  serial.reserve(queries.size());
  DynamicRangeReach::Scratch serial_scratch = dynamic.NewScratch();
  for (const auto& [vertex, region] : queries) {
    serial.push_back(dynamic.Evaluate(vertex, region, serial_scratch) ? 1 : 0);
  }

  exec::ThreadPool pool(4);
  std::vector<DynamicRangeReach::Scratch> scratches;
  for (unsigned i = 0; i < pool.size(); ++i) {
    scratches.push_back(dynamic.NewScratch());
  }
  std::vector<uint8_t> parallel(queries.size(), 0);
  pool.ParallelFor(queries.size(), 8, [&](size_t i, unsigned worker) {
    parallel[i] = dynamic.Evaluate(queries[i].vertex, queries[i].region,
                                   scratches[worker])
                      ? 1
                      : 0;
  });
  EXPECT_EQ(parallel, serial);
}

TEST(BatchRunnerTest, OutOfRangeVertexThrowsAtEveryEntryPoint) {
  // An unchecked id would index past the condensation (SocReach) or trip
  // a check (the dynamic path). Every batch entry point validates query
  // vertices and AnyReach sources up front instead, for every kind, on a
  // static method and on a pinned streaming epoch alike.
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(200, 2.0, 0.5, 97);
  const CondensedNetwork cn(&network);
  const SocReach soc(&cn);
  exec::StreamingRangeReach engine(
      testing::RandomGeoSocialNetwork(200, 2.0, 0.5, 97), nullptr);
  const std::shared_ptr<const exec::EpochView> epoch = engine.Pin();

  exec::ThreadPool pool(2);
  exec::BatchRunner runner(&pool);
  const Rect region(0, 0, 100, 100);
  const auto expect_out_of_range = [](const auto& run, size_t slot,
                                      VertexId id) {
    try {
      run();
      ADD_FAILURE() << "no exception for vertex " << id;
    } catch (const std::out_of_range& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("slot " + std::to_string(slot)), std::string::npos)
          << what;
      EXPECT_NE(what.find(std::to_string(id)), std::string::npos) << what;
    }
  };

  for (const RangeReachMethod* method :
       {static_cast<const RangeReachMethod*>(&soc),
        static_cast<const RangeReachMethod*>(epoch.get())}) {
    ASSERT_EQ(method->num_vertices(), 200u);
    for (const VertexId bad : {VertexId{200}, VertexId{200000000}}) {
      const std::vector<RangeReachQuery> queries = {
          {0, region}, {199, region}, {bad, region}, {1, region}};
      for (const QueryKind kind :
           {QueryKind::kBool, QueryKind::kCount, QueryKind::kEnum}) {
        exec::BatchOptions batch;
        batch.kind = kind;
        expect_out_of_range([&] { runner.Run(*method, queries, batch); }, 2,
                            bad);
        for (const size_t min_window : {size_t{1}, size_t{100000}}) {
          exec::SchedulerOptions shared;
          shared.kind = kind;
          shared.min_window_to_group = min_window;  // Grouped and bypass.
          expect_out_of_range(
              [&] { runner.RunShared(*method, queries, shared); }, 2, bad);
        }
      }
      const std::vector<AnyReachQuery> any = {{{0, 1}, region},
                                              {{2, bad, 3}, region}};
      expect_out_of_range([&] { runner.RunAny(*method, any); }, 1, bad);
    }
    // A rejected batch leaves the runner usable.
    const exec::BatchResult ok = runner.Run(*method, {{0, region}});
    EXPECT_EQ(ok.answers.size(), 1u);
  }
}

TEST(BatchRunnerTest, ConcurrentDrainsRaceWithCounterReads) {
  // The aggregate counters are written only by DrainScratchCounters and
  // read only through counters(), both under the totals lock: workers
  // may drain their own scratches while another thread reads, and the
  // totals still equal a serial one-scratch run of the same queries.
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(200, 2.0, 0.5, 29);
  const CondensedNetwork cn(&network);
  const std::vector<RangeReachQuery> queries =
      MixedWorkload(network, 400, 131);
  const SocReach method(&cn);

  const auto serial_scratch = method.NewScratch();
  for (const auto& [vertex, region] : queries) {
    (void)method.Evaluate(vertex, region, *serial_scratch);
  }
  method.DrainScratchCounters(*serial_scratch);
  const SocReach::Counters serial = method.counters();
  ASSERT_EQ(serial.queries, queries.size());
  method.ResetCounters();

  constexpr size_t kWorkers = 4;
  exec::ThreadPool pool(kWorkers);
  std::vector<std::unique_ptr<QueryScratch>> scratches;
  for (size_t w = 0; w < kWorkers; ++w) {
    scratches.push_back(method.NewScratch());
  }
  std::vector<std::future<void>> done;
  for (size_t w = 0; w < kWorkers; ++w) {
    done.push_back(pool.Submit([&, w](unsigned /*worker*/) {
      for (size_t i = w; i < queries.size(); i += kWorkers) {
        (void)method.Evaluate(queries[i].vertex, queries[i].region,
                              *scratches[w]);
        if (i % 8 == 0) method.DrainScratchCounters(*scratches[w]);
      }
      method.DrainScratchCounters(*scratches[w]);
    }));
  }
  // Reads race with the drains; the totals only ever grow.
  uint64_t last = 0;
  const auto all_done = [&] {
    for (const std::future<void>& f : done) {
      if (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        return false;
      }
    }
    return true;
  };
  do {
    const uint64_t now = method.counters().queries;
    EXPECT_GE(now, last);
    last = now;
  } while (!all_done());
  for (std::future<void>& f : done) f.get();

  const SocReach::Counters totals = method.counters();
  EXPECT_EQ(totals.queries, serial.queries);
  EXPECT_EQ(totals.descendants, serial.descendants);
  EXPECT_EQ(totals.containment_tests, serial.containment_tests);
  EXPECT_EQ(totals.settled_negative, serial.settled_negative);
  EXPECT_EQ(totals.settled_positive, serial.settled_positive);
}

}  // namespace
}  // namespace gsr
