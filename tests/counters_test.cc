#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "core/geo_reach.h"
#include "core/method_factory.h"
#include "core/query_planner.h"
#include "core/soc_reach.h"
#include "core/spa_reach.h"
#include "core/three_d_reach.h"
#include "exec/batch_runner.h"
#include "exec/thread_pool.h"
#include "tests/test_util.h"

namespace gsr {
namespace {

/// The per-method cost counters back the analysis bench; their semantics
/// are pinned down here on hand-built networks.

GeoSocialNetwork StarNetwork(uint32_t venues) {
  // Vertex 0 checks into `venues` venues spread over [0, venues) x {0}.
  GraphBuilder builder;
  builder.ReserveVertices(venues + 1);
  std::vector<std::optional<Point2D>> points(venues + 1);
  for (uint32_t i = 0; i < venues; ++i) {
    builder.AddEdge(0, i + 1);
    points[i + 1] = Point2D{static_cast<double>(i), 0.0};
  }
  auto graph = builder.Build();
  GSR_CHECK(graph.ok());
  auto network = GeoSocialNetwork::Create(std::move(graph).value(), points);
  GSR_CHECK(network.ok());
  return std::move(network).value();
}

TEST(CountersTest, SpaReachCandidatesEqualRangeResult) {
  const GeoSocialNetwork network = StarNetwork(20);
  const CondensedNetwork cn(&network);
  const SpaReachBfl method(&cn);
  const auto scratch = method.NewScratch();

  // Region covering venues 0..9 (x in [0, 9]): 10 candidates. The query
  // vertex reaches the very first candidate, so at least 1 and at most 10
  // GReach calls are issued.
  EXPECT_TRUE(method.Evaluate(0, Rect(-0.5, -1, 9.5, 1), *scratch));
  method.DrainScratchCounters(*scratch);
  EXPECT_EQ(method.counters().queries, 1u);
  EXPECT_EQ(method.counters().candidates, 10u);
  EXPECT_GE(method.counters().greach_calls, 1u);
  EXPECT_LE(method.counters().greach_calls, 10u);

  // A negative query from a venue probes every candidate.
  method.ResetCounters();
  EXPECT_FALSE(method.Evaluate(1, Rect(4.5, -1, 9.5, 1), *scratch));
  method.DrainScratchCounters(*scratch);
  EXPECT_EQ(method.counters().candidates, 5u);
  EXPECT_EQ(method.counters().greach_calls, 5u);
}

TEST(CountersTest, SocReachMaterializesAllDescendants) {
  const GeoSocialNetwork network = StarNetwork(15);
  const CondensedNetwork cn(&network);
  const SocReach method(&cn);
  const auto scratch = method.NewScratch();
  // Vertex 0 has 16 descendants (itself + 15 venues); a query with an
  // empty-region answer still materializes all of them.
  EXPECT_FALSE(method.Evaluate(0, Rect(100, 100, 101, 101), *scratch));
  method.DrainScratchCounters(*scratch);
  EXPECT_EQ(method.counters().descendants, 16u);
  EXPECT_EQ(method.counters().containment_tests, 16u);

  // A positive query stops testing early but materializes D(v) anyway.
  method.ResetCounters();
  EXPECT_TRUE(method.Evaluate(0, Rect(-1, -1, 20, 1), *scratch));
  method.DrainScratchCounters(*scratch);
  EXPECT_EQ(method.counters().descendants, 16u);
  EXPECT_LE(method.counters().containment_tests, 16u);
}

TEST(CountersTest, ThreeDReachIssuesOneQueryPerLabel) {
  const GeoSocialNetwork network = StarNetwork(10);
  const CondensedNetwork cn(&network);
  const ThreeDReach method(&cn);
  const auto scratch = method.NewScratch();
  const ComponentId source = cn.ComponentOf(0);
  const size_t labels = method.labeling().Labels(source).size();
  // Negative answer: every label's cuboid is issued.
  EXPECT_FALSE(method.Evaluate(0, Rect(100, 100, 101, 101), *scratch));
  method.DrainScratchCounters(*scratch);
  EXPECT_EQ(method.counters().range_queries, labels);
  // Positive answer: stops at the first matching cuboid.
  method.ResetCounters();
  EXPECT_TRUE(method.Evaluate(0, Rect(-1, -1, 20, 1), *scratch));
  method.DrainScratchCounters(*scratch);
  EXPECT_GE(method.counters().range_queries, 1u);
  EXPECT_LE(method.counters().range_queries, labels);
}

TEST(CountersTest, GeoReachVisitCounts) {
  const GeoSocialNetwork network = StarNetwork(12);
  const CondensedNetwork cn(&network);
  const GeoReachMethod method(&cn);
  const auto scratch = method.NewScratch();
  // Negative query from vertex 0: unless pruned at the source, the BFS
  // walks the star. Either way at least the source is visited.
  method.Evaluate(0, Rect(100, 100, 101, 101), *scratch);
  method.DrainScratchCounters(*scratch);
  EXPECT_EQ(method.counters().queries, 1u);
  EXPECT_GE(method.counters().vertices_visited, 1u);
  EXPECT_LE(method.counters().pruned, method.counters().vertices_visited);
}

TEST(CountersTest, CountersAccumulateAcrossQueries) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(100, 2.0, 0.5, 21);
  const CondensedNetwork cn(&network);
  const SpaReachBfl spa(&cn);
  const SocReach soc(&cn);
  const ThreeDReach threed(&cn);
  const GeoReachMethod geo(&cn);
  const auto spa_scratch = spa.NewScratch();
  const auto soc_scratch = soc.NewScratch();
  const auto threed_scratch = threed.NewScratch();
  const auto geo_scratch = geo.NewScratch();
  Rng rng(22);
  for (int q = 0; q < 25; ++q) {
    const VertexId v = static_cast<VertexId>(rng.NextBounded(100));
    const Rect region(10, 10, 60, 60);
    spa.Evaluate(v, region, *spa_scratch);
    soc.Evaluate(v, region, *soc_scratch);
    threed.Evaluate(v, region, *threed_scratch);
    geo.Evaluate(v, region, *geo_scratch);
  }
  spa.DrainScratchCounters(*spa_scratch);
  soc.DrainScratchCounters(*soc_scratch);
  threed.DrainScratchCounters(*threed_scratch);
  geo.DrainScratchCounters(*geo_scratch);
  EXPECT_EQ(spa.counters().queries, 25u);
  EXPECT_EQ(soc.counters().queries, 25u);
  EXPECT_EQ(threed.counters().queries, 25u);
  EXPECT_EQ(geo.counters().queries, 25u);
  spa.ResetCounters();
  EXPECT_EQ(spa.counters().queries, 0u);
}


// --- Pinned totals -----------------------------------------------------
//
// Every counter of every counting method is pinned: a fixed workload runs
// through each query path (Evaluate, CollectInto with count and enum
// sinks, EvaluateAny, and RunShared's grouped forms), each path's drained
// totals are rendered as text, and the XXH64 of that text must match the
// recorded value at 1 and at 4 pool threads. A refactor of the counting
// plumbing must leave these hashes alone; a mismatch prints the rendered
// totals so two builds can be diffed field by field.

/// The drained totals of `method` — and of each planner member — as
/// "name{field=value ...}", every field the method counts.
std::string RenderCounters(const RangeReachMethod& method) {
  std::ostringstream out;
  out << method.name() << "{";
  if (const auto* m = dynamic_cast<const SpaReachBase*>(&method)) {
    const auto c = m->counters();
    out << "queries=" << c.queries << " candidates=" << c.candidates
        << " greach_calls=" << c.greach_calls
        << " settled_negative=" << c.settled_negative
        << " settled_positive=" << c.settled_positive;
  } else if (const auto* m = dynamic_cast<const SocReach*>(&method)) {
    const auto c = m->counters();
    out << "queries=" << c.queries << " descendants=" << c.descendants
        << " containment_tests=" << c.containment_tests
        << " settled_negative=" << c.settled_negative
        << " settled_positive=" << c.settled_positive;
  } else if (const auto* m = dynamic_cast<const ThreeDReach*>(&method)) {
    const auto c = m->counters();
    out << "queries=" << c.queries << " range_queries=" << c.range_queries
        << " settled_negative=" << c.settled_negative
        << " settled_positive=" << c.settled_positive;
  } else if (const auto* m = dynamic_cast<const ThreeDReachRev*>(&method)) {
    const auto c = m->counters();
    out << "queries=" << c.queries
        << " settled_negative=" << c.settled_negative
        << " settled_positive=" << c.settled_positive;
  } else if (const auto* m = dynamic_cast<const GeoReachMethod*>(&method)) {
    const auto c = m->counters();
    out << "queries=" << c.queries
        << " vertices_visited=" << c.vertices_visited
        << " pruned=" << c.pruned;
  } else if (const auto* m = dynamic_cast<const PlannedMethod*>(&method)) {
    const auto c = m->counters();
    out << "queries=" << c.queries
        << " settled_negative=" << c.settled_negative
        << " settled_positive=" << c.settled_positive << " routed=";
    for (const uint64_t r : c.routed) out << r << ",";
    for (size_t i = 0; i < m->num_members(); ++i) {
      out << " " << RenderCounters(m->member(i));
    }
  }
  out << "}";
  return out.str();
}

void ResetAllCounters(const RangeReachMethod& method) {
  if (const auto* m = dynamic_cast<const SpaReachBase*>(&method)) {
    m->ResetCounters();
  } else if (const auto* m = dynamic_cast<const SocReach*>(&method)) {
    m->ResetCounters();
  } else if (const auto* m = dynamic_cast<const ThreeDReach*>(&method)) {
    m->ResetCounters();
  } else if (const auto* m = dynamic_cast<const ThreeDReachRev*>(&method)) {
    m->ResetCounters();
  } else if (const auto* m = dynamic_cast<const GeoReachMethod*>(&method)) {
    m->ResetCounters();
  } else if (const auto* m = dynamic_cast<const PlannedMethod*>(&method)) {
    m->ResetCounters();
    for (size_t i = 0; i < m->num_members(); ++i) {
      ResetAllCounters(m->member(i));
    }
  }
}

/// A square region of side `side` at a random position in [0, 100]^2.
Rect RandomSquare(Rng& rng, double side) {
  const double x = rng.NextDoubleInRange(-side / 2, 100 - side / 2);
  const double y = rng.NextDoubleInRange(-side / 2, 100 - side / 2);
  return Rect(x, y, x + side, y + side);
}

constexpr double kPinSides[] = {2.0, 10.0, 35.0};

/// The pinned workload. `single` draws vertex and region independently;
/// `shared` gives 24 vertices 12 distinct regions each (masked grouped
/// paths) and 6 vertices 3 regions each (the small-group fallbacks), in
/// an interleaved order with every query distinct; `any` holds AnyReach
/// queries of 1 to 6 sources.
struct PinWorkload {
  std::vector<RangeReachQuery> single;
  std::vector<RangeReachQuery> shared;
  std::vector<AnyReachQuery> any;
};

PinWorkload MakePinWorkload(uint32_t n) {
  PinWorkload w;
  Rng rng(0xC0C0);
  for (int i = 0; i < 240; ++i) {
    const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
    w.single.push_back({v, RandomSquare(rng, kPinSides[i % 3])});
  }
  std::vector<std::vector<RangeReachQuery>> per_vertex;
  for (int g = 0; g < 30; ++g) {
    const VertexId v = static_cast<VertexId>(rng.NextBounded(n));
    per_vertex.emplace_back();
    for (int k = 0; k < (g < 24 ? 12 : 3); ++k) {
      per_vertex.back().push_back({v, RandomSquare(rng, kPinSides[k % 3])});
    }
  }
  for (size_t k = 0; k < 12; ++k) {
    for (const auto& queries : per_vertex) {
      if (k < queries.size()) w.shared.push_back(queries[k]);
    }
  }
  for (int i = 0; i < 90; ++i) {
    AnyReachQuery query;
    const size_t sources = 1 + rng.NextBounded(6);
    for (size_t s = 0; s < sources; ++s) {
      query.sources.push_back(static_cast<VertexId>(rng.NextBounded(n)));
    }
    query.region = RandomSquare(rng, kPinSides[i % 3]);
    w.any.push_back(std::move(query));
  }
  return w;
}

/// Runs every path of the pinned workload on `method` and renders the
/// totals drained after each one.
std::string RunPinnedPaths(const RangeReachMethod& method,
                           const PinWorkload& w, unsigned threads) {
  exec::ThreadPool pool(threads);
  exec::BatchRunner runner(&pool);
  std::string rendered;
  const auto record = [&](const char* path) {
    rendered += std::string(path) + ":" + RenderCounters(method) + "\n";
    ResetAllCounters(method);
  };
  ResetAllCounters(method);
  for (const QueryKind kind :
       {QueryKind::kBool, QueryKind::kCount, QueryKind::kEnum}) {
    exec::BatchOptions options;
    options.kind = kind;
    (void)runner.Run(method, w.single, options);
    record(kind == QueryKind::kBool    ? "evaluate"
           : kind == QueryKind::kCount ? "collect-count"
                                       : "collect-enum");
  }
  (void)runner.RunAny(method, w.any);
  record("any");
  for (const QueryKind kind :
       {QueryKind::kBool, QueryKind::kCount, QueryKind::kEnum}) {
    exec::SchedulerOptions options;
    options.kind = kind;
    options.min_window_to_group = 0;
    (void)runner.RunShared(method, w.shared, options);
    record(kind == QueryKind::kBool    ? "shared-evaluate"
           : kind == QueryKind::kCount ? "shared-count"
                                       : "shared-enum");
  }
  return rendered;
}

struct CounterPin {
  MethodKind kind;
  SccSpatialMode mode;
  bool observations;  // Fixed kinds: attach the pre-checks.
  uint64_t golden;
};

TEST(CountersTest, EveryCounterIsPinned) {
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(600, 3.0, 0.5, 2024);
  const CondensedNetwork cn(&network);
  const Observations observations =
      BuildNetworkObservations(cn, Observations::Options{});
  const PinWorkload workload = MakePinWorkload(network.num_vertices());
  // NaiveBFS keeps no counters; every other kind is pinned in both SCC
  // modes, the fixed ones with and without the observation pre-checks.
  const std::vector<CounterPin> pins = {
      {MethodKind::kSpaReachBfl, SccSpatialMode::kReplicate, false,
       0xf1ef298d5ce9e162},
      {MethodKind::kSpaReachBfl, SccSpatialMode::kReplicate, true,
       0xe338b7b5fe9fa7e0},
      {MethodKind::kSpaReachBfl, SccSpatialMode::kMbr, false,
       0x1c0805403ad2abf2},
      {MethodKind::kSpaReachBfl, SccSpatialMode::kMbr, true,
       0xe39650c503cb91be},
      {MethodKind::kSpaReachInt, SccSpatialMode::kReplicate, false,
       0xed1d6fcd2381465b},
      {MethodKind::kSpaReachInt, SccSpatialMode::kReplicate, true,
       0xccfa60a86e5b7667},
      {MethodKind::kSpaReachInt, SccSpatialMode::kMbr, false,
       0x4798f9b4b8216c38},
      {MethodKind::kSpaReachInt, SccSpatialMode::kMbr, true,
       0xf614c330f5ec3469},
      {MethodKind::kSpaReachPll, SccSpatialMode::kReplicate, false,
       0x220c761f7bdf08d8},
      {MethodKind::kSpaReachPll, SccSpatialMode::kReplicate, true,
       0xa8a4b41a15118199},
      {MethodKind::kSpaReachPll, SccSpatialMode::kMbr, false,
       0xaf4084a74a6a8817},
      {MethodKind::kSpaReachPll, SccSpatialMode::kMbr, true,
       0x4bce282d950bb034},
      {MethodKind::kSpaReachFeline, SccSpatialMode::kReplicate, false,
       0x6599d55f70df4421},
      {MethodKind::kSpaReachFeline, SccSpatialMode::kReplicate, true,
       0xf5137a280886bce3},
      {MethodKind::kSpaReachFeline, SccSpatialMode::kMbr, false,
       0xf4742249f96bc0c0},
      {MethodKind::kSpaReachFeline, SccSpatialMode::kMbr, true,
       0x351eda6915f39dc3},
      {MethodKind::kGeoReach, SccSpatialMode::kReplicate, false,
       0x00e0f1a43f12d5ad},
      {MethodKind::kGeoReach, SccSpatialMode::kReplicate, true,
       0x00e0f1a43f12d5ad},
      {MethodKind::kGeoReach, SccSpatialMode::kMbr, false, 0x00e0f1a43f12d5ad},
      {MethodKind::kGeoReach, SccSpatialMode::kMbr, true, 0x00e0f1a43f12d5ad},
      {MethodKind::kSocReach, SccSpatialMode::kReplicate, false,
       0x4f85b44bbbc8f2ca},
      {MethodKind::kSocReach, SccSpatialMode::kReplicate, true,
       0xa894ff1b09a24e4a},
      {MethodKind::kSocReach, SccSpatialMode::kMbr, false, 0x4f85b44bbbc8f2ca},
      {MethodKind::kSocReach, SccSpatialMode::kMbr, true, 0xa894ff1b09a24e4a},
      {MethodKind::kThreeDReach, SccSpatialMode::kReplicate, false,
       0xa6c1f78ced2c5947},
      {MethodKind::kThreeDReach, SccSpatialMode::kReplicate, true,
       0xb81969ea7dd22fa7},
      {MethodKind::kThreeDReach, SccSpatialMode::kMbr, false,
       0x986d5e72f936263e},
      {MethodKind::kThreeDReach, SccSpatialMode::kMbr, true,
       0xe4f74b19a24aa00a},
      // 3DReach-REV counts queries on its masked grouped and AnyReach
      // paths too (see ThreeDReachRevCountsEveryServedQuery).
      {MethodKind::kThreeDReachRev, SccSpatialMode::kReplicate, false,
       0x50ad0e971950cba7},
      {MethodKind::kThreeDReachRev, SccSpatialMode::kReplicate, true,
       0x8beab04ba363f60b},
      {MethodKind::kThreeDReachRev, SccSpatialMode::kMbr, false,
       0xdf7c33d11461433b},
      {MethodKind::kThreeDReachRev, SccSpatialMode::kMbr, true,
       0xaf5e5e2235965c52},
      {MethodKind::kPlanner, SccSpatialMode::kReplicate, false,
       0xbfa997e204f4a418},
      {MethodKind::kPlanner, SccSpatialMode::kMbr, false, 0xf96b8131bf2a630c},
  };
  for (const CounterPin& pin : pins) {
    MethodConfig config;
    config.kind = pin.kind;
    config.scc_mode = pin.mode;
    // Calibration is timed, so its cost models (and routes) would vary.
    config.planner.calibration_samples = 0;
    const auto method = CreateMethod(&cn, config);
    if (pin.observations) method->AttachObservations(&observations);
    for (const unsigned threads : {1u, 4u}) {
      const std::string rendered = RunPinnedPaths(*method, workload, threads);
      const uint64_t hash = XxHash64(rendered.data(), rendered.size());
      EXPECT_EQ(hash, pin.golden)
          << MethodKindName(pin.kind) << " mode "
          << static_cast<int>(pin.mode) << " observations "
          << pin.observations << " threads " << threads << " got 0x"
          << std::hex << hash << "\n"
          << rendered;
    }
  }
}

TEST(CountersTest, ThreeDReachRevCountsEveryServedQuery) {
  // The masked grouped paths (groups of 8+ regions) and the replicate
  // AnyReach override count their queries like every other path, so a
  // grouped batch of distinct queries reports as many as the per-query
  // batch, and an AnyReach batch one per query.
  const GeoSocialNetwork network =
      testing::RandomGeoSocialNetwork(600, 3.0, 0.5, 2024);
  const CondensedNetwork cn(&network);
  const PinWorkload workload = MakePinWorkload(network.num_vertices());
  exec::ThreadPool pool(2);
  exec::BatchRunner runner(&pool);
  for (const SccSpatialMode mode :
       {SccSpatialMode::kReplicate, SccSpatialMode::kMbr}) {
    const ThreeDReachRev method(&cn, ThreeDReachRev::Options{mode});
    for (const QueryKind kind : {QueryKind::kBool, QueryKind::kCount}) {
      exec::BatchOptions batch;
      batch.kind = kind;
      (void)runner.Run(method, workload.shared, batch);
      const uint64_t served = method.counters().queries;
      ASSERT_EQ(served, workload.shared.size());
      exec::SchedulerOptions shared;
      shared.kind = kind;
      shared.min_window_to_group = 0;
      (void)runner.RunShared(method, workload.shared, shared);
      EXPECT_EQ(method.counters().queries - served, served)
          << method.name() << " kind " << static_cast<int>(kind);
      method.ResetCounters();
    }
  }
  const ThreeDReachRev method(&cn);
  (void)runner.RunAny(method, workload.any);
  EXPECT_EQ(method.counters().queries, workload.any.size());
}

}  // namespace
}  // namespace gsr
