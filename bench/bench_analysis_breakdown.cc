// Cost-breakdown analysis (beyond the paper's figures, quantifying the
// Section 6.4 narrative): for each dataset and region extent, report the
// per-query work drivers of every method — SRange candidates and GReach
// probes for SpaReach-BFL, SPA-graph vertices visited for GeoReach,
// materialized descendants for SocReach, and 3-D range queries issued for
// 3DReach. These counters explain *why* the timing curves of Figure 7
// bend the way they do.

#include <string>

#include "bench/bench_support.h"
#include "common/table_printer.h"
#include "core/geo_reach.h"
#include "core/soc_reach.h"
#include "core/spa_reach.h"
#include "core/three_d_reach.h"
#include "datagen/workload.h"

int main(int argc, char** argv) {
  using namespace gsr;        // NOLINT
  using namespace gsr::bench;  // NOLINT

  const BenchOptions options = BenchOptions::Parse(argc, argv);
  const auto bundles = LoadDatasets(options);

  for (const DatasetBundle& bundle : bundles) {
    const CondensedNetwork* cn = bundle.cn.get();
    const SpaReachBfl spa(cn);
    const GeoReachMethod geo(cn);
    const SocReach soc(cn);
    const ThreeDReach threed(cn);

    TablePrinter table(
        "Per-query cost drivers / " + bundle.name() + " (degree 50-99)",
        {"extent %", "SpaReach candidates", "SpaReach GReach calls",
         "GeoReach visits", "GeoReach pruned", "SocReach |D(v)|",
         "SocReach tests", "3DReach 3D queries"});

    const std::unique_ptr<QueryScratch> spa_scratch = spa.NewScratch();
    const std::unique_ptr<QueryScratch> geo_scratch = geo.NewScratch();
    const std::unique_ptr<QueryScratch> soc_scratch = soc.NewScratch();
    const std::unique_ptr<QueryScratch> threed_scratch = threed.NewScratch();

    WorkloadGenerator workload(bundle.network.get(), 20250706);
    for (const double extent : PaperExtents()) {
      QuerySpec spec;
      spec.count = options.queries;
      spec.extent_percent = extent;
      const auto queries = workload.Generate(spec);

      spa.ResetCounters();
      geo.ResetCounters();
      soc.ResetCounters();
      threed.ResetCounters();
      for (const auto& [vertex, region] : queries) {
        spa.Evaluate(vertex, region, *spa_scratch);
        geo.Evaluate(vertex, region, *geo_scratch);
        soc.Evaluate(vertex, region, *soc_scratch);
        threed.Evaluate(vertex, region, *threed_scratch);
      }
      spa.DrainScratchCounters(*spa_scratch);
      geo.DrainScratchCounters(*geo_scratch);
      soc.DrainScratchCounters(*soc_scratch);
      threed.DrainScratchCounters(*threed_scratch);

      const double q = static_cast<double>(queries.size());
      auto avg = [q](uint64_t total) {
        return TablePrinter::FormatNumber(static_cast<double>(total) / q);
      };
      table.AddRow({
          TablePrinter::FormatNumber(extent, 2),
          avg(spa.counters().candidates),
          avg(spa.counters().greach_calls),
          avg(geo.counters().vertices_visited),
          avg(geo.counters().pruned),
          avg(soc.counters().descendants),
          avg(soc.counters().containment_tests),
          avg(threed.counters().range_queries),
      });
    }
    table.Print();
    if (EnsureDir(options.out_dir)) {
      (void)table.WriteCsv(options.out_dir + "/analysis_breakdown_" +
                           bundle.name() + ".csv");
    }
  }
  return 0;
}
