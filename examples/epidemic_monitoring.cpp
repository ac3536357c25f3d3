// Infectious-disease monitoring (the paper's third motivating
// application): given index cases in a contact network whose members
// check in at physical venues, determine which monitored districts each
// case can seed through chains of human interaction. One RangeReach query
// per (case, district); 3DReach-REV shines here because every query is a
// single 3-D plane probe regardless of the answer.
//
// Run:  ./build/examples/epidemic_monitoring

#include <cstdio>
#include <memory>
#include <vector>

#include "common/stopwatch.h"
#include "core/condensed_network.h"
#include "core/soc_reach.h"
#include "core/three_d_reach.h"
#include "datagen/generator.h"

int main() {
  using namespace gsr;  // NOLINT

  GeneratorConfig config;
  config.name = "contact-net";
  config.num_users = 20000;
  config.num_venues = 8000;
  config.num_friendships = 100000;  // Contact edges.
  config.num_checkins = 80000;      // Venue visits.
  config.core_fraction = 0.3;       // Sparse contact tracing graph.
  config.space_extent = 200.0;
  config.seed = 11;
  const GeoSocialNetwork network = GenerateGeoSocialNetwork(config);
  const CondensedNetwork cn(&network);
  const ThreeDReachRev index(&cn);
  const SocReach soc(&cn);

  // Health authority watches these districts.
  const std::vector<Rect> districts = {
      Rect(0, 0, 40, 40),      Rect(80, 80, 120, 120),
      Rect(160, 0, 200, 40),   Rect(0, 160, 40, 200),
      Rect(150, 150, 200, 200),
  };

  // Index cases: one user per thousand.
  std::vector<VertexId> cases;
  for (VertexId v = 0; v < config.num_users; v += 1000) cases.push_back(v);

  std::printf("monitoring %zu districts for %zu index cases\n",
              districts.size(), cases.size());

  // One scratch per method: every query runs on caller-owned state, so
  // these loops could be split across threads with one scratch each.
  const std::unique_ptr<QueryScratch> rev_scratch = index.NewScratch();
  const std::unique_ptr<QueryScratch> soc_scratch = soc.NewScratch();

  uint64_t exposed_pairs = 0;
  Stopwatch watch;
  for (const VertexId patient : cases) {
    std::printf("case %5u can seed districts:", patient);
    bool any = false;
    for (size_t d = 0; d < districts.size(); ++d) {
      if (index.Evaluate(patient, districts[d], *rev_scratch)) {
        std::printf(" %zu", d);
        any = true;
        ++exposed_pairs;
      }
    }
    std::printf("%s\n", any ? "" : " none");
  }
  const double total_micros = watch.ElapsedMicros();
  const double queries =
      static_cast<double>(cases.size() * districts.size());
  std::printf("\n%llu exposed (case, district) pairs; "
              "%.2f us per query with 3DReach-REV\n",
              static_cast<unsigned long long>(exposed_pairs),
              total_micros / queries);

  // Cross-check against SocReach (descendant enumeration + point tests).
  for (const VertexId patient : cases) {
    for (const Rect& district : districts) {
      if (index.Evaluate(patient, district, *rev_scratch) !=
          soc.Evaluate(patient, district, *soc_scratch)) {
        std::fprintf(stderr, "methods disagree - bug!\n");
        return 1;
      }
    }
  }
  std::printf("3DReach-REV agrees with SocReach on all %0.f queries.\n",
              queries);
  return 0;
}
