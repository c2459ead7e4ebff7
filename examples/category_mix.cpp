// Multi-class spatial audit: beyond binary outcomes.
//
// Scenario: a delivery platform routes orders to three service tiers
// (standard / express / premium). Tier assignment should not depend on where
// the customer lives. A multinomial audit (AuditOptions::statistic =
// kMultinomial — the generalization the paper's binary test derives from)
// checks whether the full tier DISTRIBUTION is independent of location over
// a grid of neighborhoods, and points at the cells where the mix deviates.
//
// Exits 0 only when the audit rejects fairness AND its top finding overlaps
// the planted district.
#include <algorithm>
#include <cstdio>

#include "common/macros.h"
#include "common/random.h"
#include "core/audit.h"
#include "core/grid_family.h"
#include "data/dataset.h"

int main() {
  sfa::Rng rng(2718);
  // The audited view: each customer's location and tier
  // (0 = standard, 1 = express, 2 = premium).
  sfa::data::OutcomeDataset orders("orders");
  const std::vector<double> global_mix = {0.6, 0.3, 0.1};

  // A planted district where premium service is quietly withheld: its orders
  // are mostly standard regardless of the global mix.
  const sfa::geo::Rect underserved(1.0, 6.0, 4.0, 9.0);
  const std::vector<double> underserved_mix = {0.85, 0.13, 0.02};
  for (int i = 0; i < 30000; ++i) {
    // Customers cluster around a city center with suburban scatter.
    sfa::geo::Point home;
    if (rng.Bernoulli(0.6)) {
      home = {rng.Normal(5.0, 1.2), rng.Normal(5.0, 1.2)};
    } else {
      home = {rng.Uniform(0, 10), rng.Uniform(0, 10)};
    }
    const auto& mix =
        underserved.Contains(home) ? underserved_mix : global_mix;
    orders.Add(home, static_cast<uint8_t>(rng.Categorical(mix)));
  }

  auto grid = sfa::core::GridPartitionFamily::Create(orders.locations(), 12, 12);
  SFA_CHECK_OK(grid.status());
  sfa::core::AuditOptions options;
  options.alpha = 0.005;
  options.statistic = sfa::core::StatisticKind::kMultinomial;
  options.num_classes = 3;
  options.monte_carlo.num_worlds = 499;
  auto result = sfa::core::Auditor(options).AuditView(orders, **grid);
  SFA_CHECK_OK(result.status());

  std::printf("global tier mix: standard %.2f, express %.2f, premium %.2f\n",
              result->class_distribution[0], result->class_distribution[1],
              result->class_distribution[2]);
  std::printf("verdict: %s (p = %.4f, tau = %.2f, critical = %.2f)\n",
              result->spatially_fair ? "FAIR" : "UNFAIR", result->p_value,
              result->tau, result->critical_value);
  std::printf("significant cells: %zu\n", result->findings.size());
  for (size_t i = 0; i < std::min<size_t>(5, result->findings.size()); ++i) {
    const auto& f = result->findings[i];
    std::printf(
        "  #%zu %s n=%llu mix=(%.2f, %.2f, %.2f) LLR=%.2f\n", i + 1,
        f.rect.ToString().c_str(), static_cast<unsigned long long>(f.n),
        static_cast<double>(f.class_counts[0]) / static_cast<double>(f.n),
        static_cast<double>(f.class_counts[1]) / static_cast<double>(f.n),
        static_cast<double>(f.class_counts[2]) / static_cast<double>(f.n),
        f.llr);
  }
  const bool recovered = !result->findings.empty() &&
                         result->findings[0].rect.Intersects(underserved);
  std::printf("\nPlanted underserved district was %s — %s\n",
              underserved.ToString().c_str(),
              recovered ? "recovered by the top finding"
                        : "NOT the top finding (unexpected)");
  return !result->spatially_fair && recovered ? 0 : 1;
}
