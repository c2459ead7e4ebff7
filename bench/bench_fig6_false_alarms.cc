// Figure 6 (Appendix A) — why raw extremes are not evidence.
//
// Worlds of 1,000 outcomes at rho = 0.5 over a fixed irregular location
// cloud: in virtually every such fair world one can find a small region with
// at least five negative and no positive outcomes. The harness measures that
// frequency empirically and contrasts it with the audit's false-alarm rate
// on the same worlds.
#include <cstdio>

#include "bench_util.h"
#include "common/random.h"
#include "core/bernoulli_statistic.h"
#include "core/square_family.h"

namespace sfa {
namespace {

constexpr size_t kOutcomes = 1000;
constexpr double kRho = 0.5;

std::vector<geo::Point> IrregularCloud(uint64_t seed) {
  Rng rng(seed);
  std::vector<geo::Point> pts;
  pts.reserve(kOutcomes);
  // A few dense clusters plus scatter, like the paper's Figure 6 panels.
  for (int c = 0; c < 6; ++c) {
    const geo::Point center{rng.Uniform(1, 9), rng.Uniform(1, 9)};
    for (int i = 0; i < 130; ++i) {
      pts.push_back({rng.Normal(center.x, 0.35), rng.Normal(center.y, 0.35)});
    }
  }
  while (pts.size() < kOutcomes) {
    pts.push_back({rng.Uniform(0, 10), rng.Uniform(0, 10)});
  }
  return pts;
}

}  // namespace

int Main() {
  bench::PrintHeader("Figure 6", "Fair worlds almost always contain a >=5-negative cluster");
  Stopwatch timer;

  const std::vector<geo::Point> pts = IrregularCloud(606);
  // Candidate small regions: squares of sides 0.5/1.0/1.5 at every point of
  // a coarse lattice over the cloud (a generous stand-in for "a blue circle
  // someone could draw").
  core::SquareScanOptions scan;
  for (double x = 0.25; x < 10.0; x += 0.5) {
    for (double y = 0.25; y < 10.0; y += 0.5) {
      scan.centers.push_back({x, y});
    }
  }
  scan.side_lengths = {0.5, 1.0, 1.5};
  auto family = core::SquareScanFamily::Create(pts, scan);
  SFA_CHECK_OK(family.status());

  // Null calibration once (shared across the audit trials below).
  core::MonteCarloOptions mc;
  mc.num_worlds = bench::NumWorlds();
  const core::BernoulliScanStatistic null_statistic(
      stats::ScanDirection::kTwoSided, kOutcomes, kOutcomes / 2);
  auto null_dist = core::SimulateNull(null_statistic, **family, mc);
  SFA_CHECK_OK(null_dist.status());
  const double critical = null_dist->CriticalValue(bench::kAlpha);

  Rng rng(707);
  const int worlds = bench::QuickMode() ? 100 : 400;
  int with_cluster = 0;
  int audit_rejections = 0;
  core::AuditScratch scratch;
  for (int w = 0; w < worlds; ++w) {
    const core::Labels labels = core::Labels::SampleBernoulli(kOutcomes, kRho, &rng);
    const core::BernoulliScanStatistic statistic(
        stats::ScanDirection::kTwoSided, kOutcomes, labels.positive_count());
    const core::ScanResult scan = statistic.ScanObserved(
        **family, labels.bytes().data(), kOutcomes, &scratch);
    // (1) Does a >=5-negative, 0-positive region exist?
    bool found = false;
    for (size_t r = 0; r < (*family)->num_regions() && !found; ++r) {
      const uint64_t n = (*family)->PointCount(r);
      found = n >= 5 && scan.positives[r] == 0;
    }
    with_cluster += found;
    // (2) Does the audit (correctly) decline to call the world unfair?
    if (null_dist->PValue(scan.max_llr) <= bench::kAlpha) ++audit_rejections;
  }

  std::printf("\n");
  bench::PaperVsMeasured(
      "fair worlds containing a >=5-negative cluster", "easy to find in all",
      StrFormat("%.1f%% of %d worlds", 100.0 * with_cluster / worlds, worlds));
  bench::PaperVsMeasured(
      "audit false-alarm rate at alpha=0.005", "~0.5%",
      StrFormat("%.2f%% of %d worlds", 100.0 * audit_rejections / worlds, worlds));
  bench::PaperVsMeasured("critical LLR used", "-",
                         StrFormat("%.2f", critical));
  std::printf(
      "\n  Takeaway: extreme-looking small clusters arise by chance in fair\n"
      "  data (left column), so flagging them is not evidence; the\n"
      "  likelihood-ratio audit ignores them (right column).\n");
  std::printf("\n[done in %s]\n", timer.ElapsedString().c_str());
  return 0;
}

}  // namespace sfa

int main() { return sfa::Main(); }
