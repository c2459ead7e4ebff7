// The top-level audit API — the paper's framework end to end:
//
//   1. build the outcome stream for the chosen fairness measure;
//   2. scan the region family for the observed max statistic τ = Λ(R*);
//   3. calibrate by Monte Carlo (W-1 alternate worlds) and compute the
//      p-value of τ;
//   4. verdict: spatially fair iff p > α ("is it fair?");
//   5. evidence: every region whose Λ exceeds the null critical value,
//      ranked by SUL ("where is it unfair?").
//
// Steps 2, 3, and 5 are statistic-generic: the outcome model is a pluggable
// core::ScanStatistic (Bernoulli by default — the paper's binary test;
// multinomial for full class-distribution audits), selected via
// AuditOptions::statistic and built per audit by MakeScanStatistic.
#ifndef SFA_CORE_AUDIT_H_
#define SFA_CORE_AUDIT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/measure.h"
#include "core/region_family.h"
#include "core/scan_statistic.h"
#include "core/significance.h"
#include "data/dataset.h"

namespace sfa::core {

struct AuditOptions {
  /// Significance level α of the likelihood-ratio test (paper uses 0.005).
  double alpha = 0.005;
  FairnessMeasure measure = FairnessMeasure::kStatisticalParity;
  stats::ScanDirection direction = stats::ScanDirection::kTwoSided;
  /// Outcome model of the scan. kBernoulli audits the rate of a binary
  /// outcome (the paper's test); kMultinomial audits the full class
  /// distribution of a categorical outcome (set num_classes).
  StatisticKind statistic = StatisticKind::kBernoulli;
  /// Number of outcome classes for kMultinomial (>= 2); the view's predicted
  /// values must lie in [0, num_classes). Ignored for kBernoulli.
  uint32_t num_classes = 0;
  /// How the p-value of τ is computed from the calibration. kEmpirical is
  /// the paper's rank p-value (resolution capped at 1/(W+1)); kAuto keeps
  /// the rank p-value in-range and falls back to the Gumbel tail fit — when
  /// the KS fit gate passes — only for τ beyond every simulated maximum;
  /// kGumbelTail always prefers the fit. A query-time choice: it does NOT
  /// shape the null draws, so all three methods share calibrations (and
  /// calibration keys). Default stays kEmpirical to preserve historical
  /// p-values byte-for-byte.
  SignificanceMethod significance = SignificanceMethod::kEmpirical;
  MonteCarloOptions monte_carlo;
};

struct AuditResult {
  /// The verdict: true when the null (spatial fairness) is *not* rejected.
  bool spatially_fair = true;
  double p_value = 1.0;
  /// Which method produced p_value: kEmpirical (rank), or kGumbelTail when
  /// the tail fit was used (never kAuto — auto resolves to one of the two).
  SignificanceMethod p_value_method = SignificanceMethod::kEmpirical;
  /// Tail-fit health when a fit was attempted (kGumbelTail / out-of-range
  /// kAuto): KS distance of the fitted CDF vs the empirical maxima, and
  /// whether it passed the gate. tail_ks stays 1.0 when never attempted.
  bool tail_fit_ok = false;
  double tail_ks = 1.0;
  double tau = 0.0;              ///< observed max Λ
  size_t best_region = 0;        ///< R*
  double critical_value = 0.0;   ///< per-region significance threshold at α
  /// False when the empirical threshold is unresolvable at this world budget
  /// (floor(alpha*(W+1)) == 0, critical_value then +inf or advisory).
  bool critical_value_resolvable = false;
  /// True when critical_value is the Gumbel-quantile ADVISORY threshold used
  /// in place of an unresolvable empirical one (non-kEmpirical methods only).
  bool critical_value_advisory = false;
  double alpha = 0.0;
  uint64_t total_n = 0;          ///< N in the measure view
  uint64_t total_p = 0;          ///< P in the measure view (Bernoulli; 0 else)
  double overall_rate = 0.0;     ///< ρ (Bernoulli; 0 for multinomial)
  /// The outcome model that produced this result.
  StatisticKind statistic = StatisticKind::kBernoulli;
  /// Global empirical class proportions (multinomial; empty for Bernoulli).
  std::vector<double> class_distribution;
  /// Significant regions ranked by Λ (equivalently SUL) descending.
  std::vector<RegionFinding> findings;
  /// Full per-region scan of the observed world (parallel to family regions).
  ScanResult observed;
  NullDistribution null_distribution;

  /// Findings count (convenience).
  size_t num_significant() const { return findings.size(); }
};

/// True iff two results carry the SAME statistical payload, bit-for-bit:
/// verdict, p-value, τ, thresholds, totals, the full observed per-region
/// scan, the null distribution, and every field of every finding (exact
/// double equality throughout — no tolerance). This is the authoritative
/// field list of the pipeline determinism contract; the determinism test
/// suites and the restart-replay example both delegate to it so the list
/// cannot silently fork when AuditResult grows a field.
bool ResultsBitIdentical(const AuditResult& a, const AuditResult& b);

/// Builds the scan statistic `options` select, bound to the totals of
/// `view`: a BernoulliScanStatistic over (N, P, direction), or a
/// MultinomialScanStatistic over the view's per-class totals. Fails when the
/// view's outcomes don't fit the statistic (non-binary values for Bernoulli,
/// class ids outside [0, num_classes) or num_classes < 2 for multinomial).
Result<std::shared_ptr<const ScanStatistic>> MakeScanStatistic(
    const AuditOptions& options, const data::OutcomeDataset& view);

class Auditor {
 public:
  explicit Auditor(AuditOptions options) : options_(std::move(options)) {}

  const AuditOptions& options() const { return options_; }

  /// Runs the full audit of `dataset` against `family`. The family must be
  /// bound to the locations of the *measure view* of the dataset (see
  /// BuildMeasureView); Audit checks the sizes match.
  Result<AuditResult> Audit(const data::OutcomeDataset& dataset,
                            const RegionFamily& family) const;

  /// Audits a pre-built measure view (locations + outcomes).
  Result<AuditResult> AuditView(const data::OutcomeDataset& view,
                                const RegionFamily& family) const;

  /// Pipeline entry point: AuditView with an optionally injected statistic
  /// and null calibration plus pooled scratch. When `statistic` is non-null
  /// it is used instead of MakeScanStatistic (the caller vouches it was
  /// built for this view's totals and these options). When `calibration` is
  /// non-null it is used verbatim instead of running SimulateNull — the
  /// caller (e.g. core::CalibrationCache) vouches that it was simulated for
  /// this family, this statistic, and these Monte Carlo options, so a cache
  /// hit yields a byte-identical AuditResult to a fresh simulation.
  /// `scratch` (optional) recycles observed-world buffers across calls; it
  /// must not be shared between concurrent calls.
  Result<AuditResult> AuditView(const data::OutcomeDataset& view,
                                const RegionFamily& family,
                                const ScanStatistic* statistic,
                                const NullDistribution* calibration,
                                AuditScratch* scratch) const;

  /// Back-compat overload without statistic injection.
  Result<AuditResult> AuditView(const data::OutcomeDataset& view,
                                const RegionFamily& family,
                                const NullDistribution* calibration,
                                AuditScratch* scratch) const;

 private:
  AuditOptions options_;
};

}  // namespace sfa::core

#endif  // SFA_CORE_AUDIT_H_
