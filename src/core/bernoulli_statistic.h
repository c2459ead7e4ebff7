// The Bernoulli (binary-outcome) scan statistic behind the pluggable
// ScanStatistic interface — the paper's spatial-fairness likelihood-ratio
// test (§3), re-seated from the original hardwired scan/engine path with its
// arithmetic and RNG streams preserved bit-for-bit:
//
//   observed scan    per-region Λ through the shared k·log k table, by the
//                    same per-region code the null worlds run (the exact-tie
//                    contract of the rank p-value);
//   null worlds      closed-form per-cell Binomial(n_c, ρ) draws for
//                    cell-decomposable families, pooled label worlds +
//                    CountPositivesBatch otherwise, per-world RNG substreams
//                    Rng::Split(w) from options.seed (core/mc_engine.h's
//                    three cost levers, unchanged);
//   identity         "bernoulli dir=<direction> P=<positives>" — the view's
//                    positive count and the scan direction are part of the
//                    calibration identity; N and the family live in the
//                    calibration key proper.
//
// The golden-figure, determinism, and stat calibration suites pin this
// path's exact outputs across the refactor.
#ifndef SFA_CORE_BERNOULLI_STATISTIC_H_
#define SFA_CORE_BERNOULLI_STATISTIC_H_

#include <cstdint>
#include <memory>
#include <string>

#include "core/scan_statistic.h"

namespace sfa::core {

class BernoulliScanStatistic : public ScanStatistic {
 public:
  /// Statistic for a view with `total_n` individuals of which `total_p` are
  /// positive; the Bernoulli null rate is ρ = P/N.
  BernoulliScanStatistic(stats::ScanDirection direction, uint64_t total_n,
                         uint64_t total_p);

  /// Ablation variant with an explicit null rate decoupled from P/N (e.g.
  /// simulating at a hypothesized ρ). Not used by the audit/pipeline path,
  /// and `rho` is NOT part of Fingerprint() — do not key calibrations built
  /// this way unless rho == P/N.
  BernoulliScanStatistic(stats::ScanDirection direction, uint64_t total_n,
                         uint64_t total_p, double rho);

  StatisticKind kind() const override { return StatisticKind::kBernoulli; }
  std::string Name() const override;
  std::string Fingerprint() const override;
  uint64_t total_n() const override { return total_n_; }
  uint64_t total_p() const { return total_p_; }
  double rho() const { return rho_; }
  stats::ScanDirection direction() const { return direction_; }

  Status ValidateOutcomes(const uint8_t* outcomes, size_t n) const override;
  Status ValidateForFamily(const RegionFamily& family) const override;
  ScanResult ScanObserved(const RegionFamily& family, const uint8_t* outcomes,
                          size_t n, AuditScratch* scratch) const override;
  std::unique_ptr<StatisticSimulation> MakeSimulation(
      const RegionFamily& family,
      const MonteCarloOptions& options) const override;
  void FillFinding(const RegionFamily& family, const ScanResult& observed,
                   size_t region, RegionFinding* finding) const override;

 private:
  stats::ScanDirection direction_;
  uint64_t total_n_ = 0;
  uint64_t total_p_ = 0;
  double rho_ = 0.0;
};

}  // namespace sfa::core

#endif  // SFA_CORE_BERNOULLI_STATISTIC_H_
