// The benchmark's workloads. Each builds its inputs from the workload seed,
// times its calls into the library, checks every output against a reference
// computed at set-up, and reports named metrics. perfbench/README.md records
// why each workload, rate and percentile was chosen.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "trace.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Scratch directory for calibration stores; must exist.
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  uint64_t attempted = 0;
  /// Failed, rejected and deadline-missed requests.
  uint64_t failed = 0;
  /// Output mismatches and invalid-run reasons; empty when correct.
  std::vector<std::string> problems;
  std::vector<Metric> metrics;
  /// Configuration metadata as (key, JSON value) pairs.
  std::vector<std::pair<std::string, std::string>> meta;
};

/// Runs one workload; spans of a traced run land in `tracer`.
sfa::Result<RunReport> RunWorkload(const RunConfig& config, Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
