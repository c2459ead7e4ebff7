// In-memory span recorder and small measurement helpers for the benchmark
// binary.
//
// A span is one call the benchmark makes into a library layer: its name,
// start and end on the steady clock, the span that caused it, and the
// request it belongs to. Spans stay in memory while the workload runs and
// are written out as JSON lines when it ends. A layer's self time is its
// span's duration minus the part of that interval its child spans cover.
//
// A disabled Tracer records nothing: Begin returns kNoSpan and End ignores
// it, so untraced runs pay one branch per call site.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two steady-clock instants.
inline double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Resident and peak resident set size of this process, in MiB.
double CurrentRssMb();
double PeakRssMb();

class Tracer {
 public:
  static constexpr int32_t kNoSpan = -1;

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Opens a span now; returns its id, or kNoSpan when disabled.
  int32_t Begin(const char* name, uint64_t request = 0,
                int32_t parent = kNoSpan);
  void End(int32_t span);
  /// Records a span whose interval was measured elsewhere (for example a
  /// stage duration reported on a pipeline response).
  int32_t Record(const char* name, Clock::time_point start,
                 Clock::time_point end, uint64_t request = 0,
                 int32_t parent = kNoSpan);

  /// Self time in milliseconds of every span, grouped by span name.
  std::map<std::string, std::vector<double>> SelfTimesMs() const;
  size_t num_spans() const;

  /// Writes one JSON object per span. Returns false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  struct Span {
    const char* name = "";
    Clock::time_point start;
    Clock::time_point end;
    int32_t parent = kNoSpan;
    uint64_t request = 0;
  };

  std::atomic<bool> enabled_;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t request = 0,
             int32_t parent = Tracer::kNoSpan)
      : tracer_(tracer), id_(tracer.Begin(name, request, parent)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  int32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
