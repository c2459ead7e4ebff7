#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

// Reads a "Key:   <n> kB" line of /proc/self/status, in MiB.
double ProcStatusMb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double CurrentRssMb() { return ProcStatusMb("VmRSS"); }
double PeakRssMb() { return ProcStatusMb("VmHWM"); }

int32_t Tracer::Begin(const char* name, uint64_t request, int32_t parent) {
  if (!enabled()) return kNoSpan;
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, now, now, parent, request});
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::End(int32_t span) {
  if (span == kNoSpan) return;
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(span)].end = now;
}

int32_t Tracer::Record(const char* name, Clock::time_point start,
                       Clock::time_point end, uint64_t request,
                       int32_t parent) {
  if (!enabled()) return kNoSpan;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start, end, parent, request});
  return static_cast<int32_t>(spans_.size() - 1);
}

size_t Tracer::num_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, std::vector<double>> Tracer::SelfTimesMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent != kNoSpan) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start,
                                                              span.end);
    }
  }
  std::map<std::string, std::vector<double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // Union of the children's intervals clipped to the parent's.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    Clock::time_point cursor = span.start;
    for (const auto& [start, end] : kids) {
      const Clock::time_point lo = std::max(start, cursor);
      const Clock::time_point hi = std::min(end, span.end);
      if (hi > lo) {
        covered += MillisBetween(lo, hi);
        cursor = hi;
      }
    }
    out[span.name].push_back(MillisBetween(span.start, span.end) - covered);
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                 "\"end_us\":%.3f,\"parent\":%d,\"request\":%llu}\n",
                 i, span.name, MillisBetween(origin_, span.start) * 1e3,
                 MillisBetween(origin_, span.end) * 1e3, span.parent,
                 static_cast<unsigned long long>(span.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
