// Benchmark binary: runs one workload and prints, as the last line of
// standard output, one JSON object with the keys correct, attempted, failed
// and metrics. The line before it is a JSON object of host and
// configuration metadata.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> [--trace-out <file>]
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, and the spans are written to --trace-out.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "spatial/simd_popcount.h"
#include "trace.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir> "
               "[--trace-out <file>]\n",
               message);
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string trace_out;
  bool have_workload = false, have_seed = false, have_work_dir = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("--seed must be a whole number");
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(config.seconds > 0.0) || config.seconds > 600.0) {
        return Usage("--seconds must be in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace must be 0 or 1");
      }
      config.trace = value[0] == '1';
    } else if (flag == "--work-dir") {
      config.work_dir = value;
      have_work_dir = true;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("every flag takes one value");
  if (!have_workload || !have_seed || !have_work_dir) {
    return Usage("--workload, --seed and --work-dir are required");
  }

  Tracer tracer(config.trace);
  auto report = RunWorkload(config, tracer);
  if (!report.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", report.status().ToString().c_str());
    return 1;
  }
  if (config.trace && !trace_out.empty() && !tracer.WriteJsonLines(trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
    return 1;
  }

  std::string meta = "{\"meta\": {";
  meta += "\"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  meta += ", \"cpu_model\": " + JsonString(CpuModel());
  meta += ", \"popcount_kernel\": " +
          JsonString(sfa::spatial::PopcountKernelName(
              sfa::spatial::ActivePopcountKernel()));
  meta += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  meta += ", \"seed\": " + std::to_string(config.seed);
  meta += ", \"seconds\": " + std::to_string(config.seconds);
  meta += ", \"trace\": " + std::string(config.trace ? "1" : "0");
  for (const auto& [key, json] : report->meta) {
    meta += ", " + JsonString(key) + ": " + json;
  }
  if (config.trace) {
    meta += ", \"spans\": " + std::to_string(tracer.num_spans());
  }
  meta += "}}";
  for (const std::string& problem : report->problems) {
    std::fprintf(stderr, "perfbench: %s\n", problem.c_str());
  }

  std::string metrics;
  for (const Metric& m : report->metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   m.name.c_str());
      return 1;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(m.name) + ": {\"value\": " + value +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  std::printf("%s\n", meta.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report->problems.empty() ? "true" : "false",
      static_cast<unsigned long long>(report->attempted),
      static_cast<unsigned long long>(report->failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
