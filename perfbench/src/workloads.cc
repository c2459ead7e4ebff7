#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "common/macros.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/audit.h"
#include "core/audit_pipeline.h"
#include "core/calibration_cache.h"
#include "core/calibration_store.h"
#include "core/grid_family.h"
#include "core/labels.h"
#include "core/measure.h"
#include "core/scan_statistic.h"
#include "core/square_family.h"
#include "data/lar_sim.h"
#include "stats/kmeans.h"

namespace perfbench {
namespace {

namespace core = sfa::core;
namespace data = sfa::data;
using sfa::Result;
using sfa::Status;
using sfa::StrFormat;

// The direction enum is named through AuditOptions so the benchmark does not
// depend on the header that defines it.
using Direction = decltype(core::AuditOptions{}.direction);
constexpr Direction kDirections[] = {Direction::kTwoSided, Direction::kHigh,
                                     Direction::kLow};
constexpr size_t kNumDirections = std::size(kDirections);
constexpr double kAlphas[] = {0.001, 0.005, 0.01, 0.05};
constexpr size_t kNumAlphas = std::size(kAlphas);

// Set-up is repeated and setup_s reports the median, so one slow repetition
// does not move it.
constexpr int kSetupRepeats = 3;

// The data set is the LAR-scale default of data::MakeLarSim (N = 206,418),
// fixed for every seed so that the work per request does not vary with it;
// the workload seed drives Monte Carlo seeds and traffic. The paper's Fig. 5
// geometry: 100 k-means centres x 20 sides; Fig. 3: a 100 x 50 grid.
// Squares audits use W = 199 (README: keeps the per-world layer mix of
// W = 999 while fitting >= 100 cold audits in a run); the grid uses the
// library default W.
constexpr uint32_t kKMeansCenters = 100;
constexpr uint64_t kKMeansSeed = 7;
constexpr uint32_t kGridX = 100;
constexpr uint32_t kGridY = 50;
constexpr uint32_t kSquaresWorlds = 199;
const uint32_t kGridWorlds = core::MonteCarloOptions{}.num_worlds;

// Streams: MC seeds per direction in the stored key set, Poisson rates kept
// at or below a quarter of measured capacity, one minted key per kMissEvery
// requests on mixed_stream, and the closed-loop phase's concurrency.
constexpr size_t kKeySeeds = 3;
constexpr double kWarmRateRps = 150.0;
constexpr double kMixedRateRps = 100.0;
constexpr uint32_t kMissEvery = 20;
constexpr double kOpenLoopShare = 0.6;
constexpr size_t kClosedLoopOutstanding = 4;
constexpr size_t kQueueCapacity = 4096;
const size_t kStreamWorkers = core::StreamOptions{}.num_workers;
// A run whose open-loop generator was this late at p99 measured the
// generator, not the service: it is marked invalid.
constexpr double kMaxGeneratorLagMs = 50.0;
// cold_audit audits re-run with parallel = false after the timed loop.
constexpr size_t kColdRechecks = 3;

// Independent seed streams derived from the workload seed.
enum SeedStream : uint64_t {
  kSeedWarmup = 1,
  kSeedCold,
  kSeedKeys,
  kSeedTraffic,
  kSeedMint,
  kSeedRecheck,
};

uint64_t Derive(uint64_t seed, uint64_t stream, uint64_t index = 0) {
  uint64_t h = sfa::SplitMix64(seed).Next();
  h = sfa::SplitMix64(h ^ (stream * 0x9E3779B97F4A7C15ULL)).Next();
  return sfa::SplitMix64(h ^ (index * 0xD1B54A32D192ED03ULL)).Next();
}

enum class FamilyKind { kSquares, kGrid };

struct Workload {
  const char* name;
  FamilyKind family;
  uint32_t worlds;
  bool stream;
  double rate_rps;      // open-loop phase (streams)
  uint32_t miss_every;  // 0 = every key is pre-computed
  // Quantile reported as latency_ms.tail (README: sample counts behind it).
  double tail_quantile;
};

const Workload kWorkloads[] = {
    {"cold_audit", FamilyKind::kSquares, kSquaresWorlds, false, 0.0, 0, 0.90},
    {"warm_stream", FamilyKind::kSquares, kSquaresWorlds, true, kWarmRateRps,
     0, 0.98},
    {"mixed_stream", FamilyKind::kGrid, kGridWorlds, true, kMixedRateRps,
     kMissEvery, 0.98},
};

core::AuditOptions MakeOptions(const Workload& wl, Direction direction,
                               double alpha, uint64_t mc_seed) {
  core::AuditOptions options;
  options.direction = direction;
  options.alpha = alpha;
  options.monte_carlo.num_worlds = wl.worlds;
  options.monte_carlo.seed = mc_seed;
  return options;
}

// One stored calibration key of the stream workloads.
struct StreamKey {
  uint64_t mc_seed = 0;
  size_t direction = 0;  // index into kDirections
};

// Everything set-up builds: generated data, the region family, reference
// outputs and (streams) a populated calibration store.
struct Fixture {
  data::OutcomeDataset dataset;
  data::OutcomeDataset view;
  std::unique_ptr<core::RegionFamily> family;
  std::string backend;
  double tau_ref[kNumDirections] = {};
  size_t regions = 0;
  core::NullDistribution warmup_calibration;
  // Observed-world buffers, reused by every audit the benchmark makes itself.
  core::AuditScratch scratch;
  std::vector<StreamKey> keys;
  std::vector<core::AuditResult> references;  // [key * kNumAlphas + alpha]
  std::string store_dir;
  double family_build_ms = 0.0;
  double family_rss_mb = 0.0;
  double setup_s = 0.0;
};

Result<std::unique_ptr<core::RegionFamily>> BuildFamily(
    const Workload& wl, const data::OutcomeDataset& dataset,
    std::string* backend, Tracer& tracer, int32_t parent) {
  if (wl.family == FamilyKind::kGrid) {
    ScopedSpan span(tracer, "setup.family_build", 0, parent);
    SFA_ASSIGN_OR_RETURN(auto grid, core::GridPartitionFamily::Create(
                                        dataset.locations(), kGridX, kGridY));
    *backend = "closed_form_cells";
    return std::unique_ptr<core::RegionFamily>(std::move(grid));
  }
  sfa::stats::KMeansOptions km;
  km.k = kKMeansCenters;
  km.max_iterations = 30;
  km.seed = kKMeansSeed;
  std::vector<sfa::geo::Point> centers;
  {
    ScopedSpan span(tracer, "setup.kmeans", 0, parent);
    SFA_ASSIGN_OR_RETURN(auto clusters,
                         sfa::stats::KMeans(dataset.locations(), km));
    centers = std::move(clusters.centers);
  }
  ScopedSpan span(tracer, "setup.family_build", 0, parent);
  core::SquareScanOptions scan;
  scan.centers = std::move(centers);
  scan.side_lengths = core::SquareScanOptions::DefaultSideLengths();
  SFA_ASSIGN_OR_RETURN(auto squares, core::SquareScanFamily::Create(
                                         dataset.locations(), scan));
  *backend = core::CountingBackendToString(squares->backend());
  return std::unique_ptr<core::RegionFamily>(std::move(squares));
}

// One full set-up. `store_dir` is where a stream workload's calibrations are
// written.
Result<Fixture> BuildFixture(const Workload& wl, const RunConfig& config,
                             const std::string& store_dir, Tracer& tracer) {
  const Clock::time_point start = Clock::now();
  Fixture fx;
  ScopedSpan root(tracer, "setup");
  {
    ScopedSpan span(tracer, "setup.data", 0, root.id());
    SFA_ASSIGN_OR_RETURN(auto sim, data::MakeLarSim(data::LarSimOptions{}));
    fx.dataset = std::move(sim.dataset);
  }
  const double rss_before = CurrentRssMb();
  const Clock::time_point build_start = Clock::now();
  SFA_ASSIGN_OR_RETURN(fx.family, BuildFamily(wl, fx.dataset, &fx.backend,
                                              tracer, root.id()));
  fx.family_build_ms = MillisBetween(build_start, Clock::now());
  fx.family_rss_mb = CurrentRssMb() - rss_before;
  fx.regions = fx.family->num_regions();
  {
    ScopedSpan span(tracer, "audit.view", 0, root.id());
    SFA_ASSIGN_OR_RETURN(
        fx.view,
        core::BuildMeasureView(fx.dataset,
                               core::FairnessMeasure::kStatisticalParity));
  }

  // Reference tau per direction: the observed scan does not depend on the
  // Monte Carlo seed, so every audit of a direction must reproduce it.
  core::AuditScratch& scratch = fx.scratch;
  std::shared_ptr<const core::ScanStatistic> statistics[kNumDirections];
  for (size_t d = 0; d < kNumDirections; ++d) {
    const core::AuditOptions options =
        MakeOptions(wl, kDirections[d], kAlphas[0], 0);
    {
      ScopedSpan span(tracer, "audit.make_statistic", 0, root.id());
      SFA_ASSIGN_OR_RETURN(statistics[d],
                           core::MakeScanStatistic(options, fx.view));
    }
    ScopedSpan span(tracer, "audit.scan_observed", 0, root.id());
    const auto observed = statistics[d]->ScanObserved(
        *fx.family, fx.view.predicted().data(), fx.view.size(), &scratch);
    if (observed.llr.size() != fx.regions) {
      return Status::Internal("observed scan does not cover every region");
    }
    fx.tau_ref[d] = observed.max_llr;
  }

  // Warm-up audit, so that lazy set-up (pool threads, arenas, tables) is
  // not timed.
  {
    const core::AuditOptions options = MakeOptions(
        wl, kDirections[0], kAlphas[1], Derive(config.seed, kSeedWarmup));
    {
      ScopedSpan span(tracer, "engine.simulate", 0, root.id());
      SFA_ASSIGN_OR_RETURN(fx.warmup_calibration,
                           core::SimulateNull(*statistics[0], *fx.family,
                                              options.monte_carlo));
    }
    ScopedSpan span(tracer, "audit.assemble", 0, root.id());
    SFA_RETURN_NOT_OK(core::Auditor(options)
                          .AuditView(fx.view, *fx.family, statistics[0].get(),
                                     &fx.warmup_calibration, &scratch)
                          .status());
  }

  if (wl.stream) {
    fx.store_dir = store_dir;
    core::CalibrationStore::Options store_options;
    store_options.directory = store_dir;
    SFA_ASSIGN_OR_RETURN(auto store,
                         core::CalibrationStore::Open(store_options));
    for (size_t s = 0; s < kKeySeeds; ++s) {
      for (size_t d = 0; d < kNumDirections; ++d) {
        const StreamKey key{Derive(config.seed, kSeedKeys, s), d};
        const core::AuditOptions base =
            MakeOptions(wl, kDirections[d], kAlphas[0], key.mc_seed);
        core::NullDistribution calibration;
        {
          ScopedSpan span(tracer, "engine.simulate", 0, root.id());
          SFA_ASSIGN_OR_RETURN(calibration,
                               core::SimulateNull(*statistics[d], *fx.family,
                                                  base.monte_carlo));
        }
        {
          ScopedSpan span(tracer, "store.write", 0, root.id());
          SFA_RETURN_NOT_OK(store->Store(
              core::MakeCalibrationKey(*fx.family, *statistics[d],
                                       base.monte_carlo),
              calibration));
        }
        for (double alpha : kAlphas) {
          const core::AuditOptions options =
              MakeOptions(wl, kDirections[d], alpha, key.mc_seed);
          ScopedSpan span(tracer, "audit.assemble", 0, root.id());
          SFA_ASSIGN_OR_RETURN(auto reference,
                               core::Auditor(options).AuditView(
                                   fx.view, *fx.family, statistics[d].get(),
                                   &calibration, &scratch));
          fx.references.push_back(std::move(reference));
        }
        fx.keys.push_back(key);
      }
    }
  }
  fx.setup_s = MillisBetween(start, Clock::now()) / 1e3;
  return fx;
}

// ------------------------------------------------------------ cold_audit ---

struct ColdOutcome {
  std::vector<double> latency_ms;
  std::vector<double> gap_ms;  // harness time between audits
  double elapsed_s = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// One closed-loop caller auditing back to back, each audit a fresh
// calibration, until `seconds` have passed.
ColdOutcome RunColdLoop(const Workload& wl, Fixture& fx,
                        uint64_t pass_seed, double seconds, Tracer& tracer,
                        std::vector<std::string>* problems) {
  ColdOutcome out;
  // Audits re-checked with parallel = false once the loop is done.
  std::vector<std::pair<uint64_t, core::AuditResult>> rechecks;
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  Clock::time_point previous_end = start;
  for (uint64_t i = 0; Clock::now() < stop; ++i) {
    const uint64_t mc_seed = Derive(pass_seed, kSeedCold, i);
    const core::AuditOptions options =
        MakeOptions(wl, kDirections[0], kAlphas[1], mc_seed);
    const Clock::time_point t0 = Clock::now();
    out.gap_ms.push_back(MillisBetween(previous_end, t0));
    ++out.attempted;
    Result<core::AuditResult> result = Status::Internal("not run");
    {
      ScopedSpan audit(tracer, "audit", i);
      Result<std::shared_ptr<const core::ScanStatistic>> statistic =
          Status::Internal("not run");
      {
        ScopedSpan span(tracer, "audit.make_statistic", i, audit.id());
        statistic = core::MakeScanStatistic(options, fx.view);
      }
      if (statistic.ok()) {
        Result<core::NullDistribution> calibration =
            Status::Internal("not run");
        {
          ScopedSpan span(tracer, "engine.simulate", i, audit.id());
          calibration = core::SimulateNull(**statistic, *fx.family,
                                            options.monte_carlo);
        }
        if (calibration.ok()) {
          ScopedSpan span(tracer, "audit.assemble", i, audit.id());
          result = core::Auditor(options).AuditView(
              fx.view, *fx.family, statistic->get(), &*calibration,
              &fx.scratch);
        } else {
          result = calibration.status();
        }
      } else {
        result = statistic.status();
      }
    }
    previous_end = Clock::now();
    out.latency_ms.push_back(MillisBetween(t0, previous_end));
    if (!result.ok()) {
      ++out.failed;
      problems->push_back("audit failed: " + result.status().ToString());
      continue;
    }
    if (result->tau != fx.tau_ref[0] ||
        result->observed.llr.size() != fx.regions) {
      problems->push_back(StrFormat("audit %llu: tau %.17g != reference %.17g",
                                    static_cast<unsigned long long>(i),
                                    result->tau, fx.tau_ref[0]));
    }
    if (rechecks.size() < kColdRechecks &&
        (i == 0 || Derive(pass_seed, kSeedRecheck, i) % 16 == 0)) {
      rechecks.emplace_back(mc_seed, std::move(result).value());
    }
  }
  out.elapsed_s = MillisBetween(start, previous_end) / 1e3;

  for (const auto& [mc_seed, parallel_result] : rechecks) {
    core::AuditOptions options =
        MakeOptions(wl, kDirections[0], kAlphas[1], mc_seed);
    options.monte_carlo.parallel = false;
    auto serial = core::Auditor(options).AuditView(fx.view, *fx.family);
    if (!serial.ok() ||
        !core::ResultsBitIdentical(*serial, parallel_result)) {
      problems->push_back(
          StrFormat("audit with MC seed %llu differs from its parallel=false "
                    "re-run",
                    static_cast<unsigned long long>(mc_seed)));
    }
  }
  return out;
}

// ------------------------------------------------------------- streams ---

struct Sample {
  Clock::time_point due;
  Clock::time_point done;
  double assemble_ms = 0.0;
  double queue_wait_ms = 0.0;
  double lag_ms = 0.0;
  size_t queue_depth = 0;
  bool open_loop = false;
  bool miss = false;         // minted key: the request simulates
  bool first_touch = false;  // first request of a stored key in this pass
  bool ok = false;
};

// State shared between the generator and the completion callbacks.
struct StreamState {
  const Fixture* fx = nullptr;
  std::vector<Sample> samples;  // sized before the stream starts
  std::mutex mu;                // guards the fields below
  std::condition_variable changed;
  size_t outstanding = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;
};

struct StreamOutcome {
  std::vector<Sample> samples;
  double throughput_rps = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t queue_depth_max = 0;
  core::CalibrationCache::Stats cache;
  core::CalibrationStore::Stats store;
};

// What the generator submits: a stored key at one alpha, or a minted key.
struct RequestPlan {
  size_t key = 0;    // stored key index (unless minted)
  size_t alpha = 0;  // index into kAlphas
  bool minted = false;
  uint64_t mc_seed = 0;
  size_t direction = 0;
};

Status SubmitOne(core::AuditPipeline& pipeline, const Workload& wl,
                 StreamState& state, size_t index, const RequestPlan& plan,
                 Tracer& tracer) {
  const Fixture& fx = *state.fx;
  const size_t direction = plan.minted ? plan.direction
                                       : fx.keys[plan.key].direction;
  const uint64_t mc_seed =
      plan.minted ? plan.mc_seed : fx.keys[plan.key].mc_seed;
  core::AuditRequest request;
  request.id = std::to_string(index);
  request.dataset = &fx.dataset;
  request.family = fx.family.get();
  request.options =
      MakeOptions(wl, kDirections[direction], kAlphas[plan.alpha], mc_seed);
  const size_t reference = plan.key * kNumAlphas + plan.alpha;
  StreamState* st = &state;
  Tracer* tr = &tracer;
  auto callback = [st, tr, index, reference, direction,
                   minted = plan.minted](const core::AuditResponse& response) {
    const Clock::time_point done = Clock::now();
    Sample& sample = st->samples[index];
    sample.done = done;
    sample.ok = response.status.ok();
    sample.assemble_ms = response.assemble_ms;
    sample.queue_wait_ms = response.queue_wait_ms;
    sample.queue_depth = response.queue_depth;
    std::string problem;
    if (response.status.ok()) {
      const bool match =
          minted ? response.result.tau == st->fx->tau_ref[direction] &&
                       response.result.observed.llr.size() == st->fx->regions
                 : core::ResultsBitIdentical(response.result,
                                             st->fx->references[reference]);
      if (!match) {
        problem = StrFormat("request %zu (%s) differs from its reference",
                            index, minted ? "miss" : "hit");
      }
    }
    if (tr->enabled()) {
      const auto ms = [](double v) {
        return std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(v));
      };
      const int32_t root = tr->Record("request", sample.due, done, index);
      const Clock::time_point admitted = sample.due + ms(sample.lag_ms);
      tr->Record("queue.wait", admitted,
                 admitted + ms(response.queue_wait_ms), index, root);
      tr->Record("audit.assemble", done - ms(response.assemble_ms), done,
                 index, root);
    }
    std::lock_guard<std::mutex> lock(st->mu);
    if (!response.status.ok()) {
      ++st->failed;
      st->problems.push_back("request failed: " + response.status.ToString());
    }
    if (!problem.empty()) st->problems.push_back(std::move(problem));
    --st->outstanding;
    st->changed.notify_all();
  };
  {
    std::lock_guard<std::mutex> lock(state.mu);
    ++state.outstanding;
  }
  // The ticket is dropped at once: the callback records the response, and
  // holding tickets would keep every response alive.
  auto ticket = pipeline.Submit(std::move(request),
                                core::RequestPriority::kNormal, callback);
  if (!ticket.ok()) {
    std::lock_guard<std::mutex> lock(state.mu);
    --state.outstanding;
    ++state.failed;
    state.changed.notify_all();
  }
  return ticket.status();
}

void WaitOutstandingBelow(StreamState& state, size_t limit) {
  std::unique_lock<std::mutex> lock(state.mu);
  state.changed.wait(lock, [&] { return state.outstanding < limit; });
}

// One pass of a stream workload: a fresh pipeline over the set-up store
// serves a Poisson open-loop phase (latency), then a closed-loop phase with
// kClosedLoopOutstanding requests in flight (throughput).
Result<StreamOutcome> RunStreamPass(const Workload& wl, const Fixture& fx,
                                    uint64_t pass_seed, double seconds,
                                    Tracer& tracer,
                                    std::vector<std::string>* problems) {
  core::CalibrationStore::Options store_options;
  store_options.directory = fx.store_dir;
  SFA_ASSIGN_OR_RETURN(auto store,
                       core::CalibrationStore::Open(store_options));
  std::shared_ptr<core::CalibrationStore> shared_store = std::move(store);
  // Declared before the pipeline so that callbacks never outlive it.
  StreamState state;
  state.fx = &fx;
  core::AuditPipeline pipeline;
  pipeline.cache().AttachStore(shared_store);
  core::StreamOptions stream_options;
  stream_options.queue_capacity = kQueueCapacity;
  stream_options.num_workers = kStreamWorkers;
  stream_options.block_when_full = false;
  SFA_RETURN_NOT_OK(pipeline.StartStream(stream_options));

  sfa::Rng rng(Derive(pass_seed, kSeedTraffic));
  const double open_s = seconds * kOpenLoopShare;
  const double closed_s = seconds - open_s;
  std::vector<double> arrivals_s;
  for (double t = 0.0;;) {
    t += -std::log1p(-rng.NextDouble()) / wl.rate_rps;
    if (t >= open_s) break;
    arrivals_s.push_back(t);
  }
  // Closed-loop requests are bounded by a generous service rate.
  const size_t closed_cap = static_cast<size_t>(closed_s * 5000.0) + 64;
  state.samples.resize(fx.keys.size() + arrivals_s.size() + closed_cap);

  // Minted keys are spread evenly, one per kMissEvery requests at a seeded
  // offset, so that two misses rarely overlap by chance (README).
  const uint64_t miss_offset =
      wl.miss_every == 0 ? 0 : Derive(pass_seed, kSeedMint) % wl.miss_every;
  uint64_t minted = 0;
  std::vector<bool> touched(fx.keys.size(), false);
  size_t next_index = 0;
  auto plan_next = [&](size_t position) {
    RequestPlan plan;
    if (wl.miss_every != 0 && position % wl.miss_every == miss_offset) {
      plan.minted = true;
      plan.mc_seed = Derive(pass_seed, kSeedMint, (1ULL << 40) + minted++);
      plan.direction = rng.NextUint64(kNumDirections);
    } else {
      plan.key = rng.NextUint64(fx.keys.size());
    }
    plan.alpha = rng.NextUint64(kNumAlphas);
    return plan;
  };
  uint64_t attempted = 0;

  // mixed_stream touches every stored key before timing, so its hits are
  // memory hits and its misses are the minted keys alone; warm_stream keeps
  // the store load of each key's first touch in the timed stream.
  if (wl.miss_every != 0) {
    for (size_t k = 0; k < fx.keys.size(); ++k) {
      RequestPlan plan;
      plan.key = k;
      const size_t index = next_index++;
      state.samples[index].due = Clock::now();
      SFA_RETURN_NOT_OK(SubmitOne(pipeline, wl, state, index, plan, tracer));
      WaitOutstandingBelow(state, 1);
      touched[k] = true;
    }
  }
  const size_t timed_first = next_index;

  // Open loop: each request is due on its Poisson schedule regardless of
  // completions, and is timed from when it was due.
  const Clock::time_point open_start =
      Clock::now() + std::chrono::milliseconds(2);
  for (size_t i = 0; i < arrivals_s.size(); ++i) {
    const Clock::time_point due =
        open_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(arrivals_s[i]));
    const RequestPlan plan = plan_next(i);
    std::this_thread::sleep_until(due);
    const size_t index = next_index++;
    Sample& sample = state.samples[index];
    sample.due = due;
    sample.open_loop = true;
    sample.miss = plan.minted;
    if (!plan.minted && !touched[plan.key]) {
      sample.first_touch = true;
      touched[plan.key] = true;
    }
    sample.lag_ms = MillisBetween(due, Clock::now());
    ++attempted;
    (void)SubmitOne(pipeline, wl, state, index, plan, tracer);
  }
  WaitOutstandingBelow(state, 1);

  // Closed loop: a new request as soon as fewer than
  // kClosedLoopOutstanding are in flight.
  const size_t closed_first = next_index;
  const Clock::time_point closed_start = Clock::now();
  const Clock::time_point closed_stop =
      closed_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(closed_s));
  for (size_t i = 0; i < closed_cap && Clock::now() < closed_stop; ++i) {
    WaitOutstandingBelow(state, kClosedLoopOutstanding);
    const RequestPlan plan = plan_next(arrivals_s.size() + i);
    const size_t index = next_index++;
    Sample& sample = state.samples[index];
    sample.due = Clock::now();
    sample.miss = plan.minted;
    ++attempted;
    (void)SubmitOne(pipeline, wl, state, index, plan, tracer);
  }
  WaitOutstandingBelow(state, 1);
  SFA_RETURN_NOT_OK(pipeline.FinishStream());

  StreamOutcome out;
  size_t closed_ok = 0;
  Clock::time_point closed_end = closed_start;
  for (size_t i = closed_first; i < next_index; ++i) {
    if (!state.samples[i].ok) continue;
    ++closed_ok;
    closed_end = std::max(closed_end, state.samples[i].done);
  }
  out.throughput_rps =
      closed_ok / std::max(1e-9, MillisBetween(closed_start, closed_end) / 1e3);
  out.samples.assign(state.samples.begin() + timed_first,
                     state.samples.begin() + next_index);
  out.attempted = attempted;
  out.failed = state.failed;
  out.queue_depth_max = pipeline.stream_stats().max_queue_depth;
  out.cache = pipeline.cache().stats();
  out.store = shared_store->stats();
  problems->insert(problems->end(), state.problems.begin(),
                   state.problems.end());
  return out;
}

// --------------------------------------------------------------- probes ---

// Per-layer costs measured directly on the workload's family and data, for
// the layers a workload's own loop does not call in isolation.
struct ProbeResult {
  double engine_world_us = 0.0;
  double count_world_us = 0.0;
  double view_ms = 0.0;
  double scan_observed_ms = 0.0;
  double resolve_us = 0.0;
  double lookup_us = 0.0;
  double store_write_us = 0.0;
  double store_load_us = 0.0;
};

// Median over `reps` timings of `fn`, in microseconds per `per` calls.
double MedianMicros(int reps, double per, const std::function<void()>& fn) {
  std::vector<double> us;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    fn();
    us.push_back(MillisBetween(t0, Clock::now()) * 1e3 / per);
  }
  return Median(std::move(us));
}

Result<ProbeResult> RunProbes(const Workload& wl, const Fixture& fx,
                              const RunConfig& config, Tracer& tracer) {
  ScopedSpan root(tracer, "probe");
  ProbeResult out;
  const core::AuditOptions options =
      MakeOptions(wl, kDirections[0], kAlphas[1],
                  Derive(config.seed, kSeedWarmup));
  SFA_ASSIGN_OR_RETURN(auto statistic,
                       core::MakeScanStatistic(options, fx.view));

  // One engine world, single-threaded, through the batched path.
  constexpr size_t kBatch = 8;
  core::MonteCarloOptions serial = options.monte_carlo;
  serial.parallel = false;
  const auto simulation = statistic->MakeSimulation(*fx.family, serial);
  std::vector<double> maxima(kBatch);
  simulation->RunWorldBatch(0, kBatch, maxima.data());  // warm the arenas
  out.engine_world_us = MedianMicros(5, kBatch, [&] {
    ScopedSpan span(tracer, "engine.world_batch", 0, root.id());
    simulation->RunWorldBatch(0, kBatch, maxima.data());
  });

  // Counting alone over pre-drawn worlds.
  sfa::Rng rng(Derive(config.seed, kSeedWarmup, 1));
  std::vector<core::Labels> worlds;
  std::vector<const core::Labels*> batch;
  for (size_t w = 0; w < kBatch; ++w) {
    worlds.push_back(core::Labels::SampleBernoulli(
        fx.view.size(), fx.view.PositiveRate(), &rng));
  }
  for (const core::Labels& labels : worlds) {
    labels.positive_indices();  // materialise the lazy views up front
    labels.bits();
    batch.push_back(&labels);
  }
  std::vector<uint64_t> counts(kBatch * fx.regions);
  fx.family->CountPositivesBatch(batch.data(), kBatch, counts.data());
  out.count_world_us = MedianMicros(5, kBatch, [&] {
    ScopedSpan span(tracer, "count.batch", 0, root.id());
    fx.family->CountPositivesBatch(batch.data(), kBatch, counts.data());
  });

  out.view_ms = MedianMicros(3, 1, [&] {
    ScopedSpan span(tracer, "audit.view", 0, root.id());
    auto view = core::BuildMeasureView(
        fx.dataset, core::FairnessMeasure::kStatisticalParity);
    SFA_CHECK_OK(view.status());
  }) / 1e3;
  core::AuditScratch scratch;
  out.scan_observed_ms = MedianMicros(5, 1, [&] {
    ScopedSpan span(tracer, "audit.scan_observed", 0, root.id());
    statistic->ScanObserved(*fx.family, fx.view.predicted().data(),
                            fx.view.size(), &scratch);
  }) / 1e3;

  const core::NullDistribution& calibration = fx.warmup_calibration;
  constexpr int kCalls = 1000;
  out.resolve_us = MedianMicros(5, kCalls, [&] {
    for (int i = 0; i < kCalls; ++i) {
      calibration.ResolvePValue(fx.tau_ref[0] * (i % 3) / 2.0,
                                options.significance);
    }
  });

  const core::CalibrationKey key =
      core::MakeCalibrationKey(*fx.family, *statistic, options.monte_carlo);
  core::CalibrationCache cache;
  SFA_RETURN_NOT_OK(
      cache
          .GetOrCompute(key, [&]() -> Result<core::NullDistribution> {
            return calibration;
          })
          .status());
  out.lookup_us = MedianMicros(5, kCalls, [&] {
    for (int i = 0; i < kCalls; ++i) cache.Lookup(key);
  });

  core::CalibrationStore::Options store_options;
  store_options.directory = config.work_dir + "/probe-store";
  SFA_ASSIGN_OR_RETURN(auto store, core::CalibrationStore::Open(store_options));
  out.store_write_us = MedianMicros(5, 1, [&] {
    ScopedSpan span(tracer, "store.write", 0, root.id());
    SFA_CHECK_OK(store->Store(key, calibration));
  });
  SFA_RETURN_NOT_OK(store->LoadView(key).status());
  out.store_load_us = MedianMicros(5, 100, [&] {
    for (int i = 0; i < 100; ++i) SFA_CHECK_OK(store->LoadView(key).status());
  });
  return out;
}

// Queue, cache and store figures for cold_audit, whose own loop calls none
// of those layers: a few cold audits routed through a pipeline with a store.
struct ColdPipelineProbe {
  std::vector<double> queue_wait_ms;
  size_t queue_depth_max = 0;
  core::CalibrationCache::Stats cache;
  core::CalibrationStore::Stats store;
};

Result<ColdPipelineProbe> RunColdPipelineProbe(
    const Workload& wl, const Fixture& fx, const RunConfig& config,
    std::vector<std::string>* problems) {
  core::CalibrationStore::Options store_options;
  store_options.directory = config.work_dir + "/cold-probe-store";
  SFA_ASSIGN_OR_RETURN(auto store, core::CalibrationStore::Open(store_options));
  std::shared_ptr<core::CalibrationStore> shared_store = std::move(store);
  ColdPipelineProbe out;
  {
    core::AuditPipeline pipeline;
    pipeline.cache().AttachStore(shared_store);
    SFA_RETURN_NOT_OK(pipeline.StartStream());
    for (uint64_t i = 0; i < 3; ++i) {
      core::AuditRequest request;
      request.id = "probe" + std::to_string(i);
      request.dataset = &fx.dataset;
      request.family = fx.family.get();
      request.options = MakeOptions(wl, kDirections[0], kAlphas[1],
                                    Derive(config.seed, kSeedCold, ~i));
      SFA_ASSIGN_OR_RETURN(auto ticket, pipeline.Submit(std::move(request)));
      const core::AuditResponse& response = ticket->Get();
      if (!response.status.ok() || response.result.tau != fx.tau_ref[0]) {
        problems->push_back("pipeline cold audit differs from its reference");
      }
      out.queue_wait_ms.push_back(response.queue_wait_ms);
    }
    SFA_RETURN_NOT_OK(pipeline.FinishStream());
    out.queue_depth_max = pipeline.stream_stats().max_queue_depth;
    out.cache = pipeline.cache().stats();
  }
  out.store = shared_store->stats();
  return out;
}

// ------------------------------------------------------------- reports ---

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<double> SpanSelfMs(const Tracer& tracer, const char* name) {
  auto all = tracer.SelfTimesMs();
  auto it = all.find(name);
  return it == all.end() ? std::vector<double>{} : it->second;
}

// The measured loop of a workload (either kind).
struct PassResult {
  double latency_p50 = 0.0;
  double latency_tail = 0.0;
  double throughput_rps = 0.0;
  std::vector<double> lag_ms;
  std::vector<double> miss_ms;
  std::vector<double> assemble_ms;
  std::vector<double> queue_wait_ms;
  size_t queue_depth_max = 0;
  double worlds_per_request = 0.0;
  core::CalibrationCache::Stats cache;
  core::CalibrationStore::Stats store;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t tail_samples = 0;
};

Result<PassResult> RunPass(const Workload& wl, Fixture& fx,
                           uint64_t pass_seed,
                           double seconds, Tracer& tracer,
                           std::vector<std::string>* problems) {
  PassResult out;
  if (!wl.stream) {
    ColdOutcome cold =
        RunColdLoop(wl, fx, pass_seed, seconds, tracer, problems);
    out.latency_p50 = Median(cold.latency_ms);
    out.latency_tail = Quantile(cold.latency_ms, wl.tail_quantile);
    out.tail_samples = cold.latency_ms.size();
    out.throughput_rps =
        cold.latency_ms.size() / std::max(1e-9, cold.elapsed_s);
    out.lag_ms = std::move(cold.gap_ms);
    out.miss_ms = cold.latency_ms;
    out.worlds_per_request = wl.worlds;
    out.attempted = cold.attempted;
    out.failed = cold.failed;
    return out;
  }
  SFA_ASSIGN_OR_RETURN(StreamOutcome stream,
                       RunStreamPass(wl, fx, pass_seed, seconds, tracer,
                                     problems));
  std::vector<double> latency;
  uint64_t misses = 0, served = 0;
  for (const Sample& s : stream.samples) {
    if (!s.ok) continue;
    ++served;
    misses += s.miss;
    if (!s.open_loop) continue;
    const double ms = MillisBetween(s.due, s.done);
    out.lag_ms.push_back(s.lag_ms);
    if (s.miss || (wl.miss_every == 0 && s.first_touch)) {
      out.miss_ms.push_back(ms);
    }
    if (s.miss) continue;
    latency.push_back(ms);
    out.assemble_ms.push_back(s.assemble_ms);
    out.queue_wait_ms.push_back(s.queue_wait_ms);
  }
  out.latency_p50 = Median(latency);
  out.latency_tail = Quantile(latency, wl.tail_quantile);
  out.tail_samples = latency.size();
  out.throughput_rps = stream.throughput_rps;
  out.queue_depth_max = stream.queue_depth_max;
  out.worlds_per_request =
      Ratio(static_cast<double>(misses) * wl.worlds,
            static_cast<double>(served));
  out.cache = stream.cache;
  out.store = stream.store;
  out.attempted = stream.attempted;
  out.failed = stream.failed;
  const double lag_p99 = Quantile(out.lag_ms, 0.99);
  if (lag_p99 > kMaxGeneratorLagMs) {
    problems->push_back(StrFormat(
        "invalid run: open-loop generator lag p99 %.2f ms exceeds %.0f ms",
        lag_p99, kMaxGeneratorLagMs));
  }
  return out;
}

}  // namespace

Result<RunReport> RunWorkload(const RunConfig& config, Tracer& tracer) {
  const Workload* wl = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (config.workload == candidate.name) wl = &candidate;
  }
  if (wl == nullptr) {
    return Status::InvalidArgument("unknown workload '" + config.workload +
                                   "'");
  }
  RunReport report;

  // Set-up, repeated; the last fixture serves the run.
  std::vector<double> setup_s, build_ms;
  double family_rss_mb = 0.0;
  std::unique_ptr<Fixture> fx;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    std::error_code ec;
    const std::string store_dir =
        config.work_dir + "/store-" + std::to_string(rep);
    if (fx != nullptr && !fx->store_dir.empty()) {
      std::filesystem::remove_all(fx->store_dir, ec);
    }
    double previous_tau[kNumDirections] = {};
    if (fx != nullptr) {
      std::copy(fx->tau_ref, fx->tau_ref + kNumDirections, previous_tau);
    }
    fx.reset();
    SFA_ASSIGN_OR_RETURN(Fixture built,
                         BuildFixture(*wl, config, store_dir, tracer));
    fx = std::make_unique<Fixture>(std::move(built));
    if (rep == 0) {
      family_rss_mb = fx->family_rss_mb;
    } else if (!std::equal(previous_tau, previous_tau + kNumDirections,
                           fx->tau_ref)) {
      report.problems.push_back("set-up is not deterministic: tau changed");
    }
    setup_s.push_back(fx->setup_s);
    build_ms.push_back(fx->family_build_ms);
  }

  auto meta = [&](const std::string& key, const std::string& json) {
    report.meta.emplace_back(key, json);
  };
  meta("workload", "\"" + std::string(wl->name) + "\"");
  meta("n", std::to_string(fx->view.size()));
  meta("regions", std::to_string(fx->regions));
  meta("family", wl->family == FamilyKind::kSquares
                     ? StrFormat("\"squares %u centres x %zu sides\"",
                                 kKMeansCenters, fx->regions / kKMeansCenters)
                     : StrFormat("\"grid %ux%u\"", kGridX, kGridY));
  meta("counting_backend", "\"" + fx->backend + "\"");
  meta("worlds", std::to_string(wl->worlds));
  meta("setup_repeats", std::to_string(kSetupRepeats));
  meta("lar_seed", std::to_string(data::LarSimOptions{}.seed));
  meta("kmeans_seed", std::to_string(kKMeansSeed));
  if (wl->stream) {
    meta("rate_rps", StrFormat("%.1f", wl->rate_rps));
    meta("miss_share",
         StrFormat("%.4f", wl->miss_every ? 1.0 / wl->miss_every : 0.0));
    meta("keys", std::to_string(fx->keys.size()));
    meta("alphas", std::to_string(kNumAlphas));
    meta("open_loop_s", StrFormat("%.3f", config.seconds * kOpenLoopShare *
                                              (config.trace ? 0.5 : 1.0)));
    meta("closed_loop_outstanding", std::to_string(kClosedLoopOutstanding));
    meta("stream_workers", std::to_string(kStreamWorkers));
    meta("latency_class", wl->miss_every ? "\"hits\"" : "\"all\"");
  }
  meta("tail_percentile", StrFormat("%.0f", wl->tail_quantile * 100));

  if (!config.trace) {
    tracer.set_enabled(false);
    SFA_ASSIGN_OR_RETURN(PassResult pass,
                         RunPass(*wl, *fx, config.seed, config.seconds,
                                 tracer, &report.problems));
    meta("tail_samples", std::to_string(pass.tail_samples));
    report.attempted = pass.attempted;
    report.failed = pass.failed;
    report.metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"latency_ms.p50", pass.latency_p50, "ms"},
        {"latency_ms.tail", pass.latency_tail, "ms"},
        {"throughput_rps", pass.throughput_rps, "1/s"},
    };
    return report;
  }

  // Traced run: the same loop untraced, then traced, each for half the run,
  // then the layer probes.
  tracer.set_enabled(false);
  SFA_ASSIGN_OR_RETURN(PassResult untraced,
                       RunPass(*wl, *fx, config.seed,
                               config.seconds / 2, tracer, &report.problems));
  tracer.set_enabled(true);
  SFA_ASSIGN_OR_RETURN(PassResult traced,
                       RunPass(*wl, *fx, config.seed + 1,
                               config.seconds / 2, tracer, &report.problems));
  SFA_ASSIGN_OR_RETURN(ProbeResult probe,
                       RunProbes(*wl, *fx, config, tracer));
  report.attempted = untraced.attempted + traced.attempted;
  report.failed = untraced.failed + traced.failed;
  meta("tail_samples", std::to_string(traced.tail_samples));

  std::vector<double> assemble = traced.assemble_ms;
  std::vector<double> queue_wait = traced.queue_wait_ms;
  size_t depth_max = traced.queue_depth_max;
  core::CalibrationCache::Stats cache = traced.cache;
  core::CalibrationStore::Stats store = traced.store;
  if (!wl->stream) {
    assemble = SpanSelfMs(tracer, "audit.assemble");
    SFA_ASSIGN_OR_RETURN(ColdPipelineProbe cold,
                         RunColdPipelineProbe(*wl, *fx, config,
                                              &report.problems));
    queue_wait = cold.queue_wait_ms;
    depth_max = cold.queue_depth_max;
    cache = cold.cache;
    store = cold.store;
  }
  report.metrics = {
      {"setup.family_build_ms", Median(build_ms), "ms"},
      {"setup.family_rss_mb", family_rss_mb, "MB"},
      {"engine.simulate_ms", Median(SpanSelfMs(tracer, "engine.simulate")),
       "ms"},
      {"engine.worlds_per_request", traced.worlds_per_request, "count"},
      {"engine.world_us", probe.engine_world_us, "us"},
      {"count.world_us", probe.count_world_us, "us"},
      {"sample_llr.world_us", probe.engine_world_us - probe.count_world_us,
       "us"},
      {"audit.view_ms", probe.view_ms, "ms"},
      {"audit.scan_observed_ms", probe.scan_observed_ms, "ms"},
      {"audit.assemble_ms.p50", Median(assemble), "ms"},
      {"audit.assemble_ms.p99", Quantile(assemble, 0.99), "ms"},
      {"significance.resolve_us", probe.resolve_us, "us"},
      {"cache.hit_ratio",
       Ratio(static_cast<double>(cache.hits),
             static_cast<double>(cache.hits + cache.misses)),
       "ratio"},
      {"cache.lookup_us", probe.lookup_us, "us"},
      {"store.load_us", probe.store_load_us, "us"},
      {"store.mmap_ratio",
       Ratio(static_cast<double>(store.mmap_loads),
             static_cast<double>(store.load_hits)),
       "ratio"},
      {"store.write_us", probe.store_write_us, "us"},
      {"queue.wait_ms.p50", Median(queue_wait), "ms"},
      {"queue.wait_ms.p99", Quantile(queue_wait, 0.99), "ms"},
      {"queue.depth_max", static_cast<double>(depth_max), "count"},
      {"miss_latency_ms.p50", Median(traced.miss_ms), "ms"},
      {"generator.lag_ms.p99", Quantile(traced.lag_ms, 0.99), "ms"},
      {"trace.overhead_pct",
       (Ratio(traced.latency_p50, untraced.latency_p50) - 1.0) * 100.0, "%"},
  };
  return report;
}

}  // namespace perfbench
