// Deadline-enforcement drills, engine to pipeline: cooperative stops at
// Monte Carlo batch boundaries (contiguous-prefix contract), admission and
// dequeue (lazy-reap) enforcement in the streaming pipeline, graceful
// degradation from a partial calibration, joiner retry after a foreign
// single-flight stop, and batch-vs-streaming determinism under fault
// injection. Stops are driven by the `mc_engine.batch` failpoint
// (common/failpoint.h) so every worlds_completed value asserted here is an
// exact function of the spec, not of wall-clock luck. Labeled `fault` +
// `tier1`.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/macros.h"
#include "common/thread_pool.h"
#include "core/audit_pipeline.h"
#include "core/bernoulli_statistic.h"
#include "core/calibration_store.h"
#include "core/grid_family.h"
#include "core/mc_engine.h"
#include "core/scan_statistic.h"
#include "testing_util.h"

namespace sfa::core {
namespace {

using core::testing::ExpectIdenticalResult;
using core::testing::MakePlantedCity;

/// One city + one family + request builders. Serial Monte Carlo by default:
/// with options.parallel=false the engine visits batches in order, so a
/// `times`/`every` trigger on mc_engine.batch maps to an exact batch index
/// and worlds_completed is a constant of the spec.
struct DeadlineFixture {
  data::OutcomeDataset city = MakePlantedCity(71, 2000, 0.40);
  std::unique_ptr<GridPartitionFamily> family;

  DeadlineFixture() {
    auto f = GridPartitionFamily::Create(city.locations(), 6, 6);
    SFA_CHECK_OK(f.status());
    family = std::move(f).value();
  }

  MonteCarloOptions SerialMc(uint32_t num_worlds) const {
    MonteCarloOptions mc;
    mc.num_worlds = num_worlds;
    mc.seed = 13;
    mc.parallel = false;
    mc.batch_size = 8;
    return mc;
  }

  AuditRequest Request(const std::string& id, uint32_t num_worlds) const {
    AuditRequest r;
    r.id = id;
    r.dataset = &city;
    r.family = family.get();
    r.options.monte_carlo = SerialMc(num_worlds);
    return r;
  }

  BernoulliScanStatistic Statistic() const {
    return BernoulliScanStatistic(stats::ScanDirection::kTwoSided, city.size(),
                                  city.PositiveCount(), city.PositiveRate());
  }
};

class DeadlineTest : public ::testing::Test {
 protected:
  void SetUp() override { Failpoints::Instance().DisarmAll(); }
  void TearDown() override { Failpoints::Instance().DisarmAll(); }

  Failpoints& fp() { return Failpoints::Instance(); }
};

const AuditResponse& GetOrDie(const Result<std::shared_ptr<AuditTicket>>& t) {
  SFA_CHECK_OK(t.status());
  return (*t)->Get();
}

// ---------------------------------------------------------------- engine --

TEST_F(DeadlineTest, EngineStopKeepsExactContiguousPrefixInSerialOrder) {
  DeadlineFixture f;
  const MonteCarloOptions mc = f.SerialMc(49);  // 7 batches of 8 (last: 1)

  // Serial order makes the poll sequence exact: hit k is the poll before
  // batch k-1, so every(4) stops before batch 3 — exactly 24 worlds done.
  ASSERT_TRUE(
      fp().Arm("mc_engine.batch", "every(4):error(DeadlineExceeded,injected)")
          .ok());
  PartialCalibration partial;
  auto stopped = SimulateNull(f.Statistic(), *f.family, mc, &partial);
  ASSERT_TRUE(stopped.status().IsDeadlineExceeded()) << stopped.status();
  EXPECT_EQ(partial.worlds_completed, 24u);
  EXPECT_EQ(partial.maxima.size(), 24u);

  // The prefix contract: those 24 maxima ARE the 24-world calibration (per-
  // world substreams make world w independent of num_worlds), so a degraded
  // response built from them is a pure function of (request, 24).
  fp().DisarmAll();
  auto full = SimulateNull(f.Statistic(), *f.family, mc);
  auto clean24 = SimulateNull(f.Statistic(), *f.family, f.SerialMc(24));
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(clean24.ok());
  const NullDistribution from_partial(std::move(partial.maxima));
  EXPECT_EQ(from_partial.MaximaVector(), clean24->MaximaVector());
  EXPECT_NE(full->MaximaVector().size(), clean24->MaximaVector().size());
}

TEST_F(DeadlineTest, ParallelStopPrefixDependsOnlyOnItsLength) {
  DeadlineFixture f;
  MonteCarloOptions mc = f.SerialMc(49);
  mc.parallel = true;

  // Under a parallel pool the batch that trips first is scheduling-dependent,
  // so worlds_completed varies — but whatever prefix survives must be THE
  // calibration of that length, batch-aligned, never a scrambled subset.
  ASSERT_TRUE(
      fp().Arm("mc_engine.batch", "every(3):error(DeadlineExceeded,injected)")
          .ok());
  PartialCalibration partial;
  auto stopped = SimulateNull(f.Statistic(), *f.family, mc, &partial);
  ASSERT_TRUE(stopped.status().IsDeadlineExceeded()) << stopped.status();
  ASSERT_LT(partial.worlds_completed, 49u);
  EXPECT_EQ(partial.worlds_completed % mc.batch_size, 0u);
  fp().DisarmAll();
  if (partial.worlds_completed > 0) {
    auto clean_prefix = SimulateNull(
        f.Statistic(), *f.family,
        f.SerialMc(static_cast<uint32_t>(partial.worlds_completed)));
    ASSERT_TRUE(clean_prefix.ok());
    const NullDistribution from_partial(std::move(partial.maxima));
    EXPECT_EQ(from_partial.MaximaVector(), clean_prefix->MaximaVector());
  }
}

TEST_F(DeadlineTest, PreCancelledTokenAndExpiredDeadlineStopBeforeAnyWorld) {
  DeadlineFixture f;
  CancellationToken cancel;
  cancel.Cancel();
  MonteCarloOptions mc = f.SerialMc(49);
  mc.cancel = &cancel;
  PartialCalibration partial;
  auto cancelled = SimulateNull(f.Statistic(), *f.family, mc, &partial);
  EXPECT_TRUE(cancelled.status().IsCancelled()) << cancelled.status();
  EXPECT_EQ(partial.worlds_completed, 0u);

  mc = f.SerialMc(49);
  mc.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  auto expired = SimulateNull(f.Statistic(), *f.family, mc, &partial);
  EXPECT_TRUE(expired.status().IsDeadlineExceeded()) << expired.status();
  EXPECT_EQ(partial.worlds_completed, 0u);
}

TEST_F(DeadlineTest, RawEngineWithoutOutcomeIsNeverStopped) {
  DeadlineFixture f;
  // A caller that cannot receive partial progress must never get a silently
  // short vector: without an McRunOutcome the engine does not poll at all.
  ASSERT_TRUE(
      fp().Arm("mc_engine.batch", "always:error(DeadlineExceeded,injected)")
          .ok());
  const MonteCarloOptions mc = f.SerialMc(49);
  const BernoulliScanStatistic statistic = f.Statistic();
  const auto simulation = statistic.MakeSimulation(*f.family, mc);
  const std::vector<double> worlds =
      RunMonteCarloWorlds(*simulation, mc, /*outcome=*/nullptr);
  EXPECT_EQ(worlds.size(), 49u);
  EXPECT_EQ(fp().HitCount("mc_engine.batch"), 0u);  // site never consulted
}

// -------------------------------------------------------------- pipeline --

TEST_F(DeadlineTest, ExpiredDeadlineIsRejectedAtStreamAdmission) {
  DeadlineFixture f;
  AuditPipeline pipeline;
  ASSERT_TRUE(pipeline.StartStream({}).ok());

  AuditRequest dead = f.Request("dead-on-arrival", 49);
  dead.deadline_ms = -1.0;  // born expired
  auto ticket = pipeline.Submit(std::move(dead));
  EXPECT_TRUE(ticket.status().IsDeadlineExceeded()) << ticket.status();

  // The bounced request consumed nothing; a live one still gets served.
  auto live = pipeline.Submit(f.Request("live", 49));
  SFA_CHECK_OK(live.status());
  ASSERT_TRUE(pipeline.FinishStream().ok());
  SFA_CHECK_OK((*live)->Get().status);

  const StreamStats stats = pipeline.stream_stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.deadline_misses, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST_F(DeadlineTest, QueuedRequestPastItsDeadlineIsReapedAtDequeue) {
  DeadlineFixture f;
  AuditPipeline pipeline;
  StreamOptions opts;
  opts.num_workers = 1;
  opts.start_paused = true;  // deterministically expire IN the queue
  ASSERT_TRUE(pipeline.StartStream(opts).ok());

  AuditRequest doomed = f.Request("doomed", 49);
  doomed.deadline_ms = 15.0;
  auto doomed_ticket = pipeline.Submit(std::move(doomed));
  auto live_ticket = pipeline.Submit(f.Request("live", 49));
  SFA_CHECK_OK(doomed_ticket.status());
  SFA_CHECK_OK(live_ticket.status());

  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  pipeline.ResumeDispatch();
  ASSERT_TRUE(pipeline.FinishStream().ok());

  // Reaped without executing — and the freed worker served the live request.
  const AuditResponse& reaped = GetOrDie(doomed_ticket);
  EXPECT_TRUE(reaped.status.IsDeadlineExceeded()) << reaped.status;
  EXPECT_NE(reaped.status.ToString().find("expired in queue"),
            std::string::npos)
      << reaped.status;
  SFA_CHECK_OK(GetOrDie(live_ticket).status);

  const StreamStats stats = pipeline.stream_stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.deadline_misses, 1u);
}

TEST_F(DeadlineTest, BatchRunBouncesExpiredRequestsAndServesTheRest) {
  DeadlineFixture f;
  AuditPipeline pipeline;
  std::vector<AuditRequest> batch;
  batch.push_back(f.Request("live", 49));
  batch.push_back(f.Request("dead", 49));
  batch.back().deadline_ms = -1.0;

  auto responses = pipeline.Run(batch);
  SFA_CHECK_OK(responses.status());
  SFA_CHECK_OK((*responses)[0].status);
  EXPECT_EQ((*responses)[0].worlds_completed, 49u);
  EXPECT_TRUE((*responses)[1].status.IsDeadlineExceeded())
      << (*responses)[1].status;
}

TEST_F(DeadlineTest, MidCalibrationDeadlineServesDegradedPrefixWhenOptedIn) {
  DeadlineFixture f;
  AuditPipeline pipeline;
  StreamOptions opts;
  opts.num_workers = 1;
  ASSERT_TRUE(pipeline.StartStream(opts).ok());

  // Deterministic mid-calibration expiry: the failpoint injects the same
  // DeadlineExceeded the real clock would, before batch 3 of the request's
  // own (serial) simulation — 24 of 49 worlds completed.
  ASSERT_TRUE(
      fp().Arm("mc_engine.batch", "every(4):error(DeadlineExceeded,injected)")
          .ok());
  AuditRequest degraded_req = f.Request("degraded", 49);
  degraded_req.allow_degraded = true;
  auto ticket = pipeline.Submit(std::move(degraded_req));
  SFA_CHECK_OK(ticket.status());
  const AuditResponse& response = GetOrDie(ticket);
  ASSERT_TRUE(pipeline.FinishStream().ok());
  fp().DisarmAll();

  SFA_CHECK_OK(response.status);
  EXPECT_TRUE(response.degraded);
  EXPECT_FALSE(response.cache_hit);
  EXPECT_EQ(response.worlds_completed, 24u);

  // The degraded payload is deterministic given worlds_completed: byte-
  // identical to honestly requesting a 24-world audit.
  AuditPipeline reference;
  auto expected = reference.Run({f.Request("expected", 24)});
  SFA_CHECK_OK(expected.status());
  SFA_CHECK_OK((*expected)[0].status);
  ExpectIdenticalResult((*expected)[0].result, response.result,
                        "degraded == clean 24-world audit");

  const StreamStats stats = pipeline.stream_stats();
  EXPECT_EQ(stats.completed, 1u);  // served, not failed
  EXPECT_EQ(stats.degraded, 1u);
  EXPECT_EQ(stats.deadline_misses, 1u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST_F(DeadlineTest, MidCalibrationDeadlineFailsWithoutOptIn) {
  DeadlineFixture f;
  AuditPipeline pipeline;
  StreamOptions opts;
  opts.num_workers = 1;
  ASSERT_TRUE(pipeline.StartStream(opts).ok());

  ASSERT_TRUE(
      fp().Arm("mc_engine.batch", "every(4):error(DeadlineExceeded,injected)")
          .ok());
  auto ticket = pipeline.Submit(f.Request("strict", 49));  // no opt-in
  SFA_CHECK_OK(ticket.status());
  const AuditResponse& response = GetOrDie(ticket);
  ASSERT_TRUE(pipeline.FinishStream().ok());

  EXPECT_TRUE(response.status.IsDeadlineExceeded()) << response.status;
  EXPECT_FALSE(response.degraded);
  const StreamStats stats = pipeline.stream_stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.deadline_misses, 1u);
  EXPECT_EQ(stats.degraded, 0u);
}

TEST_F(DeadlineTest, ForeignSingleFlightStopIsRetriedNotInherited) {
  DeadlineFixture f;
  AuditPipeline pipeline;
  StreamOptions opts;
  opts.num_workers = 2;
  ASSERT_TRUE(pipeline.StartStream(opts).ok());

  // Exactly one simulation (whoever owns the single-flight slot first) is
  // stopped by the injection. The sibling request shares the calibration
  // key; if it joined the doomed owner it receives a FOREIGN DeadlineExceeded
  // — which must be retried under its own (absent) deadline, not surfaced.
  // Whatever the interleaving: exactly one response fails, and the survivor
  // is byte-identical to a clean run.
  ASSERT_TRUE(
      fp().Arm("mc_engine.batch", "once:error(DeadlineExceeded,injected)")
          .ok());
  auto a = pipeline.Submit(f.Request("a", 49));
  auto b = pipeline.Submit(f.Request("b", 49));
  SFA_CHECK_OK(a.status());
  SFA_CHECK_OK(b.status());
  const AuditResponse& ra = GetOrDie(a);
  const AuditResponse& rb = GetOrDie(b);
  ASSERT_TRUE(pipeline.FinishStream().ok());
  fp().DisarmAll();

  const int failures =
      (ra.status.ok() ? 0 : 1) + (rb.status.ok() ? 0 : 1);
  ASSERT_EQ(failures, 1) << "a: " << ra.status << "  b: " << rb.status;
  const AuditResponse& survivor = ra.status.ok() ? ra : rb;
  const AuditResponse& victim = ra.status.ok() ? rb : ra;
  EXPECT_TRUE(victim.status.IsDeadlineExceeded()) << victim.status;

  AuditPipeline reference;
  auto expected = reference.Run({f.Request("expected", 49)});
  SFA_CHECK_OK(expected.status());
  ExpectIdenticalResult((*expected)[0].result, survivor.result,
                        "survivor of foreign stop");
}

TEST_F(DeadlineTest, BatchAndStreamingAgreeByteForByteUnderInjection) {
  DeadlineFixture f;
  // Two calibration keys across four requests.
  auto make_requests = [&] {
    std::vector<AuditRequest> requests;
    for (auto direction :
         {stats::ScanDirection::kTwoSided, stats::ScanDirection::kLow}) {
      for (double alpha : {0.05, 0.01}) {
        AuditRequest r = f.Request(
            std::string(stats::ScanDirectionToString(direction)) + "-" +
                std::to_string(alpha),
            49);
        r.options.alpha = alpha;
        r.options.direction = direction;
        requests.push_back(std::move(r));
      }
    }
    return requests;
  };
  const std::vector<AuditRequest> requests = make_requests();

  // The injected faults (torn every-2nd store write, every Load erroring)
  // hit the persistence layer only — under the determinism contract the
  // served payloads must be byte-identical across batch vs. streaming AND
  // against a fault-free run. Each mode gets a fresh directory, a fresh
  // write→serve process pair, and a freshly armed spec.
  const char* kSpec =
      "store.write=every(2):corrupt;store.load=every(2):error(IOError)";

  auto expected = [&] {
    AuditPipeline clean;
    auto responses = clean.Run(requests);
    SFA_CHECK_OK(responses.status());
    return std::move(responses).value();
  }();

  auto open_store = [](const std::filesystem::path& dir) {
    CalibrationStore::Options options;
    options.directory = dir.string();
    auto store = CalibrationStore::Open(options);
    SFA_CHECK_OK(store.status());
    return std::shared_ptr<CalibrationStore>(std::move(store).value());
  };

  for (const bool streaming : {false, true}) {
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("sfa_deadline_xmode_" + std::to_string(streaming) + "_" +
         std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    ASSERT_TRUE(fp().ArmFromSpec(kSpec).ok());

    // Process 1: compute + persist (some frames torn, some loads broken).
    {
      AuditPipeline writer;
      writer.cache().AttachStore(open_store(dir));
      auto r = writer.Run(requests);
      SFA_CHECK_OK(r.status());
      writer.cache().FlushStore();
    }
    // Process 2: serve from the damaged directory in the mode under test.
    std::vector<AuditResponse> served;
    {
      AuditPipeline server;
      server.cache().AttachStore(open_store(dir));
      if (streaming) {
        ASSERT_TRUE(server.StartStream({}).ok());
        std::vector<Result<std::shared_ptr<AuditTicket>>> tickets;
        for (const AuditRequest& r : requests) tickets.push_back(server.Submit(r));
        ASSERT_TRUE(server.FinishStream().ok());
        for (const auto& t : tickets) served.push_back(GetOrDie(t));
      } else {
        auto r = server.Run(requests);
        SFA_CHECK_OK(r.status());
        served = std::move(r).value();
      }
    }
    fp().DisarmAll();
    std::filesystem::remove_all(dir);

    ASSERT_EQ(served.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      // Streaming ticket order == submit order == request order here.
      SFA_CHECK_OK(served[i].status);
      EXPECT_EQ(served[i].id, expected[i].id);
      ExpectIdenticalResult(
          expected[i].result, served[i].result,
          (streaming ? "streaming " : "batch ") + expected[i].id);
    }
  }
}

}  // namespace
}  // namespace sfa::core
