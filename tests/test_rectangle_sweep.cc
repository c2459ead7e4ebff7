// Tests for the all-rectangles sweep family: enumeration arithmetic and
// count agreement with brute force and with the grid family.
#include "core/rectangle_sweep_family.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/audit.h"
#include "core/bernoulli_statistic.h"
#include "core/grid_family.h"

namespace sfa::core {
namespace {

struct Cloud {
  std::vector<geo::Point> points;
  std::vector<uint8_t> labels;
};

Cloud MakeCloud(size_t n, uint64_t seed) {
  Rng rng(seed);
  Cloud cloud;
  cloud.points.resize(n);
  cloud.labels.resize(n);
  for (size_t i = 0; i < n; ++i) {
    cloud.points[i] = {rng.Uniform(0, 10), rng.Uniform(0, 10)};
    cloud.labels[i] = rng.Bernoulli(0.35) ? 1 : 0;
  }
  return cloud;
}

TEST(RectangleSweepFamily, RegionCountFormula) {
  const Cloud cloud = MakeCloud(50, 1);
  auto family = RectangleSweepFamily::Create(cloud.points, 4, 3);
  ASSERT_TRUE(family.ok());
  // 4*5/2 = 10 column intervals, 3*4/2 = 6 row intervals → 60 rectangles.
  EXPECT_EQ((*family)->num_regions(), 60u);
}

TEST(RectangleSweepFamily, RejectsOverBudgetAndEmpty) {
  const Cloud cloud = MakeCloud(10, 2);
  EXPECT_FALSE(RectangleSweepFamily::Create({}, 4, 4).ok());
  EXPECT_FALSE(RectangleSweepFamily::Create(cloud.points, 0, 4).ok());
  // 100x100 grid → 5050^2 ≈ 25.5M rectangles > default 1M budget.
  EXPECT_FALSE(RectangleSweepFamily::Create(cloud.points, 100, 100).ok());
  // Raising the budget admits it.
  EXPECT_TRUE(
      RectangleSweepFamily::Create(cloud.points, 100, 100, 1ull << 26).ok());
}

TEST(RectangleSweepFamily, DecodeRegionEnumeratesAllRectanglesOnce) {
  const Cloud cloud = MakeCloud(20, 3);
  auto family = RectangleSweepFamily::Create(cloud.points, 5, 4);
  ASSERT_TRUE(family.ok());
  std::set<std::tuple<uint32_t, uint32_t, uint32_t, uint32_t>> seen;
  for (size_t r = 0; r < (*family)->num_regions(); ++r) {
    const auto range = (*family)->DecodeRegion(r);
    ASSERT_LT(range.x0, range.x1);
    ASSERT_LE(range.x1, 5u);
    ASSERT_LT(range.y0, range.y1);
    ASSERT_LE(range.y1, 4u);
    seen.insert({range.x0, range.x1, range.y0, range.y1});
  }
  EXPECT_EQ(seen.size(), (*family)->num_regions());  // all distinct
}

TEST(RectangleSweepFamily, CountsMatchBruteForce) {
  const Cloud cloud = MakeCloud(800, 4);
  auto family = RectangleSweepFamily::Create(cloud.points, 6, 5);
  ASSERT_TRUE(family.ok());
  const Labels labels = Labels::FromBytes(cloud.labels);
  std::vector<uint64_t> positives;
  (*family)->CountPositives(labels, &positives);
  ASSERT_EQ(positives.size(), (*family)->num_regions());
  for (size_t r = 0; r < (*family)->num_regions(); ++r) {
    const geo::Rect rect = (*family)->Describe(r).rect;
    uint64_t n = 0, p = 0;
    for (size_t i = 0; i < cloud.points.size(); ++i) {
      if (rect.Contains(cloud.points[i])) {
        ++n;
        p += cloud.labels[i];
      }
    }
    ASSERT_EQ((*family)->PointCount(r), n) << r;
    ASSERT_EQ(positives[r], p) << r;
  }
}

TEST(RectangleSweepFamily, SingleCellRectanglesMatchGridFamily) {
  const Cloud cloud = MakeCloud(500, 5);
  auto sweep = RectangleSweepFamily::Create(cloud.points, 5, 5);
  auto grid = GridPartitionFamily::Create(cloud.points, 5, 5);
  ASSERT_TRUE(sweep.ok() && grid.ok());
  const Labels labels = Labels::FromBytes(cloud.labels);
  std::vector<uint64_t> sweep_p, grid_p;
  (*sweep)->CountPositives(labels, &sweep_p);
  (*grid)->CountPositives(labels, &grid_p);
  // For every grid cell find the sweep region with the same rect.
  for (size_t c = 0; c < (*grid)->num_regions(); ++c) {
    const geo::Rect cell = (*grid)->Describe(c).rect;
    bool found = false;
    for (size_t r = 0; r < (*sweep)->num_regions(); ++r) {
      const auto range = (*sweep)->DecodeRegion(r);
      if (range.x1 - range.x0 == 1 && range.y1 - range.y0 == 1) {
        const geo::Rect rect = (*sweep)->Describe(r).rect;
        if (std::abs(rect.min_x - cell.min_x) < 1e-9 &&
            std::abs(rect.min_y - cell.min_y) < 1e-9) {
          EXPECT_EQ(sweep_p[r], grid_p[c]);
          EXPECT_EQ((*sweep)->PointCount(r), (*grid)->PointCount(c));
          found = true;
          break;
        }
      }
    }
    EXPECT_TRUE(found) << "cell " << c;
  }
}

TEST(RectangleSweepFamily, WholeGridRegionHoldsEverything) {
  const Cloud cloud = MakeCloud(300, 6);
  auto family = RectangleSweepFamily::Create(cloud.points, 4, 4);
  ASSERT_TRUE(family.ok());
  bool found_whole = false;
  for (size_t r = 0; r < (*family)->num_regions(); ++r) {
    const auto range = (*family)->DecodeRegion(r);
    if (range.x0 == 0 && range.x1 == 4 && range.y0 == 0 && range.y1 == 4) {
      EXPECT_EQ((*family)->PointCount(r), 300u);
      found_whole = true;
    }
  }
  EXPECT_TRUE(found_whole);
}

TEST(RectangleSweepFamily, FindsPlantedMultiCellRegion) {
  // A planted block spanning 2x2 cells of an 8x8 grid: the sweep can capture
  // it in ONE region, so its max LLR must exceed the single-cell grid
  // family's max.
  Rng rng(7);
  Cloud cloud;
  const geo::Rect zone(2.5, 2.5, 5.0, 5.0);
  for (int i = 0; i < 6000; ++i) {
    geo::Point p{rng.Uniform(0, 10), rng.Uniform(0, 10)};
    cloud.points.push_back(p);
    cloud.labels.push_back(rng.Bernoulli(zone.Contains(p) ? 0.7 : 0.5) ? 1 : 0);
  }
  auto sweep = RectangleSweepFamily::Create(cloud.points, 8, 8);
  auto grid = GridPartitionFamily::Create(cloud.points, 8, 8);
  ASSERT_TRUE(sweep.ok() && grid.ok());
  uint64_t positives = 0;
  for (uint8_t label : cloud.labels) positives += label;
  const BernoulliScanStatistic statistic(stats::ScanDirection::kTwoSided,
                                         cloud.labels.size(), positives);
  AuditScratch scratch;
  const ScanResult sweep_scan = statistic.ScanObserved(
      **sweep, cloud.labels.data(), cloud.labels.size(), &scratch);
  const ScanResult grid_scan = statistic.ScanObserved(
      **grid, cloud.labels.data(), cloud.labels.size(), &scratch);
  EXPECT_GT(sweep_scan.max_llr, grid_scan.max_llr);
  // The argmax rectangle overlaps the planted zone.
  EXPECT_TRUE(
      (*sweep)->Describe(sweep_scan.argmax).rect.Intersects(zone));
}

TEST(RectangleSweepFamily, WorksWithAuditor) {
  Rng rng(8);
  data::OutcomeDataset ds("sweep-audit");
  const geo::Rect zone(6.0, 0.0, 10.0, 4.0);
  for (int i = 0; i < 4000; ++i) {
    geo::Point p{rng.Uniform(0, 10), rng.Uniform(0, 10)};
    ds.Add(p, rng.Bernoulli(zone.Contains(p) ? 0.3 : 0.55) ? 1 : 0);
  }
  auto family = RectangleSweepFamily::Create(ds.locations(), 8, 8);
  ASSERT_TRUE(family.ok());
  AuditOptions opts;
  opts.alpha = 0.01;
  opts.monte_carlo.num_worlds = 199;
  auto result = Auditor(opts).Audit(ds, **family);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->spatially_fair);
  ASSERT_FALSE(result->findings.empty());
  EXPECT_TRUE(result->findings[0].rect.Intersects(zone));
}

// Property sweep: decode/enumeration round-trips across grid shapes.
class SweepShapeSweep
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>> {};

TEST_P(SweepShapeSweep, CanonicalOrderMatchesCountPositives) {
  const auto [gx, gy] = GetParam();
  const Cloud cloud = MakeCloud(200, gx * 31 + gy);
  auto family = RectangleSweepFamily::Create(cloud.points, gx, gy);
  ASSERT_TRUE(family.ok());
  const Labels labels = Labels::FromBytes(cloud.labels);
  std::vector<uint64_t> positives;
  (*family)->CountPositives(labels, &positives);
  // Spot-check a pseudo-random subset of regions against brute force.
  Rng rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t r = rng.NextUint64((*family)->num_regions());
    const geo::Rect rect = (*family)->Describe(r).rect;
    uint64_t p = 0;
    for (size_t i = 0; i < cloud.points.size(); ++i) {
      if (rect.Contains(cloud.points[i])) p += cloud.labels[i];
    }
    ASSERT_EQ(positives[r], p) << gx << "x" << gy << " region " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SweepShapeSweep,
    ::testing::Values(std::make_tuple(1u, 1u), std::make_tuple(1u, 7u),
                      std::make_tuple(7u, 1u), std::make_tuple(6u, 6u),
                      std::make_tuple(12u, 3u)));

// Regression: Rebuild with transposed dimensions keeps the same table size
// ((nx+1)*(ny+1) unchanged), so the reuse path must still refill — stale
// interior sums would otherwise alias the new layout's zero row/column.
// Matters in production because CountPositives pools its summed-area table
// thread-locally across families.
TEST(PrefixSum2DRebuild, TransposedDimensionsRefillCompletely) {
  const std::vector<uint32_t> ones(6, 1);
  spatial::PrefixSum2D prefix(2, 3, ones);
  ASSERT_EQ(prefix.Total(), 6u);
  prefix.Rebuild(3, 2, ones.data());
  EXPECT_EQ(prefix.Total(), 6u);
  EXPECT_EQ(prefix.SumRange(0, 0, 1, 1), 1u);
  EXPECT_EQ(prefix.SumRange(0, 0, 3, 1), 3u);
}

// Two families with transposed grids recounted on the same thread must not
// contaminate each other through the thread-local prefix pools.
TEST(RectangleSweep, InterleavedTransposedFamiliesCountIndependently) {
  sfa::Rng rng(314);
  std::vector<geo::Point> pts(400);
  for (auto& p : pts) p = {rng.Uniform(0, 1), rng.Uniform(0, 1)};
  auto tall = RectangleSweepFamily::Create(pts, 4, 9);
  auto wide = RectangleSweepFamily::Create(pts, 9, 4);
  ASSERT_TRUE(tall.ok() && wide.ok());
  const Labels labels = Labels::SampleBernoulli(pts.size(), 0.5, &rng);
  std::vector<uint64_t> tall_before, wide_counts, tall_after;
  (*tall)->CountPositives(labels, &tall_before);
  (*wide)->CountPositives(labels, &wide_counts);
  (*tall)->CountPositives(labels, &tall_after);
  EXPECT_EQ(tall_before, tall_after);
  // The full-extent rectangle of each family sees every positive.
  const auto full_extent_count = [&](const RectangleSweepFamily& family,
                                     const std::vector<uint64_t>& counts) {
    for (size_t r = 0; r < family.num_regions(); ++r) {
      const auto range = family.DecodeRegion(r);
      if (range.x0 == 0 && range.y0 == 0 && range.x1 == family.grid().nx() &&
          range.y1 == family.grid().ny()) {
        return counts[r];
      }
    }
    return uint64_t{0};
  };
  EXPECT_EQ(full_extent_count(**tall, tall_before), labels.positive_count());
  EXPECT_EQ(full_extent_count(**wide, wide_counts), labels.positive_count());
}

}  // namespace
}  // namespace sfa::core
