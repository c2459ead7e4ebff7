// Umbrella header: includes the whole public API of the spatial fairness
// auditing library. Fine for applications; library code should include the
// specific module headers instead.
#ifndef SFA_SFA_H_
#define SFA_SFA_H_

#include "common/logging.h"      // IWYU pragma: export
#include "common/macros.h"       // IWYU pragma: export
#include "common/random.h"       // IWYU pragma: export
#include "common/status.h"       // IWYU pragma: export
#include "common/string_util.h"  // IWYU pragma: export
#include "common/thread_pool.h"  // IWYU pragma: export
#include "common/timer.h"        // IWYU pragma: export

#include "geo/distance.h"      // IWYU pragma: export
#include "geo/grid.h"          // IWYU pragma: export
#include "geo/partitioning.h"  // IWYU pragma: export
#include "geo/point.h"         // IWYU pragma: export
#include "geo/polygon.h"       // IWYU pragma: export
#include "geo/rect.h"          // IWYU pragma: export

#include "spatial/bitvector.h"      // IWYU pragma: export
#include "spatial/grid_index.h"     // IWYU pragma: export
#include "spatial/kdtree.h"         // IWYU pragma: export
#include "spatial/prefix_sum_2d.h"  // IWYU pragma: export

#include "stats/bernoulli_scan.h"    // IWYU pragma: export
#include "stats/descriptive.h"       // IWYU pragma: export
#include "stats/distributions.h"     // IWYU pragma: export
#include "stats/gumbel.h"            // IWYU pragma: export
#include "stats/join_count.h"        // IWYU pragma: export
#include "stats/kmeans.h"            // IWYU pragma: export
#include "stats/multinomial_scan.h"  // IWYU pragma: export

#include "data/crime_sim.h"     // IWYU pragma: export
#include "data/csv.h"           // IWYU pragma: export
#include "data/dataset.h"       // IWYU pragma: export
#include "data/lar_sim.h"       // IWYU pragma: export
#include "data/synth.h"         // IWYU pragma: export
#include "data/us_geography.h"  // IWYU pragma: export

#include "ml/decision_tree.h"  // IWYU pragma: export
#include "ml/metrics.h"        // IWYU pragma: export
#include "ml/random_forest.h"  // IWYU pragma: export
#include "ml/table.h"          // IWYU pragma: export

#include "core/audit.h"                   // IWYU pragma: export
#include "core/audit_pipeline.h"          // IWYU pragma: export
#include "core/bernoulli_statistic.h"     // IWYU pragma: export
#include "core/calibration_cache.h"       // IWYU pragma: export
#include "core/calibration_store.h"       // IWYU pragma: export
#include "core/equal_odds.h"              // IWYU pragma: export
#include "core/evidence.h"                // IWYU pragma: export
#include "core/export.h"                  // IWYU pragma: export
#include "core/grid_family.h"             // IWYU pragma: export
#include "core/knn_circle_family.h"       // IWYU pragma: export
#include "core/labels.h"                  // IWYU pragma: export
#include "core/meanvar.h"                 // IWYU pragma: export
#include "core/measure.h"                 // IWYU pragma: export
#include "core/multinomial_statistic.h"   // IWYU pragma: export
#include "core/partitioning_family.h"     // IWYU pragma: export
#include "core/rectangle_sweep_family.h"  // IWYU pragma: export
#include "core/region_family.h"           // IWYU pragma: export
#include "core/report.h"                  // IWYU pragma: export
#include "core/scan_statistic.h"          // IWYU pragma: export
#include "core/significance.h"            // IWYU pragma: export
#include "core/square_family.h"           // IWYU pragma: export

#include "viz/map_render.h"  // IWYU pragma: export
#include "viz/svg.h"         // IWYU pragma: export

#endif  // SFA_SFA_H_
