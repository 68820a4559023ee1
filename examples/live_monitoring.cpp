// Live monitoring: a security desk watches a restricted zone while people
// move through the building — the paper's "security control" service (§I
// abstract) on top of trajectory simulation, continuous range monitoring,
// and incremental nearest-neighbor browsing.
//
//   $ ./build/examples/live_monitoring

#include <cstdio>

#include "core/query/incremental_knn.h"
#include "gen/building_generator.h"
#include "tracking/monitor.h"
#include "util/metrics.h"

using namespace indoor;

int main() {
  BuildingConfig config;
  config.floors = 3;
  config.rooms_per_floor = 12;
  config.seed = 555;
  const FloorPlan plan = GenerateBuilding(config);
  IndexFramework index(plan);
  const DistanceContext ctx = index.distance_context();

  // 50 tracked people.
  Rng rng(556);
  PopulateStore(GenerateObjects(plan, 50, &rng), &index.objects());

  // The restricted zone: within 12 walking meters of the server room
  // (first room on floor 3).
  PartitionId server_room = kInvalidId;
  for (const Partition& part : plan.partitions()) {
    if (part.kind() == PartitionKind::kRoom && part.floor() == 3) {
      server_room = part.id();
      break;
    }
  }
  const Point zone_center =
      plan.partition(server_room).footprint().outer().BoundingBox().Center();
  ContinuousRangeMonitor monitor(ctx, index.objects(), zone_center, 12.0);
  std::printf("Monitoring 12 m around '%s'; %zu people inside at start.\n\n",
              plan.partition(server_room).name().c_str(), monitor.size());

  // Simulate five minutes; log every membership change.
  TrajectoryConfig traj;
  traj.seed = 557;
  TrajectorySimulator sim(ctx, index.objects(), traj);
  int entries = 0, exits = 0;
  for (int second = 1; second <= 300; ++second) {
    // An operator's minute-by-minute health report: how much distance work
    // the monitoring service is doing (empty under INDOOR_METRICS=OFF).
    if (second % 60 == 0) {
      std::printf("\n-- metrics after %d s --\n", second);
      metrics::MetricsRegistry::Global().Snapshot().WriteReport(stdout);
      std::printf("\n");
    }
    const auto reports = sim.Step(1.0);
    ApplyReports(reports, &index.objects());  // keep the indexes current
    for (const PositionReport& report : reports) {
      const bool was_inside = monitor.Contains(report.id);
      if (monitor.OnReport(report)) {
        if (was_inside) {
          ++exits;
        } else {
          ++entries;
          if (entries <= 5) {
            std::printf("  t=%3ds person #%u ENTERED the zone (in %s)\n",
                        second, report.id,
                        plan.partition(report.partition).name().c_str());
          }
        }
      }
    }
  }
  std::printf("\nAfter 5 minutes: %d entries, %d exits, %zu currently "
              "inside.\n",
              entries, exits, monitor.size());

  // Dispatch: browse guards by increasing walking distance until we find
  // three outside the zone (incremental NN, no k guessed up front).
  DistanceBrowser it(index, zone_center);
  std::printf("\nNearest people outside the zone (for dispatch):\n");
  int dispatched = 0;
  while (it.HasNext() && dispatched < 3) {
    const Neighbor nb = it.Next();
    if (monitor.Contains(nb.id)) continue;  // already inside
    std::printf("  person #%u at %.1f m walking distance\n", nb.id,
                nb.distance);
    ++dispatched;
  }
  return 0;
}
