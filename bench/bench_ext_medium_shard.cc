// Extension: medium sharding — the kSharded delivery backend against
// its serial siblings at N = 1000. Not a paper figure; it charts the
// two halves of the sharding contract:
//
//   1. Parity: a 2 s flooding load on the 25×40 grid must schedule
//      exactly the deliveries kCulled schedules (the deterministic
//      deliv/frame cells are baseline-gated; the trace-digest half of
//      the contract is pinned by the shard_determinism test suite).
//   2. Scaling: repeated delivery-list rebuilds — the dynamic-topology
//      churn a mobility workload would generate — fanned across the
//      persistent worker pool. The "lists" column (total precomputed
//      deliveries) is identical for every backend by construction; the
//      wall columns show the stripe parallelism, ≥2× at 4 threads on a
//      host with ≥4 cores.
#include <chrono>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "phy/phy.h"
#include "util/assert.h"

using namespace hydra;

namespace {

constexpr unsigned kThreads = 4;

topo::ExperimentConfig flood_config(topo::MediumPolicy policy) {
  topo::ExperimentConfig cfg;
  cfg.scenario = topo::ScenarioSpec::grid(25, 40);
  // 10 m spacing: the reach radius (~10.7 m) covers the four lattice
  // neighbours, and the 390 m wide world spans ~37 grid cell columns —
  // the stripes the sharded backend actually cuts.
  cfg.scenario.spacing_m = 10.0;
  cfg.scenario.sessions.clear();
  cfg.scenario.medium.policy = policy;
  cfg.scenario.medium.shard_threads = kThreads;
  cfg.flooding = true;
  cfg.flood_interval = sim::Duration::millis(250);
  cfg.flood_payload_bytes = 40;
  cfg.max_sim_time = sim::Duration::seconds(2);
  return cfg;
}

double wall_since(std::chrono::steady_clock::time_point started) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       started)
      .count();
}

}  // namespace

int main() {
  bench::print_header(
      "Extension: medium sharding",
      "sharded delivery == culled delivery, computed across a worker pool",
      "N = 1000 flooded grid: delivery parity per frame, then repeated "
      "delivery-list rebuilds (mobility-style churn) at 1/2/4 stripe "
      "workers.");
  bench::record_threads(kThreads);

  // ---- Parity under a flooding load --------------------------------
  stats::Table flood_table({"scenario", "nodes", "tx frames", "deliveries",
                            "deliv/frame", "shards", "wall s"});
  for (const auto policy :
       {topo::MediumPolicy::kFullMesh, topo::MediumPolicy::kCulled,
        topo::MediumPolicy::kSharded}) {
    const auto cfg = flood_config(policy);
    const auto started = std::chrono::steady_clock::now();
    const auto result = app::run_experiment(cfg);
    const double wall = wall_since(started);
    const double per_frame =
        result.phy_transmissions == 0
            ? 0.0
            : static_cast<double>(result.phy_deliveries) /
                  static_cast<double>(result.phy_transmissions);
    flood_table.add_row(
        {cfg.scenario.label() + "/" + topo::to_string(policy),
         std::to_string(cfg.scenario.node_count()),
         std::to_string(result.phy_transmissions),
         std::to_string(result.phy_deliveries),
         stats::Table::num(per_frame, 1), std::to_string(result.phy_shards),
         stats::Table::num(wall, 3)});
  }
  bench::emit(flood_table);

  // ---- Rebuild scaling across stripe workers -----------------------
  // The same 1000 PHYs, rebuilt repeatedly through the backend seam the
  // way a dynamic topology would force; the serial culled backend is
  // the 1.0× reference.
  const auto spec = flood_config(topo::MediumPolicy::kCulled).scenario;
  const auto positions = spec.positions();
  sim::Simulation sim(1);
  phy::MediumConfig medium_config = spec.medium_config();
  phy::Medium medium(sim, medium_config);
  std::vector<std::unique_ptr<phy::Phy>> phy_storage;
  std::vector<phy::Phy*> phys;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    phy_storage.push_back(std::make_unique<phy::Phy>(
        sim, medium, phy::PhyConfig{.position = positions[i]},
        static_cast<std::uint32_t>(i)));
    phys.push_back(phy_storage.back().get());
  }

  constexpr int kRounds = 30;
  const auto timed_rebuilds = [&](phy::DeliveryBackend& backend,
                                  std::size_t threads) {
    medium_config.shard_threads = threads;
    backend.rebuild(phys, medium_config);  // warm-up: pool spawn, caches
    const auto started = std::chrono::steady_clock::now();
    for (int round = 0; round < kRounds; ++round) {
      backend.rebuild(phys, medium_config);
    }
    const double wall_ms = wall_since(started) * 1e3;
    std::uint64_t lists = 0;
    for (const phy::Phy* phy : phys) {
      lists += backend.deliveries(*phy).size();
    }
    return std::pair<double, std::uint64_t>{wall_ms, lists};
  };

  stats::Table rebuild_table({"backend", "shards", "lists",
                              "rebuild wall ms", "wall speedup"});
  const auto culled = phy::make_delivery_backend(phy::DeliveryPolicy::kCulled);
  const auto [serial_ms, serial_lists] = timed_rebuilds(*culled, 1);
  rebuild_table.add_row({"culled", "1", std::to_string(serial_lists),
                         stats::Table::num(serial_ms, 1),
                         stats::Table::num(1.0, 2)});
  const auto sharded =
      phy::make_delivery_backend(phy::DeliveryPolicy::kSharded);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    const auto [wall_ms, lists] = timed_rebuilds(*sharded, threads);
    HYDRA_ASSERT_MSG(lists == serial_lists,
                     "sharded rebuild diverged from culled");
    char label[32];
    std::snprintf(label, sizeof label, "sharded-%zu", threads);
    rebuild_table.add_row({label, std::to_string(sharded->shards()),
                           std::to_string(lists),
                           stats::Table::num(wall_ms, 1),
                           stats::Table::num(serial_ms / wall_ms, 2)});
  }
  bench::emit(rebuild_table);

  bench::comment(
      "\nExpected shape: deliveries and deliv/frame identical for culled "
      "and sharded (the parity contract; trace digests are pinned by the "
      "shard_determinism suite), full mesh at N-1 = 999.");
  bench::comment(
      "Rebuild scaling: >=2x wall speedup at 4 stripe workers on a host "
      "with >=4 cores; the \"lists\" column is bit-identical across "
      "backends by construction. On fewer cores the speedup column "
      "degrades toward 1.0x (see the report's threads/host_cpus "
      "metadata).");
  return 0;
}
