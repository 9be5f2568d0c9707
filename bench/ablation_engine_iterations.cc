// A13 — Ablation: engine iteration cost. The assignment service builds
// its catalog cache (packed catalog rows + persistent distance
// triangle) once and solves every iteration over a zero-copy
// CatalogSubsetView of it; this bench drives a scripted deployment
// against catalogs of growing size and reports the one-time cache build
// and the per-iteration setup (problem construction) and solve times.
// The warm-vs-cold comparison of the removed task-copy path is kept as
// history in EXPERIMENTS.md.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench/bench_common.h"
#include "engine/assignment_service.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

struct DriveConfig {
  size_t workers = 6;
  size_t rounds = 3;
  size_t completions_per_round = 4;
  size_t sample_cap = 800;
  uint64_t seed = 31337;
};

struct DriveStats {
  size_t solver_iterations = 0;
  double mean_setup_seconds = 0.0;
  double mean_solve_seconds = 0.0;
  double build_seconds = 0.0;  // Service construction (cache build).
  double total_seconds = 0.0;
};

DriveStats Drive(const hta::Catalog& catalog,
                 const std::vector<hta::Worker>& profiles,
                 const DriveConfig& config) {
  using namespace hta;
  AssignmentServiceOptions options;
  options.strategy = StrategyKind::kHtaGre;
  options.xmax = 10;
  options.extra_random_tasks = 3;
  options.refresh_after_completions = config.completions_per_round;
  options.max_tasks_per_iteration = config.sample_cap;
  options.seed = config.seed;
  // Warm start changes assignments and shrinks solves; A14 measures it.
  options.warm_start = false;

  DriveStats stats;
  WallTimer total_timer;
  WallTimer build_timer;
  AssignmentService service(&catalog.tasks, options);
  stats.build_seconds = build_timer.ElapsedSeconds();

  std::vector<uint64_t> ids;
  ids.reserve(profiles.size());
  for (size_t w = 0; w < config.workers; ++w) {
    ids.push_back(service.RegisterWorker(profiles[w].interests()));
  }
  // Each round every worker submits enough completions to trigger a
  // refresh, so each (worker, round) pair costs one strategy solve.
  for (size_t round = 0; round < config.rounds; ++round) {
    for (uint64_t id : ids) {
      for (size_t c = 0; c < config.completions_per_round; ++c) {
        const std::vector<size_t> displayed = service.Displayed(id);
        if (displayed.empty()) break;
        HTA_CHECK(service.NotifyCompleted(id, displayed.front()).ok());
      }
    }
  }
  stats.total_seconds = total_timer.ElapsedSeconds();

  double setup_sum = 0.0;
  double solve_sum = 0.0;
  for (const IterationRecord& record : service.iterations()) {
    if (record.task_count == 0) continue;  // Cold-start random bundles.
    ++stats.solver_iterations;
    setup_sum += record.setup_seconds;
    solve_sum += record.solve_seconds;
  }
  if (stats.solver_iterations > 0) {
    stats.mean_setup_seconds =
        setup_sum / static_cast<double>(stats.solver_iterations);
    stats.mean_solve_seconds =
        solve_sum / static_cast<double>(stats.solver_iterations);
  }
  return stats;
}

}  // namespace

int main() {
  using namespace hta;
  bench::PrintBanner("ablation: engine iteration cost",
                     "online service cost per iteration (Section V-C setup)");

  std::vector<size_t> catalog_sizes;
  DriveConfig config;
  switch (GetBenchScale()) {
    case BenchScale::kSmoke:
      catalog_sizes = {1000, 2000};
      config.workers = 3;
      config.rounds = 2;
      config.sample_cap = 400;
      break;
    case BenchScale::kDefault:
      catalog_sizes = {2000, 10000};
      config.workers = 6;
      config.rounds = 3;
      config.sample_cap = 1200;
      break;
    case BenchScale::kPaper:
      catalog_sizes = {2000, 10000, 50000};
      config.workers = 8;
      config.rounds = 4;
      config.sample_cap = 1200;
      break;
  }

  TableWriter table({"catalog", "cache build (s)", "solves",
                     "mean setup (ms)", "mean solve (ms)"});
  for (const size_t catalog_size : catalog_sizes) {
    const bench::OfflineWorkload workload = bench::MakeOfflineWorkload(
        std::max<size_t>(catalog_size / 100, 1), 100, config.workers,
        /*seed=*/7 + catalog_size);
    const DriveStats stats = Drive(workload.catalog, workload.workers, config);
    table.AddRow({FmtInt(static_cast<long long>(catalog_size)),
                  FmtDouble(stats.build_seconds, 3),
                  FmtInt(static_cast<long long>(stats.solver_iterations)),
                  FmtDouble(stats.mean_setup_seconds * 1e3, 3),
                  FmtDouble(stats.mean_solve_seconds * 1e3, 3)});
    // "mode" keeps the key the committed baselines were recorded under.
    bench::AppendBenchJson(
        "ablation_engine_iterations",
        {{"catalog", bench::JsonNum(static_cast<double>(catalog_size))},
         {"mode", bench::JsonStr("warm")},
         {"sample_cap", bench::JsonNum(static_cast<double>(config.sample_cap))},
         {"solver_iterations",
          bench::JsonNum(static_cast<double>(stats.solver_iterations))},
         {"build_seconds", bench::JsonNum(stats.build_seconds)},
         {"mean_setup_seconds", bench::JsonNum(stats.mean_setup_seconds)},
         {"mean_solve_seconds", bench::JsonNum(stats.mean_solve_seconds)}},
        stats.total_seconds);
  }
  table.Print(std::cout);
  std::cout << "\nexpected: the one-time cache build amortizes across the "
               "deployment; per-iteration\nsetup is the subset remap, a "
               "small fraction of the solve.\n";
  return 0;
}
