// Observability cost guard: the same training job with the tracer + a
// scraped /metrics endpoint on vs everything off, min-of-4 each. Writes
// BENCH_obs.json and exits non-zero when the overhead exceeds 3% — the
// observability plane must stay effectively free.
//
//   ./build/bench/obs_overhead

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "common/http_server.h"
#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/prometheus.h"
#include "common/timer.h"
#include "common/trace.h"
#include "engine/cluster.h"
#include "table/datasets.h"

namespace treeserver {
namespace {

/// One training run; with `obs` on, the tracer records and a /metrics
/// endpoint is scraped every 50ms for the duration — the realistic
/// "monitored" configuration. Returns the job wall time in ms.
double ObsGuardRun(const DataTable& table, bool obs) {
  HttpServer http;
  std::thread scraper;
  std::atomic<bool> stop_scraper{false};
  if (obs) {
    Tracer::Global().Clear();
    Tracer::Global().Enable();
    http.Handle("/metrics", [](const std::string&) {
      HttpResponse resp;
      resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
      resp.body = PrometheusExport(MetricsRegistry::Global().Snapshot());
      return resp;
    });
    if (http.Start("127.0.0.1", 0).ok()) {
      scraper = std::thread([&stop_scraper, port = http.port()] {
        while (!stop_scraper.load(std::memory_order_relaxed)) {
          std::string body;
          HttpGet("127.0.0.1", port, "/metrics", &body);
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
      });
    }
  }

  EngineConfig cfg;
  cfg.num_workers = 4;
  cfg.compers_per_worker = 2;
  cfg.tau_d = 2000;
  cfg.tau_dfs = 8000;
  ForestJobSpec spec;
  spec.num_trees = 8;
  spec.tree.max_depth = 10;

  WallTimer timer;
  TreeServerCluster cluster(table, cfg);
  ForestModel forest = cluster.TrainForest(spec);
  const double ms = timer.Millis();
  TS_CHECK(forest.num_trees() == static_cast<size_t>(spec.num_trees))
      << "obs guard trained " << forest.num_trees() << " trees";

  if (obs) {
    stop_scraper.store(true, std::memory_order_relaxed);
    if (scraper.joinable()) scraper.join();
    http.Stop();
    Tracer::Global().Disable();
    std::printf("  (traced %zu events, dropped %llu)\n",
                Tracer::Global().event_count(),
                static_cast<unsigned long long>(
                    Tracer::Global().dropped_spans()));
    Tracer::Global().Clear();
  }
  return ms;
}

int RunObsOverheadGuard() {
  DatasetProfile profile;
  profile.name = "obs-guard";
  profile.rows = 30000;
  profile.num_numeric = 8;
  profile.num_categorical = 2;
  profile.num_classes = 3;
  profile.noise = 0.05;
  profile.concept_depth = 6;
  DataTable table = GenerateTable(profile, /*seed=*/17);

  // One uncounted warmup pair (page cache, allocator, thread pools),
  // then interleaved off/on runs so machine drift hits both sides.
  // Min-per-side is the least-perturbed measurement on each: run-to-run
  // noise on a shared box dwarfs the true tracer cost, and the guard
  // exists to catch real regressions (per-row tracing, a hot-path
  // lock), not to resolve fractions of a percent.
  ObsGuardRun(table, /*obs=*/false);
  ObsGuardRun(table, /*obs=*/true);
  constexpr int kRuns = 4;
  double off_ms = 0.0, on_ms = 0.0;
  for (int i = 0; i < kRuns; ++i) {
    const double off = ObsGuardRun(table, /*obs=*/false);
    const double on = ObsGuardRun(table, /*obs=*/true);
    off_ms = i == 0 ? off : std::min(off_ms, off);
    on_ms = i == 0 ? on : std::min(on_ms, on);
    std::printf("obs-overhead run %d/%d: off=%.1fms on=%.1fms\n", i + 1,
                kRuns, off, on);
  }

  const double overhead_pct = (on_ms - off_ms) / off_ms * 100.0;
  constexpr double kBudgetPct = 3.0;
  char json[256];
  std::snprintf(json, sizeof(json),
                "{\"bench\":\"obs\",\"off_ms\":%.1f,\"on_ms\":%.1f,"
                "\"overhead_pct\":%.2f,\"budget_pct\":%.1f}\n",
                off_ms, on_ms, overhead_pct, kBudgetPct);
  std::printf("%s", json);
  if (std::FILE* f = std::fopen("BENCH_obs.json", "w")) {
    std::fputs(json, f);
    std::fclose(f);
  }
  if (overhead_pct > kBudgetPct) {
    std::fprintf(stderr,
                 "FAIL: observability overhead %.2f%% exceeds %.1f%% budget\n",
                 overhead_pct, kBudgetPct);
    return 1;
  }
  std::printf("PASS: observability overhead %.2f%% within %.1f%% budget\n",
              overhead_pct, kBudgetPct);
  return 0;
}

}  // namespace
}  // namespace treeserver

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s (takes no arguments)\n", argv[0]);
    return 2;
  }
  return treeserver::RunObsOverheadGuard();
}
