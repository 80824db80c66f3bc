// Observability cost guard: the same training job with the tracer + a
// scraped /metrics endpoint on vs everything off, in 200 interleaved
// pairs. Writes BENCH_obs.json and exits non-zero when the median
// per-pair overhead exceeds 3% — the observability plane must stay
// effectively free.
//
//   ./build/bench/obs_overhead

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

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

// The /metrics scrape period: 20 Hz, a busy Prometheus server.
constexpr int kScrapeMs = 50;

/// What one traced run did, for the report line: the events the
/// tracer kept, the task mix and the /metrics scrapes.
struct ObsRunMix {
  size_t events = 0;
  uint64_t dropped = 0;
  int column_tasks = 0;
  int subtree_tasks = 0;
  int breadth_first_plans = 0;  // plans past tau_dfs ("plan-tail")
  int scrapes = 0;
};

/// One training run; with `obs` on, the tracer records and a /metrics
/// endpoint is scraped every kScrapeMs from the moment the timer starts
/// — the realistic "monitored" configuration. Returns the job wall time
/// in ms; with `mix`, also counts what the traced run did.
double ObsGuardRun(const DataTable& table, bool obs,
                   ObsRunMix* mix = nullptr) {
  HttpServer http;
  std::thread scraper;
  std::atomic<bool> stop_scraper{false};
  std::atomic<int> scrapes{0};
  if (obs) {
    Tracer::Global().Clear();
    Tracer::Global().Enable();
    http.Handle("/metrics", [](const std::string&) {
      HttpResponse resp;
      resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
      resp.body = PrometheusExport(MetricsRegistry::Global().Snapshot());
      return resp;
    });
  }
  const bool scrape = obs && http.Start("127.0.0.1", 0).ok();

  // Two trees of 30000 rows: each tree has breadth-first plans past
  // tau_dfs, column tasks down to tau_d and subtree tasks below, and the
  // two together keep ~3.5 of 4 cores busy, so the events traced per
  // ms stay near those of an eight-tree forest of the same trees.
  EngineConfig cfg;
  cfg.num_workers = 4;
  cfg.compers_per_worker = 2;
  cfg.tau_d = 2000;
  cfg.tau_dfs = 8000;
  ForestJobSpec spec;
  spec.num_trees = 2;
  spec.tree.max_depth = 10;

  WallTimer timer;
  if (scrape) {
    scraper = std::thread([&stop_scraper, &scrapes, port = http.port()] {
      while (!stop_scraper.load(std::memory_order_relaxed)) {
        std::string body;
        if (HttpGet("127.0.0.1", port, "/metrics", &body).ok()) {
          scrapes.fetch_add(1, std::memory_order_relaxed);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(kScrapeMs));
      }
    });
  }
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
    if (mix != nullptr) {
      mix->events = Tracer::Global().event_count();
      mix->dropped = Tracer::Global().dropped_spans();
      mix->scrapes = scrapes.load();
      for (const TraceEventCopy& e : Tracer::Global().SnapshotEvents()) {
        if (e.phase == 'b' && e.cat == TraceCat::kColumnTask) {
          ++mix->column_tasks;
        } else if (e.phase == 'b' && e.cat == TraceCat::kSubtreeTask) {
          ++mix->subtree_tasks;
        } else if (e.cat == TraceCat::kPlanInsert && e.name == "plan-tail") {
          ++mix->breadth_first_plans;
        }
      }
    }
    Tracer::Global().Clear();
  }
  return ms;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
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
  // then interleaved pairs that alternate which side runs first, so
  // drift and run order hit both sides alike. The gate reads the median
  // of the per-pair overheads. The job is short (~150 ms) because the
  // host's timing noise is slow next to it: two adjacent short runs see
  // nearly the same machine, so a pair's difference cancels most of the
  // noise, and many pairs fit in about a minute.
  ObsGuardRun(table, /*obs=*/false);
  ObsRunMix mix;
  const double traced_ms = ObsGuardRun(table, /*obs=*/true, &mix);
  std::printf("obs-overhead: one traced run: %.1f ms, %zu events (%.0f/ms, "
              "%llu dropped), %d column tasks, %d subtree tasks, %d "
              "breadth-first plans, %d scrapes\n",
              traced_ms, mix.events, mix.events / traced_ms,
              static_cast<unsigned long long>(mix.dropped), mix.column_tasks,
              mix.subtree_tasks, mix.breadth_first_plans, mix.scrapes);
  constexpr int kPairs = 200;
  std::vector<double> off(kPairs), on(kPairs), overhead(kPairs);
  for (int i = 0; i < kPairs; ++i) {
    if (i % 2 == 0) {
      off[i] = ObsGuardRun(table, /*obs=*/false);
      on[i] = ObsGuardRun(table, /*obs=*/true);
    } else {
      on[i] = ObsGuardRun(table, /*obs=*/true);
      off[i] = ObsGuardRun(table, /*obs=*/false);
    }
    overhead[i] = (on[i] - off[i]) / off[i] * 100.0;
  }
  std::vector<double> sorted = overhead;
  std::sort(sorted.begin(), sorted.end());
  std::printf("obs-overhead: %d pairs, per-pair overhead quartiles "
              "%+.2f%% / %+.2f%%\n",
              kPairs, sorted[kPairs / 4], sorted[3 * kPairs / 4]);

  const double off_ms = Median(off);
  const double on_ms = Median(on);
  const double overhead_pct = Median(overhead);
  constexpr double kBudgetPct = 3.0;
  char json[256];
  std::snprintf(json, sizeof(json),
                "{\"bench\":\"obs\",\"pairs\":%d,\"off_ms\":%.1f,"
                "\"on_ms\":%.1f,\"overhead_pct\":%.2f,\"budget_pct\":%.1f}\n",
                kPairs, off_ms, on_ms, overhead_pct, kBudgetPct);
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
