#ifndef TREESERVER_BENCH_BENCH_UTIL_H_
#define TREESERVER_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/timer.h"
#include "engine/cluster.h"
#include "table/datasets.h"

namespace treeserver {
namespace bench {

/// Command-line knobs shared by the table benches.
///
///   --scale=F     row-count multiplier vs the paper's datasets
///                 (default 0.0005; the paper's clusters hold tens of
///                 millions of rows, a CI box does not)
///   --quick       even smaller/fewer configurations
///   --workers=N   simulated worker machines (default 4)
///   --compers=N   computing threads per worker (default 2)
///
/// Observability knobs:
///
///   --trace-out=F      enable the span tracer and write a Chrome
///                      trace-event JSON file (open in Perfetto) at exit
///   --stats-period=MS  run the periodic engine stats reporter
///   --stats            dump the process metrics registry at exit
///
/// Split-kernel knobs:
///
///   --split-method=exact|histogram   numeric split kernel
///   --max-bins=N                     histogram bin budget (default 255)
struct BenchOptions {
  double scale = 0.0005;
  size_t min_rows = 3000;
  bool quick = false;
  int workers = 4;
  int compers = 2;
  std::string trace_out;
  int stats_period_ms = 0;
  bool dump_metrics = false;
  SplitMethod split_method = SplitMethod::kExact;
  int max_bins = 255;

  static BenchOptions Parse(int argc, char** argv);
};

/// A generated dataset with a held-out test split.
struct PreparedData {
  DatasetProfile profile;
  DataTable train;
  DataTable test;
};

/// Generates profile `name` at the given scale and splits 75/25.
/// Deterministic; results are cached per process.
const PreparedData& Prepare(const std::string& name,
                            const BenchOptions& options);

/// Default TreeServer engine configuration for benches. Thresholds are
/// scaled with the data so the column-task/subtree-task mix matches
/// the paper's regime (τ_D = 10000, τ_dfs = 80000 at full scale).
EngineConfig DefaultEngine(const BenchOptions& options);
uint64_t ScaledTauD(const BenchOptions& options);
uint64_t ScaledTauDfs(const BenchOptions& options);

/// "Accuracy" formatting used by the paper's tables: percent for
/// classification, RMSE for regression (Allstate).
std::string FormatMetric(TaskKind kind, double metric);

/// Modeled wall-clock on a P-way parallel cluster, derived from
/// measured quantities (see EXPERIMENTS.md): the CPU term is the
/// aggregate comper busy time divided by the total comper count, and
/// the network term is the busiest endpoint's traffic pushed through
/// the configured link speed. The max of both plus the measured
/// coordination remainder approximates the paper's wall time on real
/// hardware; on a single-core CI box the *measured* wall time cannot
/// show parallel speedup, so the scalability tables report both.
double ModeledWall(const EngineMetrics& metrics, const EngineConfig& config,
                   double max_endpoint_bytes);

/// Simple fixed-width table printer.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);
  void AddRow(std::vector<std::string> cells);
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

std::string Fmt(double v, int decimals = 2);

}  // namespace bench
}  // namespace treeserver

#endif  // TREESERVER_BENCH_BENCH_UTIL_H_
