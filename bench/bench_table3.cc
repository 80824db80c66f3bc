// Regenerates Table III: effect of the system parameters n_pool (tree
// pool size; time and peak task memory), τ_dfs (depth-first threshold)
// and τ_D (subtree-task threshold) when training a 20-tree forest.
//
// Expected shape: growing n_pool cuts time sharply at first and then
// flattens, while peak task memory grows only mildly; τ_dfs and τ_D
// are U-shaped around the paper's defaults (80k / 10k at full scale).

#include "bench_util.h"

using namespace treeserver;        // NOLINT
using namespace treeserver::bench;  // NOLINT

namespace {

struct Run {
  double seconds = 0.0;
  double peak_mb = 0.0;
};

Run TrainWith(const PreparedData& data, EngineConfig engine, int trees) {
  WallTimer timer;
  TreeServerCluster cluster(data.train, engine);
  ForestJobSpec spec;
  spec.num_trees = trees;
  spec.tree.max_depth = 10;
  spec.tree.impurity = data.profile.task_kind() == TaskKind::kRegression
                           ? Impurity::kVariance
                           : Impurity::kGini;
  spec.sqrt_columns = true;
  spec.seed = 3;
  cluster.TrainForest(spec);
  Run run;
  run.seconds = timer.Seconds();
  run.peak_mb = static_cast<double>(cluster.metrics().peak_task_memory_bytes) /
                (1 << 20);
  return run;
}

void SweepNpool(const BenchOptions& options,
                const std::vector<std::string>& names, int trees) {
  for (const std::string& name : names) {
    std::printf("\n== Table III(a-c): effect of n_pool on %s (%d trees) ==\n",
                name.c_str(), trees);
    const PreparedData& data = Prepare(name, options);
    TablePrinter table({"n_pool", "Time (s)", "Peak task mem (MB)"});
    for (int npool : {1, 5, 10, 20}) {
      EngineConfig engine = DefaultEngine(options);
      engine.npool = npool;
      Run run = TrainWith(data, engine, trees);
      table.AddRow({std::to_string(npool), Fmt(run.seconds, 3),
                    Fmt(run.peak_mb, 2)});
    }
    table.Print();
  }
}

void SweepTdfs(const BenchOptions& options,
               const std::vector<std::string>& names, int trees) {
  std::printf("\n== Table III(d): effect of τ_dfs (τ_D at default) ==\n");
  // The paper sweeps 20k..150k at full scale; scaled proportionally.
  std::vector<double> factors = {0.25, 0.625, 1.0, 1.25, 1.875};
  TablePrinter table([&] {
    std::vector<std::string> headers = {"τ_dfs (scaled)"};
    for (const std::string& n : names) headers.push_back(n + " (s)");
    return headers;
  }());
  uint64_t base = ScaledTauDfs(options);
  for (double f : factors) {
    std::vector<std::string> row = {std::to_string(
        static_cast<uint64_t>(static_cast<double>(base) * f))};
    for (const std::string& name : names) {
      const PreparedData& data = Prepare(name, options);
      EngineConfig engine = DefaultEngine(options);
      engine.tau_dfs = std::max<uint64_t>(
          engine.tau_d, static_cast<uint64_t>(
                            static_cast<double>(base) * f));
      Run run = TrainWith(data, engine, trees);
      row.push_back(Fmt(run.seconds, 3));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
}

void SweepTd(const BenchOptions& options,
             const std::vector<std::string>& names, int trees) {
  std::printf("\n== Table III(e): effect of τ_D (τ_dfs at default) ==\n");
  // Paper sweep: 2k..20k at full scale.
  std::vector<double> factors = {0.2, 0.5, 0.8, 1.0, 1.5, 2.0};
  TablePrinter table([&] {
    std::vector<std::string> headers = {"τ_D (scaled)"};
    for (const std::string& n : names) headers.push_back(n + " (s)");
    return headers;
  }());
  uint64_t base = ScaledTauD(options);
  for (double f : factors) {
    uint64_t tau_d =
        std::max<uint64_t>(50, static_cast<uint64_t>(
                                   static_cast<double>(base) * f));
    std::vector<std::string> row = {std::to_string(tau_d)};
    for (const std::string& name : names) {
      const PreparedData& data = Prepare(name, options);
      EngineConfig engine = DefaultEngine(options);
      engine.tau_d = tau_d;
      engine.tau_dfs = std::max(engine.tau_dfs, tau_d);
      Run run = TrainWith(data, engine, trees);
      row.push_back(Fmt(run.seconds, 3));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions options =
      BenchOptions::Parse(argc, argv, {"npool", "tdfs", "td"});
  std::vector<std::string> names = {"Allstate", "Higgs_boson", "KDD99"};
  if (options.quick) names.resize(2);
  int trees = options.quick ? 8 : 20;

  std::printf("== Table III: system parameters (scale=%g) ==\n",
              options.scale);
  if (options.RunPart("npool")) {
    SweepNpool(options, names, trees);
  }
  if (options.RunPart("tdfs")) {
    SweepTdfs(options, names, trees);
  }
  if (options.RunPart("td")) {
    SweepTd(options, names, trees);
  }
  return 0;
}
