// Regenerates Table II: system comparison on all Table I datasets.
//   (a) one decision tree   — TreeServer vs MLlib(parallel) vs MLlib(1T)
//   (b) random forest, 20 trees, sqrt(|A|) columns per tree
//   (c) 100-tree bagging (TreeServer) vs 100-round boosting (XGBoost
//       stand-in). Tree counts scale down with --quick.
//
// Expected shape (not absolute numbers): TreeServer several times
// faster than the MLlib simulator everywhere (exact splits computed by
// whole-column owners vs level-synchronous histogram jobs), accuracy
// >= MLlib's in most rows (exact vs binned splits), boosting sometimes
// more accurate but far slower than bagging at equal tree counts.

#include "baselines/gbdt.h"
#include "baselines/planet.h"
#include "bench_util.h"

using namespace treeserver;        // NOLINT
using namespace treeserver::bench;  // NOLINT

namespace {

double g_time_scale = 1.0;

struct SystemRun {
  double seconds = 0.0;
  double metric = 0.0;
};

SystemRun RunTreeServer(const PreparedData& data, const BenchOptions& options,
                        int trees, bool sqrt_columns) {
  EngineConfig engine = DefaultEngine(options);
  WallTimer timer;
  TreeServerCluster cluster(data.train, engine);
  ForestJobSpec spec;
  spec.num_trees = trees;
  spec.tree.max_depth = 10;
  spec.tree.impurity = data.profile.task_kind() == TaskKind::kRegression
                           ? Impurity::kVariance
                           : Impurity::kGini;
  spec.sqrt_columns = sqrt_columns;
  spec.seed = 3;
  ForestModel model = cluster.TrainForest(spec);
  SystemRun run;
  run.seconds = timer.Seconds();
  run.metric = EvaluateMetric(model, data.test);
  return run;
}

SystemRun RunPlanet(const PreparedData& data, int trees, bool sqrt_columns,
                    int threads) {
  PlanetConfig cfg;
  cfg.num_trees = trees;
  cfg.max_depth = 10;
  cfg.sqrt_columns = sqrt_columns;
  cfg.impurity = data.profile.task_kind() == TaskKind::kRegression
                     ? Impurity::kVariance
                     : Impurity::kGini;
  cfg.num_threads = threads;
  cfg.seed = 3;
  cfg.time_scale = g_time_scale;
  WallTimer timer;
  ForestModel model = TrainPlanet(data.train, cfg);
  SystemRun run;
  run.seconds = timer.Seconds();
  run.metric = EvaluateMetric(model, data.test);
  return run;
}

SystemRun RunGbdt(const PreparedData& data, int rounds) {
  GbdtConfig cfg;
  cfg.num_rounds = rounds;
  cfg.max_depth = 10;
  cfg.num_threads = 1;
  WallTimer timer;
  GbdtModel model = TrainGbdt(data.train, cfg);
  SystemRun run;
  run.seconds = timer.Seconds();
  run.metric = model.Evaluate(data.test);
  return run;
}

std::vector<std::string> DatasetNames(const BenchOptions& options) {
  std::vector<std::string> names = {"Allstate", "Higgs_boson", "MS_LTRC",
                                    "c14B",     "Covtype",     "Poker",
                                    "KDD99",    "SUSY",        "loan_m1",
                                    "loan_y1",  "loan_y2"};
  if (options.quick) names.resize(5);
  return names;
}

void PartA(const BenchOptions& options) {
  std::printf("\n== Table II(a): one decision tree ==\n");
  TablePrinter table({"Dataset", "TreeServer (s)", "Acc", "MLlib par (s)",
                      "Acc", "MLlib 1T (s)", "Acc"});
  for (const std::string& name : DatasetNames(options)) {
    const PreparedData& data = Prepare(name, options);
    SystemRun ts = RunTreeServer(data, options, 1, false);
    SystemRun mp = RunPlanet(data, 1, false, options.workers * options.compers);
    SystemRun m1 = RunPlanet(data, 1, false, 1);
    TaskKind kind = data.profile.task_kind();
    table.AddRow({name, Fmt(ts.seconds), FormatMetric(kind, ts.metric),
                  Fmt(mp.seconds), FormatMetric(kind, mp.metric),
                  Fmt(m1.seconds), FormatMetric(kind, m1.metric)});
  }
  table.Print();
}

void PartB(const BenchOptions& options) {
  int trees = options.quick ? 8 : 20;
  std::printf("\n== Table II(b): random forest (%d trees, sqrt cols) ==\n",
              trees);
  TablePrinter table({"Dataset", "TreeServer (s)", "Acc", "MLlib par (s)",
                      "Acc", "MLlib 1T (s)", "Acc"});
  for (const std::string& name : DatasetNames(options)) {
    const PreparedData& data = Prepare(name, options);
    SystemRun ts = RunTreeServer(data, options, trees, true);
    SystemRun mp = RunPlanet(data, trees, true, options.workers * options.compers);
    SystemRun m1 = RunPlanet(data, trees, true, 1);
    TaskKind kind = data.profile.task_kind();
    table.AddRow({name, Fmt(ts.seconds), FormatMetric(kind, ts.metric),
                  Fmt(mp.seconds), FormatMetric(kind, mp.metric),
                  Fmt(m1.seconds), FormatMetric(kind, m1.metric)});
  }
  table.Print();
}

void PartC(const BenchOptions& options) {
  // The paper uses 100 trees / 100 boosting rounds; the boosting
  // baseline is O(rounds) sequential, so the bench scales the counts
  // down together — the bagging-vs-boosting time gap is the point.
  int trees = options.quick ? 10 : 30;
  int rounds = options.quick ? 10 : 30;
  std::printf(
      "\n== Table II(c): TreeServer bagging (%d trees) vs boosting "
      "(%d rounds) ==\n",
      trees, rounds);
  TablePrinter table({"Dataset", "TreeServer (s)", "Acc", "XGBoost-sim (s)",
                      "Acc"});
  for (const std::string& name : DatasetNames(options)) {
    const PreparedData& data = Prepare(name, options);
    SystemRun ts = RunTreeServer(data, options, trees, true);
    SystemRun gb = RunGbdt(data, rounds);
    TaskKind kind = data.profile.task_kind();
    table.AddRow({name, Fmt(ts.seconds), FormatMetric(kind, ts.metric),
                  Fmt(gb.seconds), FormatMetric(kind, gb.metric)});
  }
  table.Print();
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions options = BenchOptions::Parse(argc, argv, {"a", "b", "c"});
  g_time_scale = options.scale;
  std::printf("== Table II: system comparison (scale=%g, %d workers x %d "
              "compers) ==\n",
              options.scale, options.workers, options.compers);
  if (options.RunPart("a")) PartA(options);
  if (options.RunPart("b")) PartB(options);
  if (options.RunPart("c")) PartC(options);
  return 0;
}
