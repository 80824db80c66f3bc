// Regenerates Table VIII: impact of model parameters on accuracy.
//   (a) d_max sweep, single tree on Higgs_boson
//   (b) d_max sweep, 20-tree forest on Higgs_boson
//   (c) |C|/|A| sweep, 20-tree forest on Allstate (RMSE)
//   (d) |C|/|A| sweep, 20-tree forest on Higgs_boson
//
// Expected shape: accuracy improves monotonically-ish with d_max (the
// exact trees are not overfitting yet at d_max=12), and the column
// ratio matters little beyond a small fraction — the paper's finding
// that 20% of columns per tree is already sufficient.

#include "bench_util.h"

using namespace treeserver;        // NOLINT
using namespace treeserver::bench;  // NOLINT

namespace {

struct Run {
  double seconds = 0.0;
  double metric = 0.0;
};

Run Train(const PreparedData& data, const BenchOptions& options, int trees,
          int max_depth, double column_ratio) {
  EngineConfig engine = DefaultEngine(options);
  WallTimer timer;
  TreeServerCluster cluster(data.train, engine);
  ForestJobSpec spec;
  spec.num_trees = trees;
  spec.tree.max_depth = max_depth;
  spec.tree.impurity = data.profile.task_kind() == TaskKind::kRegression
                           ? Impurity::kVariance
                           : Impurity::kGini;
  spec.column_ratio = column_ratio;
  spec.seed = 3;
  ForestModel model = cluster.TrainForest(spec);
  Run run;
  run.seconds = timer.Seconds();
  run.metric = EvaluateMetric(model, data.test);
  return run;
}

void SweepDepth(const BenchOptions& options, int trees) {
  std::printf("\n== Table VIII(%s): d_max sweep on Higgs_boson (%d tree%s) "
              "==\n",
              trees == 1 ? "a" : "b", trees, trees == 1 ? "" : "s");
  const PreparedData& data = Prepare("Higgs_boson", options);
  TablePrinter table({"d_max", "Time (s)", "Accuracy"});
  for (int dmax : {2, 4, 6, 8, 10, 12}) {
    Run run = Train(data, options, trees, dmax,
                    trees == 1 ? 1.0 : 0.4);
    table.AddRow({std::to_string(dmax), Fmt(run.seconds, 3),
                  FormatMetric(TaskKind::kClassification, run.metric)});
  }
  table.Print();
}

void SweepColumns(const BenchOptions& options, const std::string& name,
                  int trees) {
  std::printf("\n== Table VIII(%s): |C|/|A| sweep on %s (%d trees) ==\n",
              name == "Allstate" ? "c" : "d", name.c_str(), trees);
  const PreparedData& data = Prepare(name, options);
  TaskKind kind = data.profile.task_kind();
  TablePrinter table({"|C|/|A|", "Time (s)",
                      kind == TaskKind::kRegression ? "RMSE" : "Accuracy"});
  for (double ratio : {0.2, 0.4, 0.6, 0.8, 1.0}) {
    Run run = Train(data, options, trees, 10, ratio);
    char label[16];
    std::snprintf(label, sizeof(label), "%.0f%%", ratio * 100);
    table.AddRow({label, Fmt(run.seconds, 3), FormatMetric(kind, run.metric)});
  }
  table.Print();
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions options = BenchOptions::Parse(argc, argv, {"dmax", "cratio"});
  int trees = options.quick ? 8 : 20;
  std::printf("== Table VIII: model parameters (scale=%g) ==\n",
              options.scale);
  if (options.RunPart("dmax")) {
    SweepDepth(options, 1);
    SweepDepth(options, trees);
  }
  if (options.RunPart("cratio")) {
    SweepColumns(options, "Allstate", trees);
    SweepColumns(options, "Higgs_boson", trees);
  }
  return 0;
}
