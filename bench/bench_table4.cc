// Regenerates Table IV: running time vs number of trees.
//   (a) MS_LTRC, (b) c14B: forest sizes 500..2000 in the paper, scaled
//       here; TreeServer vs MLlib-sim. Expected: both linear in tree
//       count, TreeServer several times faster, accuracy flat.
//   (c) XGBoost-sim with growing tree counts: accuracy keeps improving
//       (boosting), unlike bagging.

#include "baselines/gbdt.h"
#include "baselines/planet.h"
#include "bench_util.h"

using namespace treeserver;        // NOLINT
using namespace treeserver::bench;  // NOLINT

namespace {

double g_time_scale = 1.0;

void PartAB(const BenchOptions& options, const std::string& name) {
  std::printf("\n== Table IV: trees sweep on %s ==\n", name.c_str());
  const PreparedData& data = Prepare(name, options);
  // Paper sweeps 500..2000 trees; scaled to keep bench time sane.
  std::vector<int> tree_counts =
      options.quick ? std::vector<int>{10, 20, 40}
                    : std::vector<int>{25, 50, 75, 100};

  TablePrinter table({"#{trees}", "TreeServer (s)", "Acc",
                      "MLlib par (s)", "Acc"});
  for (int trees : tree_counts) {
    WallTimer ts_timer;
    EngineConfig engine = DefaultEngine(options);
    double ts_metric;
    {
      TreeServerCluster cluster(data.train, engine);
      ForestJobSpec spec;
      spec.num_trees = trees;
      spec.tree.max_depth = 10;
      spec.sqrt_columns = true;
      spec.seed = 3;
      ForestModel model = cluster.TrainForest(spec);
      ts_metric = EvaluateMetric(model, data.test);
    }
    double ts_seconds = ts_timer.Seconds();

    PlanetConfig planet;
    planet.num_trees = trees;
    planet.max_depth = 10;
    planet.sqrt_columns = true;
    planet.num_threads = options.workers * options.compers;
    planet.seed = 3;
    planet.time_scale = g_time_scale;
    WallTimer ml_timer;
    ForestModel ml_model = TrainPlanet(data.train, planet);
    double ml_seconds = ml_timer.Seconds();
    double ml_metric = EvaluateMetric(ml_model, data.test);

    TaskKind kind = data.profile.task_kind();
    table.AddRow({std::to_string(trees), Fmt(ts_seconds),
                  FormatMetric(kind, ts_metric), Fmt(ml_seconds),
                  FormatMetric(kind, ml_metric)});
  }
  table.Print();
}

void PartC(const BenchOptions& options) {
  std::printf("\n== Table IV(c): XGBoost-sim, accuracy vs tree count ==\n");
  std::vector<std::string> names = {"MS_LTRC", "c14B"};
  std::vector<int> rounds =
      options.quick ? std::vector<int>{2, 5, 10}
                    : std::vector<int>{5, 10, 20, 40};
  TablePrinter table({"#{rounds}", names[0] + " (s)", "Acc",
                      names[1] + " (s)", "Acc"});
  for (int r : rounds) {
    std::vector<std::string> row = {std::to_string(r)};
    for (const std::string& name : names) {
      const PreparedData& data = Prepare(name, options);
      GbdtConfig cfg;
      cfg.num_rounds = r;
      cfg.max_depth = 10;
      WallTimer timer;
      GbdtModel model = TrainGbdt(data.train, cfg);
      row.push_back(Fmt(timer.Seconds()));
      row.push_back(FormatMetric(TaskKind::kClassification,
                                 model.Evaluate(data.test)));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions options = BenchOptions::Parse(argc, argv, {"a", "b", "c"});
  g_time_scale = options.scale;
  std::printf("== Table IV: scalability to the number of trees (scale=%g) "
              "==\n",
              options.scale);
  if (options.RunPart("a")) {
    PartAB(options, "MS_LTRC");
  }
  if (options.RunPart("b")) {
    PartAB(options, "c14B");
  }
  if (options.RunPart("c")) {
    PartC(options);
  }
  return 0;
}
