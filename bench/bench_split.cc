// Split-kernel microbenchmark: exact (per-node sorted scans) vs
// histogram (pre-binned columns + sibling subtraction) split finding,
// at 10k / 100k / 1M rows for both learning tasks.
//
// Each case trains one full tree over all-numeric candidate columns
// and reports the train wall time per method. The histogram timing
// excludes the one-off BinnedTable build (it happens once at table
// load and is shared by every tree of the pool) but the build cost is
// reported alongside so nothing hides. Emits a one-line JSON summary
// (bench=split) after the table; check in as BENCH_split.json.
//
// Flags: --quick (smaller sizes), --max-bins=N (default 255).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/simd.h"
#include "common/timer.h"
#include "table/binned.h"
#include "table/datasets.h"
#include "tree/hist.h"
#include "tree/trainer.h"

namespace treeserver {
namespace bench {
namespace {

struct CaseResult {
  std::string label;
  size_t rows = 0;
  double exact_ms = 0.0;
  double hist_ms = 0.0;
  double bin_build_ms = 0.0;
  double speedup = 0.0;
  bool identical = false;  // trees byte-identical across methods
};

std::string SerializeTree(const TreeModel& model) {
  BinaryWriter w;
  TreeModel copy = model;
  copy.Canonicalize();
  copy.Serialize(&w);
  return w.Release();
}

CaseResult RunCase(TaskKind kind, size_t rows, int max_bins) {
  DatasetProfile profile;
  profile.name = kind == TaskKind::kClassification ? "split-cls" : "split-reg";
  profile.rows = rows;
  profile.num_numeric = 8;
  profile.num_categorical = 0;
  profile.num_classes = kind == TaskKind::kClassification ? 3 : 0;
  profile.noise = 0.05;
  profile.concept_depth = 6;
  DataTable table = GenerateTable(profile, /*seed=*/1234 + rows);

  std::vector<int> candidates;
  for (int c = 0; c < profile.num_features(); ++c) candidates.push_back(c);

  TreeConfig exact_cfg;
  exact_cfg.max_depth = 8;
  exact_cfg.min_leaf = 4;

  CaseResult r;
  r.label = (kind == TaskKind::kClassification ? std::string("cls_")
                                               : std::string("reg_")) +
            std::to_string(rows);
  r.rows = rows;

  WallTimer t;
  TreeModel exact_tree = TrainTreeOnTable(table, candidates, exact_cfg);
  r.exact_ms = t.Millis();

  TreeConfig hist_cfg = exact_cfg;
  hist_cfg.split_method = SplitMethod::kHistogram;
  hist_cfg.max_bins = max_bins;

  t.Reset();
  std::shared_ptr<const BinnedTable> binned =
      BinnedTable::Build(table, hist_cfg.max_bins);
  r.bin_build_ms = t.Millis();

  t.Reset();
  TreeModel hist_tree =
      TrainTreeOnTable(table, candidates, hist_cfg, nullptr, binned.get());
  r.hist_ms = t.Millis();

  r.speedup = r.hist_ms > 0 ? r.exact_ms / r.hist_ms : 0.0;
  r.identical = SerializeTree(exact_tree) == SerializeTree(hist_tree);
  return r;
}

// Single-thread histogram-build throughput: the trainer's per-node
// BuildMany pass over all 8 columns, best of N passes (robust to
// interference on a shared box). Rows/s counts full-node passes.
struct KernelResult {
  std::string label;  // "cls" | "reg"
  size_t rows = 0;
  double rows_per_s = 0.0;
};

KernelResult RunKernelCase(TaskKind kind, size_t rows, int max_bins,
                           int iters) {
  DatasetProfile profile;
  profile.name = kind == TaskKind::kClassification ? "hist-cls" : "hist-reg";
  profile.rows = rows;
  profile.num_numeric = 8;
  profile.num_categorical = 0;
  profile.num_classes = kind == TaskKind::kClassification ? 3 : 0;
  profile.noise = 0.05;
  profile.concept_depth = 6;
  DataTable table = GenerateTable(profile, /*seed=*/4321 + rows);
  std::shared_ptr<const BinnedTable> binned =
      BinnedTable::Build(table, max_bins);

  std::vector<const BinnedColumn*> cols;
  for (int c = 0; c < profile.num_features(); ++c) {
    cols.push_back(binned->column(c));
  }
  SplitContext ctx;
  ctx.kind = kind;
  ctx.num_classes = table.schema().num_classes();
  const Column& target = *table.target();
  const size_t n = table.num_rows();

  NodeHists out(cols.size());
  auto pass = [&] {
    NodeHistogram::BuildMany(cols.data(), cols.size(), target, ctx,
                             /*rows=*/nullptr, n, out.data());
  };
  pass();  // warm-up
  double best = 0.0;
  for (int i = 0; i < iters; ++i) {
    WallTimer t;
    pass();
    const double s = t.Seconds();
    if (i == 0 || s < best) best = s;
  }

  KernelResult r;
  r.label = kind == TaskKind::kClassification ? "cls" : "reg";
  r.rows = n;
  r.rows_per_s = best > 0 ? static_cast<double>(n) / best : 0.0;
  return r;
}

}  // namespace

int Main(int argc, char** argv) {
  BenchOptions options = BenchOptions::Parse(argc, argv);
  std::vector<size_t> sizes =
      options.quick ? std::vector<size_t>{10000, 100000}
                    : std::vector<size_t>{10000, 100000, 1000000};

  std::printf("Split-kernel bench: exact vs histogram (max_bins=%d), "
              "one tree, depth 8, 8 numeric columns\n\n",
              options.max_bins);

  TablePrinter table({"case", "rows", "exact(ms)", "hist(ms)", "binning(ms)",
                      "speedup", "same tree"});
  std::vector<CaseResult> results;
  for (TaskKind kind : {TaskKind::kClassification, TaskKind::kRegression}) {
    for (size_t rows : sizes) {
      CaseResult r = RunCase(kind, rows, options.max_bins);
      table.AddRow({r.label, std::to_string(r.rows), Fmt(r.exact_ms),
                    Fmt(r.hist_ms), Fmt(r.bin_build_ms), Fmt(r.speedup) + "x",
                    r.identical ? "yes" : "no"});
      results.push_back(std::move(r));
    }
  }
  table.Print();
  std::printf("\n(same tree = serialized trees byte-identical after "
              "Canonicalize; expected only when the columns have more bins "
              "than distinct values)\n\n");

  const size_t kernel_rows = options.quick ? 200000 : 1000000;
  const int kernel_iters = options.quick ? 5 : 10;
  std::printf("Histogram build (single thread, %zu rows x 8 columns, best "
              "of %d passes):\n",
              kernel_rows, kernel_iters);
  TablePrinter kernel_table({"task", "rows/s"});
  std::vector<KernelResult> kernels;
  for (TaskKind kind : {TaskKind::kClassification, TaskKind::kRegression}) {
    KernelResult k = RunKernelCase(kind, kernel_rows, options.max_bins,
                                   kernel_iters);
    kernel_table.AddRow({k.label, Fmt(k.rows_per_s, 0)});
    kernels.push_back(std::move(k));
  }
  kernel_table.Print();
  std::printf("\n");

  std::string json = "{\"bench\":\"split\",\"max_bins\":" +
                     std::to_string(options.max_bins) + "," +
                     SimdStatusJson();
  for (const KernelResult& k : kernels) {
    char kbuf[80];
    std::snprintf(kbuf, sizeof(kbuf), ",\"hist_build_%s_rows_per_s\":%.0f",
                  k.label.c_str(), k.rows_per_s);
    json += kbuf;
  }
  char buf[160];
  for (const CaseResult& r : results) {
    std::snprintf(buf, sizeof(buf),
                  ",\"%s_exact_ms\":%.1f,\"%s_hist_ms\":%.1f,"
                  "\"%s_speedup\":%.2f",
                  r.label.c_str(), r.exact_ms, r.label.c_str(), r.hist_ms,
                  r.label.c_str(), r.speedup);
    json += buf;
  }
  json += "}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace bench
}  // namespace treeserver

int main(int argc, char** argv) { return treeserver::bench::Main(argc, argv); }
