#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "common/rng.h"
#include "engine/cluster.h"
#include "forest/forest.h"
#include "table/binned.h"
#include "table/datasets.h"
#include "tree/hist.h"
#include "tree/split.h"
#include "tree/trainer.h"

namespace treeserver {
namespace {

SplitContext ClsCtx(int classes, Impurity imp = Impurity::kGini) {
  return SplitContext{TaskKind::kClassification, imp, classes};
}
SplitContext RegCtx() {
  return SplitContext{TaskKind::kRegression, Impurity::kVariance, 0};
}

std::string SerializeCanonical(TreeModel model) {
  model.Canonicalize();
  BinaryWriter w;
  model.Serialize(&w);
  return w.buffer();
}

std::string SerializeForestBytes(const ForestModel& forest) {
  BinaryWriter w;
  forest.Serialize(&w);
  return w.buffer();
}

/// Classification table whose numeric features take at most `grid`
/// distinct values, so histogram mode with max_bins >= grid must
/// reproduce the exact tree bit for bit.
DataTable GridClsTable(size_t rows, int num_cols, int grid, int classes,
                       uint64_t seed, double missing_fraction = 0.0) {
  Rng rng(seed);
  std::vector<std::vector<double>> feats(num_cols,
                                         std::vector<double>(rows));
  std::vector<int32_t> y(rows);
  for (size_t r = 0; r < rows; ++r) {
    double s = 0.0;
    for (int c = 0; c < num_cols; ++c) {
      if (missing_fraction > 0 && rng.Bernoulli(missing_fraction)) {
        feats[c][r] = MissingNumeric();
      } else {
        feats[c][r] = static_cast<double>(rng.Uniform(grid));
        s += (c + 1) * feats[c][r];
      }
    }
    int32_t label = static_cast<int32_t>(s / grid) % classes;
    if (rng.Bernoulli(0.05)) {
      label = static_cast<int32_t>(rng.Uniform(classes));
    }
    y[r] = label;
  }
  std::vector<ColumnMeta> metas;
  std::vector<ColumnPtr> cols;
  for (int c = 0; c < num_cols; ++c) {
    std::string name = "x" + std::to_string(c);
    metas.push_back({name, DataType::kNumeric, 0});
    cols.push_back(Column::Numeric(name, std::move(feats[c])));
  }
  metas.push_back({"y", DataType::kCategorical, classes});
  cols.push_back(Column::Categorical("y", std::move(y), classes));
  auto t = DataTable::Make(Schema(metas, num_cols, TaskKind::kClassification),
                           std::move(cols));
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

/// Regression table with grid features and integer-valued targets:
/// integer sums make the floating-point histogram arithmetic exact, so
/// parity with the exact kernel is bit-for-bit.
DataTable GridRegTable(size_t rows, int num_cols, int grid, uint64_t seed,
                       double missing_fraction = 0.0) {
  Rng rng(seed);
  std::vector<std::vector<double>> feats(num_cols,
                                         std::vector<double>(rows));
  std::vector<double> y(rows);
  for (size_t r = 0; r < rows; ++r) {
    double s = 0.0;
    for (int c = 0; c < num_cols; ++c) {
      if (missing_fraction > 0 && rng.Bernoulli(missing_fraction)) {
        feats[c][r] = MissingNumeric();
      } else {
        feats[c][r] = static_cast<double>(rng.Uniform(grid));
        s += (c + 1) * feats[c][r];
      }
    }
    y[r] = std::floor(s) + static_cast<double>(rng.Uniform(5));
  }
  std::vector<ColumnMeta> metas;
  std::vector<ColumnPtr> cols;
  for (int c = 0; c < num_cols; ++c) {
    std::string name = "x" + std::to_string(c);
    metas.push_back({name, DataType::kNumeric, 0});
    cols.push_back(Column::Numeric(name, std::move(feats[c])));
  }
  metas.push_back({"y", DataType::kNumeric, 0});
  cols.push_back(Column::Numeric("y", std::move(y)));
  auto t = DataTable::Make(Schema(metas, num_cols, TaskKind::kRegression),
                           std::move(cols));
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

// -------------------------------------------------------------------
// Binning.
// -------------------------------------------------------------------

TEST(BinnedColumnTest, OneBinPerDistinctValueWhenTheyFit) {
  auto col = Column::Numeric("x", {5.0, 1.0, 3.0, 1.0, 5.0, 3.0, 3.0});
  auto binned = BinnedColumn::Build(*col, 255);
  ASSERT_EQ(binned->num_bins(), 3);
  EXPECT_FALSE(binned->wide());
  EXPECT_DOUBLE_EQ(binned->upper(0), 1.0);
  EXPECT_DOUBLE_EQ(binned->upper(1), 3.0);
  EXPECT_DOUBLE_EQ(binned->upper(2), 5.0);
  // Codes follow value order.
  EXPECT_EQ(binned->code_at(0), 2);
  EXPECT_EQ(binned->code_at(1), 0);
  EXPECT_EQ(binned->code_at(2), 1);
  EXPECT_EQ(binned->num_rows(), 7u);
}

TEST(BinnedColumnTest, MissingValuesGetTheMissingBin) {
  auto col = Column::Numeric("x", {1.0, MissingNumeric(), 2.0,
                                   MissingNumeric()});
  auto binned = BinnedColumn::Build(*col, 16);
  ASSERT_EQ(binned->num_bins(), 2);
  EXPECT_EQ(binned->missing_code(), 2);
  EXPECT_EQ(binned->code_at(1), binned->missing_code());
  EXPECT_EQ(binned->code_at(3), binned->missing_code());
  EXPECT_EQ(binned->CodeOf(MissingNumeric()), binned->missing_code());
}

TEST(BinnedColumnTest, QuantileCutsBoundTheBinCountAndCoverTheMax) {
  Rng rng(7);
  std::vector<double> values(5000);
  for (double& v : values) v = rng.UniformDouble(-10.0, 10.0);
  auto col = Column::Numeric("x", values);
  auto binned = BinnedColumn::Build(*col, 64);
  EXPECT_LE(binned->num_bins(), 64);
  EXPECT_GE(binned->num_bins(), 32);  // smooth data: cuts shouldn't collapse
  double max_v = *std::max_element(values.begin(), values.end());
  EXPECT_DOUBLE_EQ(binned->upper(binned->num_bins() - 1), max_v);
  // Every value's bin upper bound is >= the value, and the previous
  // bin's upper bound (if any) is < the value.
  for (size_t i = 0; i < values.size(); ++i) {
    int b = binned->code_at(i);
    EXPECT_GE(binned->upper(b), values[i]);
    if (b > 0) {
      EXPECT_LT(binned->upper(b - 1), values[i]);
    }
  }
}

TEST(BinnedColumnTest, WideCodesBeyond255Bins) {
  std::vector<double> values(1000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i);  // 1000 distinct values
  }
  auto col = Column::Numeric("x", values);
  auto binned = BinnedColumn::Build(*col, 1000);
  EXPECT_EQ(binned->num_bins(), 1000);
  EXPECT_TRUE(binned->wide());
  EXPECT_EQ(binned->code_at(999), 999);
}

TEST(BinnedColumnTest, BindGatheredReusesGlobalBoundaries) {
  auto col = Column::Numeric("x", {0.0, 1.0, 2.0, 3.0, 4.0, 5.0});
  auto global = BinnedColumn::Build(*col, 255);
  auto gathered = Column::Numeric("x", {4.0, 1.0});
  auto bound = global->BindGathered(*gathered);
  EXPECT_EQ(bound->num_bins(), global->num_bins());
  EXPECT_EQ(bound->code_at(0), global->code_at(4));
  EXPECT_EQ(bound->code_at(1), global->code_at(1));
}

// -------------------------------------------------------------------
// Histogram kernel vs exact kernel.
// -------------------------------------------------------------------

TEST(NodeHistogramTest, MatchesExactKernelClassification) {
  DataTable t = GridClsTable(800, 3, 20, 3, 42, /*missing=*/0.1);
  SplitContext ctx = ClsCtx(3);
  for (int col = 0; col < 3; ++col) {
    auto binned = BinnedColumn::Build(*t.column(col), 255);
    NodeHistogram h = NodeHistogram::Build(*binned, *t.target(), ctx,
                                           nullptr, t.num_rows());
    SplitOutcome hist = h.BestSplit(*binned, col, ctx);
    SplitOutcome exact = FindBestSplit(*t.column(col), col, *t.target(), ctx,
                                       nullptr, t.num_rows());
    ASSERT_EQ(hist.valid, exact.valid) << "col " << col;
    if (!exact.valid) continue;
    EXPECT_TRUE(hist.condition == exact.condition) << "col " << col;
    EXPECT_DOUBLE_EQ(hist.gain, exact.gain) << "col " << col;
    EXPECT_EQ(hist.n_left(), exact.n_left());
    EXPECT_EQ(hist.n_right(), exact.n_right());
    EXPECT_EQ(hist.left_stats.cls.counts, exact.left_stats.cls.counts);
    EXPECT_EQ(hist.right_stats.cls.counts, exact.right_stats.cls.counts);
  }
}

TEST(NodeHistogramTest, MatchesExactKernelRegression) {
  DataTable t = GridRegTable(800, 3, 20, 43, /*missing=*/0.1);
  SplitContext ctx = RegCtx();
  for (int col = 0; col < 3; ++col) {
    auto binned = BinnedColumn::Build(*t.column(col), 255);
    NodeHistogram h = NodeHistogram::Build(*binned, *t.target(), ctx,
                                           nullptr, t.num_rows());
    SplitOutcome hist = h.BestSplit(*binned, col, ctx);
    SplitOutcome exact = FindBestSplit(*t.column(col), col, *t.target(), ctx,
                                       nullptr, t.num_rows());
    ASSERT_EQ(hist.valid, exact.valid) << "col " << col;
    if (!exact.valid) continue;
    EXPECT_TRUE(hist.condition == exact.condition) << "col " << col;
    EXPECT_DOUBLE_EQ(hist.gain, exact.gain) << "col " << col;
    EXPECT_DOUBLE_EQ(hist.left_stats.reg.sum, exact.left_stats.reg.sum);
    EXPECT_DOUBLE_EQ(hist.right_stats.reg.sum, exact.right_stats.reg.sum);
  }
}

TEST(NodeHistogramTest, MissingRowsRouteToTheLargerChild) {
  // 2 + 4 non-missing rows and 3 missing ones: the missing rows must
  // land in the right (larger) child, exactly like the exact kernel.
  auto x = Column::Numeric("x", {1, 1, 2, 2, 2, 2, MissingNumeric(),
                                 MissingNumeric(), MissingNumeric()});
  auto y = Column::Categorical("y", {0, 0, 1, 1, 1, 1, 0, 1, 0}, 2);
  SplitContext ctx = ClsCtx(2);
  auto binned = BinnedColumn::Build(*x, 16);
  NodeHistogram h = NodeHistogram::Build(*binned, *y, ctx, nullptr, 9);
  SplitOutcome hist = h.BestSplit(*binned, 0, ctx);
  ASSERT_TRUE(hist.valid);
  EXPECT_FALSE(hist.condition.missing_to_left);
  EXPECT_EQ(hist.n_left(), 2);
  EXPECT_EQ(hist.n_right(), 7);  // 4 non-missing + 3 missing

  SplitOutcome exact = FindBestSplit(*x, 0, *y, ctx, nullptr, 9);
  ASSERT_TRUE(exact.valid);
  EXPECT_TRUE(hist.condition == exact.condition);
  EXPECT_DOUBLE_EQ(hist.gain, exact.gain);
}

TEST(NodeHistogramTest, SubtractionMatchesDirectBuild) {
  DataTable t = GridClsTable(600, 1, 12, 3, 77, /*missing=*/0.05);
  SplitContext ctx = ClsCtx(3);
  auto binned = BinnedColumn::Build(*t.column(0), 255);
  std::vector<uint32_t> left_rows, right_rows;
  for (uint32_t r = 0; r < t.num_rows(); ++r) {
    (r % 3 == 0 ? left_rows : right_rows).push_back(r);
  }
  NodeHistogram parent = NodeHistogram::Build(*binned, *t.target(), ctx,
                                              nullptr, t.num_rows());
  NodeHistogram left = NodeHistogram::Build(*binned, *t.target(), ctx,
                                            left_rows.data(),
                                            left_rows.size());
  NodeHistogram right = NodeHistogram::Build(*binned, *t.target(), ctx,
                                             right_rows.data(),
                                             right_rows.size());
  NodeHistogram derived = NodeHistogram::Subtract(parent, left);
  SplitOutcome from_direct = right.BestSplit(*binned, 0, ctx);
  SplitOutcome from_derived = derived.BestSplit(*binned, 0, ctx);
  ASSERT_EQ(from_direct.valid, from_derived.valid);
  if (from_direct.valid) {
    EXPECT_TRUE(from_direct.condition == from_derived.condition);
    EXPECT_DOUBLE_EQ(from_direct.gain, from_derived.gain);
    EXPECT_EQ(from_direct.left_stats.cls.counts,
              from_derived.left_stats.cls.counts);
  }
}

// -------------------------------------------------------------------
// Whole-tree parity.
// -------------------------------------------------------------------

TEST(HistTreeParityTest, ClassificationTreeIsByteIdentical) {
  DataTable t = GridClsTable(2000, 4, 40, 3, 9, /*missing=*/0.08);
  TreeConfig exact_cfg;
  exact_cfg.max_depth = 9;
  exact_cfg.min_leaf = 2;
  TreeConfig hist_cfg = exact_cfg;
  hist_cfg.split_method = SplitMethod::kHistogram;
  hist_cfg.max_bins = 64;  // >= 40 distinct values: exact degeneration

  TreeModel exact = TrainTreeOnTable(t, {0, 1, 2, 3}, exact_cfg);
  TreeModel hist = TrainTreeOnTable(t, {0, 1, 2, 3}, hist_cfg);
  EXPECT_GT(exact.num_nodes(), 1u);
  EXPECT_EQ(SerializeCanonical(exact), SerializeCanonical(hist));
}

TEST(HistTreeParityTest, RegressionTreeIsByteIdentical) {
  DataTable t = GridRegTable(2000, 4, 40, 10, /*missing=*/0.08);
  TreeConfig exact_cfg;
  exact_cfg.max_depth = 9;
  exact_cfg.min_leaf = 2;
  exact_cfg.impurity = Impurity::kVariance;
  TreeConfig hist_cfg = exact_cfg;
  hist_cfg.split_method = SplitMethod::kHistogram;
  hist_cfg.max_bins = 64;

  TreeModel exact = TrainTreeOnTable(t, {0, 1, 2, 3}, exact_cfg);
  TreeModel hist = TrainTreeOnTable(t, {0, 1, 2, 3}, hist_cfg);
  EXPECT_GT(exact.num_nodes(), 1u);
  EXPECT_EQ(SerializeCanonical(exact), SerializeCanonical(hist));
}

TEST(HistTreeParityTest, ManyCategoryColumnsFallBackToTheExactKernel) {
  // A categorical column with > 64 categories is never binned; both
  // methods must run the identical one-vs-rest kernel on it.
  const int kCard = 80;
  Rng rng(5);
  const size_t rows = 1500;
  std::vector<int32_t> cat(rows);
  std::vector<double> num(rows);
  std::vector<int32_t> y(rows);
  for (size_t r = 0; r < rows; ++r) {
    cat[r] = static_cast<int32_t>(rng.Uniform(kCard));
    num[r] = static_cast<double>(rng.Uniform(30));
    y[r] = (cat[r] % 3 == 0 || num[r] > 20) ? 1 : 0;
    if (rng.Bernoulli(0.05)) y[r] = 1 - y[r];
  }
  std::vector<ColumnMeta> metas = {{"c", DataType::kCategorical, kCard},
                                   {"x", DataType::kNumeric, 0},
                                   {"y", DataType::kCategorical, 2}};
  std::vector<ColumnPtr> cols = {Column::Categorical("c", cat, kCard),
                                 Column::Numeric("x", num),
                                 Column::Categorical("y", y, 2)};
  auto made = DataTable::Make(Schema(metas, 2, TaskKind::kClassification),
                              std::move(cols));
  ASSERT_TRUE(made.ok());
  DataTable t = std::move(made).value();

  TreeConfig exact_cfg;
  exact_cfg.max_depth = 8;
  TreeConfig hist_cfg = exact_cfg;
  hist_cfg.split_method = SplitMethod::kHistogram;
  hist_cfg.max_bins = 64;

  TreeModel exact = TrainTreeOnTable(t, {0, 1}, exact_cfg);
  TreeModel hist = TrainTreeOnTable(t, {0, 1}, hist_cfg);
  EXPECT_GT(exact.num_nodes(), 1u);
  EXPECT_EQ(SerializeCanonical(exact), SerializeCanonical(hist));
}

TEST(HistTreeParityTest, CoarseBinsStillGrowAUsefulTree) {
  // More distinct values than bins: no parity promise, but the tree
  // must still split and fit the planted concept reasonably.
  DatasetProfile p;
  p.rows = 4000;
  p.num_numeric = 5;
  p.num_categorical = 0;
  p.num_classes = 2;
  p.noise = 0.05;
  DataTable t = GenerateTable(p, 21);
  TreeConfig cfg;
  cfg.max_depth = 8;
  cfg.split_method = SplitMethod::kHistogram;
  cfg.max_bins = 16;
  TreeModel tree = TrainTreeOnTable(t, {0, 1, 2, 3, 4}, cfg);
  EXPECT_GT(tree.num_nodes(), 8u);
  size_t correct = 0;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (tree.PredictLabel(t, r) == t.target()->category_at(r)) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / t.num_rows(), 0.8);
}

TEST(HistCountersTest, KernelsReportToTheMetricsRegistry) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* builds = reg.GetCounter("split.histogram_builds");
  Counter* subs = reg.GetCounter("split.sibling_subtractions");
  Counter* sorts = reg.GetCounter("split.exact_sorts");

  DataTable t = GridClsTable(1200, 3, 25, 3, 3);
  TreeConfig cfg;
  cfg.max_depth = 7;

  uint64_t sorts0 = sorts->value();
  TrainTreeOnTable(t, {0, 1, 2}, cfg);
  EXPECT_GT(sorts->value(), sorts0);

  cfg.split_method = SplitMethod::kHistogram;
  uint64_t builds0 = builds->value();
  uint64_t subs0 = subs->value();
  TrainTreeOnTable(t, {0, 1, 2}, cfg);
  EXPECT_GT(builds->value(), builds0);
  EXPECT_GT(subs->value(), subs0);  // deep tree: siblings get derived
}

// -------------------------------------------------------------------
// Cluster-mode parity (in-process engine).
// -------------------------------------------------------------------

EngineConfig SmallEngine() {
  EngineConfig cfg;
  cfg.num_workers = 3;
  cfg.compers_per_worker = 2;
  cfg.replication = 2;
  cfg.tau_d = 600;    // force column-tasks near the root
  cfg.tau_dfs = 1500;
  return cfg;
}

TEST(HistEngineParityTest, ClassificationForestMatchesSerialHistogram) {
  DatasetProfile p;
  p.rows = 3000;
  p.num_numeric = 6;
  p.num_categorical = 2;
  p.num_classes = 3;
  p.noise = 0.08;
  DataTable t = GenerateTable(p, 11);

  ForestJobSpec spec;
  spec.num_trees = 3;
  spec.tree.max_depth = 8;
  spec.tree.split_method = SplitMethod::kHistogram;
  spec.tree.max_bins = 32;  // coarse on purpose: continuous columns

  TreeServerCluster cluster(t, SmallEngine());
  ForestModel forest = cluster.TrainForest(spec);
  ForestModel reference = TrainForestSerial(t, spec, 2);
  ASSERT_EQ(forest.num_trees(), static_cast<size_t>(spec.num_trees));
  EXPECT_EQ(SerializeForestBytes(forest), SerializeForestBytes(reference))
      << "histogram-mode engine must reproduce serial histogram training";
}

TEST(HistEngineParityTest, RegressionForestMatchesSerialWithIntegerTargets) {
  // Integer-valued targets keep every histogram sum exact, so even the
  // regression path is byte-reproducible between engine and serial.
  DataTable t = GridRegTable(2500, 5, 60, 33);
  ForestJobSpec spec;
  spec.num_trees = 2;
  spec.tree.max_depth = 8;
  spec.tree.impurity = Impurity::kVariance;
  spec.tree.split_method = SplitMethod::kHistogram;
  spec.tree.max_bins = 64;

  TreeServerCluster cluster(t, SmallEngine());
  ForestModel forest = cluster.TrainForest(spec);
  ForestModel reference = TrainForestSerial(t, spec, 2);
  ASSERT_EQ(forest.num_trees(), static_cast<size_t>(spec.num_trees));
  EXPECT_EQ(SerializeForestBytes(forest), SerializeForestBytes(reference));
}


// -------------------------------------------------------------------
// Histogram fuzz: BuildMany vs a naive per-row accumulation, bit for
// bit, over both code widths, populated missing bins, empty bins,
// ragged identity and scattered row lists, and several columns per
// call.
// -------------------------------------------------------------------

/// Regression table with CONTINUOUS targets: real-valued sums make any
/// reassociation of the per-bin accumulation visible as a bit
/// difference.
DataTable ContinuousRegTable(size_t rows, int num_cols, int distinct,
                             uint64_t seed, double missing_fraction) {
  Rng rng(seed);
  std::vector<std::vector<double>> feats(num_cols, std::vector<double>(rows));
  std::vector<double> y(rows);
  for (size_t r = 0; r < rows; ++r) {
    for (int c = 0; c < num_cols; ++c) {
      feats[c][r] = rng.Bernoulli(missing_fraction)
                        ? MissingNumeric()
                        : static_cast<double>(rng.Uniform(distinct));
    }
    y[r] = rng.Normal() * 3.7 + rng.UniformDouble();
  }
  std::vector<ColumnMeta> metas;
  std::vector<ColumnPtr> cols;
  for (int c = 0; c < num_cols; ++c) {
    std::string name = "x" + std::to_string(c);
    metas.push_back({name, DataType::kNumeric, 0});
    cols.push_back(Column::Numeric(name, std::move(feats[c])));
  }
  metas.push_back({"y", DataType::kNumeric, 0});
  cols.push_back(Column::Numeric("y", std::move(y)));
  auto t = DataTable::Make(Schema(metas, num_cols, TaskKind::kRegression),
                           std::move(cols));
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

/// A sorted scattered row subset of size m (row ids, not positions).
std::vector<uint32_t> ScatteredRows(size_t n, size_t m, Rng* rng) {
  std::vector<uint32_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = static_cast<uint32_t>(i);
  rng->Shuffle(&rows);
  rows.resize(std::min(m, n));
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// The reference: one row at a time through the column accessors, in
/// position order, one accumulator per bin.
void ExpectMatchesNaive(const NodeHistogram& h, const BinnedColumn& bc,
                        const Column& target, const SplitContext& ctx,
                        const uint32_t* rows, size_t n,
                        const std::string& what) {
  const size_t slots = static_cast<size_t>(bc.missing_code()) + 1;
  ASSERT_EQ(h.slots(), static_cast<int>(slots)) << what;
  if (ctx.kind == TaskKind::kClassification) {
    const size_t c = static_cast<size_t>(ctx.num_classes);
    std::vector<int64_t> counts(slots * c, 0);
    for (size_t i = 0; i < n; ++i) {
      const size_t row = rows != nullptr ? rows[i] : i;
      counts[bc.code_at(row) * c + target.category_at(row)]++;
    }
    ASSERT_EQ(h.cls_size(), counts.size()) << what;
    EXPECT_EQ(std::memcmp(h.cls_data(), counts.data(),
                          counts.size() * sizeof(int64_t)),
              0)
        << what << ": class counts differ";
  } else {
    std::vector<HistRegBin> bins(slots);
    for (size_t i = 0; i < n; ++i) {
      const size_t row = rows != nullptr ? rows[i] : i;
      HistRegBin& b = bins[bc.code_at(row)];
      const double y = target.numeric_at(row);
      ++b.n;
      b.sum += y;
      b.sum_sq += y * y;
    }
    ASSERT_EQ(h.reg_size(), bins.size()) << what;
    EXPECT_EQ(std::memcmp(h.reg_data(), bins.data(),
                          bins.size() * sizeof(HistRegBin)),
              0)
        << what << ": regression bins differ";
  }
}

void FuzzHistograms(TaskKind kind) {
  const size_t n = 3000;
  const int num_cols = 5;
  const bool cls = kind == TaskKind::kClassification;
  Rng rng(cls ? 101 : 202);
  // distinct = 9 gives uint8 codes, 700 uint16; max_bins = 900 >
  // distinct leaves empty bins, and 15% missing cells populate the
  // missing bin.
  for (int distinct : {9, 700}) {
    DataTable t = cls ? GridClsTable(n, num_cols, distinct, 4, 11 + distinct,
                                     /*missing_fraction=*/0.15)
                      : ContinuousRegTable(n, num_cols, distinct,
                                           13 + distinct,
                                           /*missing_fraction=*/0.15);
    const SplitContext ctx = cls ? ClsCtx(4) : RegCtx();
    std::vector<std::shared_ptr<const BinnedColumn>> owned;
    std::vector<const BinnedColumn*> cols;
    for (int c = 0; c < num_cols; ++c) {
      owned.push_back(BinnedColumn::Build(*t.column(c), 900));
      cols.push_back(owned.back().get());
    }
    ASSERT_EQ(cols[0]->wide(), distinct > 255);
    for (size_t m : {size_t{1}, size_t{7}, size_t{127}, size_t{129},
                     size_t{1000}, n}) {
      for (bool scattered : {false, true}) {
        std::vector<uint32_t> rows;
        const uint32_t* rows_ptr = nullptr;
        if (scattered) {
          rows = ScatteredRows(n, m, &rng);
          rows_ptr = rows.data();
        }
        const size_t take = scattered ? rows.size() : std::min(m, n);
        std::vector<NodeHistogram> got(cols.size());
        NodeHistogram::BuildMany(cols.data(), cols.size(), *t.target(), ctx,
                                 rows_ptr, take, got.data());
        for (int c = 0; c < num_cols; ++c) {
          const std::string what =
              "distinct=" + std::to_string(distinct) +
              " n=" + std::to_string(take) +
              (scattered ? " scattered" : " identity") +
              " col=" + std::to_string(c);
          ExpectMatchesNaive(got[c], *cols[c], *t.target(), ctx, rows_ptr,
                             take, what);
        }
      }
    }
  }
}

TEST(HistFuzzTest, ClassificationHistogramsMatchNaiveAccumulation) {
  FuzzHistograms(TaskKind::kClassification);
}

TEST(HistFuzzTest, RegressionHistogramsMatchNaiveAccumulation) {
  FuzzHistograms(TaskKind::kRegression);
}

}  // namespace
}  // namespace treeserver
