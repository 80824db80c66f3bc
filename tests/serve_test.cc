#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "deepforest/deep_forest.h"
#include "forest/forest.h"
#include "serve/compiled_model.h"
#include "serve/model_io.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "table/binned.h"
#include "table/datasets.h"
#include "tree/trainer.h"

namespace treeserver {
namespace {

DataTable MixedData(int classes, size_t rows, uint64_t seed,
                    double missing = 0.1) {
  DatasetProfile p;
  p.rows = rows;
  p.num_numeric = 5;
  p.num_categorical = 3;
  p.num_classes = classes;
  p.missing_fraction = missing;
  p.noise = 0.05;
  p.concept_depth = 6;
  return GenerateTable(p, seed);
}

ForestModel TrainSmallForest(const DataTable& t, int trees = 8,
                             int max_depth = 7, uint64_t seed = 17) {
  ForestJobSpec spec;
  spec.num_trees = trees;
  spec.tree.max_depth = max_depth;
  spec.column_ratio = 0.7;
  spec.seed = seed;
  if (t.schema().task_kind() == TaskKind::kRegression) {
    spec.tree.impurity = Impurity::kVariance;
  }
  return TrainForestSerial(t, spec, 2);
}

/// A copy of `t` with deliberately hostile feature cells: missing
/// numerics (NaN), missing categories (-1), and categorical codes
/// beyond every cardinality the trainer ever saw (unseen at any split).
DataTable Mutate(const DataTable& t, uint64_t seed) {
  Rng rng(seed);
  std::vector<ColumnMeta> metas;
  std::vector<ColumnPtr> cols;
  for (int c = 0; c < t.num_columns(); ++c) {
    ColumnMeta meta = t.schema().column(c);
    if (c == t.schema().target_index()) {
      metas.push_back(meta);
      cols.push_back(t.column(c));
      continue;
    }
    if (meta.type == DataType::kNumeric) {
      std::vector<double> v = t.column(c)->numeric_values();
      for (double& x : v) {
        if (rng.Bernoulli(0.15)) x = MissingNumeric();
      }
      cols.push_back(Column::Numeric(meta.name, std::move(v)));
    } else {
      std::vector<int32_t> v = t.column(c)->categorical_codes();
      const int32_t card = meta.cardinality;
      for (int32_t& x : v) {
        double r = rng.UniformDouble();
        if (r < 0.10) {
          x = kMissingCategory;
        } else if (r < 0.25) {
          // Unseen code: beyond the training cardinality, including
          // codes far past any compiled bitmask width.
          x = card + static_cast<int32_t>(rng.Uniform(200));
        }
      }
      meta.cardinality = card + 200;
      cols.push_back(
          Column::Categorical(meta.name, std::move(v), meta.cardinality));
    }
    metas.push_back(meta);
  }
  return DataTable(Schema(std::move(metas), t.schema().target_index(),
                          t.schema().task_kind()),
                   std::move(cols));
}

std::vector<uint32_t> AllRows(const DataTable& t) {
  std::vector<uint32_t> rows(t.num_rows());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<uint32_t>(i);
  return rows;
}

/// Exact (bit-for-bit) agreement between the compiled forest and the
/// row-at-a-time reference on every row of `eval`, at several depth
/// cutoffs.
void ExpectClassificationParity(const ForestModel& forest,
                                const CompiledForest& compiled,
                                const DataTable& eval) {
  const std::vector<uint32_t> rows = AllRows(eval);
  const int k = forest.num_classes();
  std::vector<float> pmf(rows.size() * k);
  std::vector<int32_t> labels(rows.size());
  for (int max_depth : {-1, 0, 1, 3, 64}) {
    compiled.PredictPmf(eval, rows.data(), rows.size(), max_depth, pmf.data());
    compiled.PredictLabel(eval, rows.data(), rows.size(), max_depth,
                          labels.data());
    for (size_t i = 0; i < rows.size(); ++i) {
      std::vector<float> want = forest.PredictPmf(eval, i, max_depth);
      ASSERT_EQ(want.size(), static_cast<size_t>(k));
      for (int c = 0; c < k; ++c) {
        ASSERT_EQ(pmf[i * k + c], want[c])
            << "row " << i << " class " << c << " depth " << max_depth;
      }
      ASSERT_EQ(labels[i], forest.PredictLabel(eval, i, max_depth))
          << "row " << i << " depth " << max_depth;
    }
  }
}

TEST(CompiledForestTest, ClassificationParityOnCleanData) {
  DataTable t = MixedData(3, 1200, 41, /*missing=*/0.0);
  ForestModel forest = TrainSmallForest(t);
  CompiledForest compiled = CompiledForest::Compile(forest);
  EXPECT_EQ(compiled.num_trees(), forest.num_trees());
  EXPECT_EQ(compiled.num_classes(), forest.num_classes());
  ExpectClassificationParity(forest, compiled, t);
}

TEST(CompiledForestTest, ParityWithMissingAndUnseenCategories) {
  DataTable t = MixedData(4, 1000, 42, /*missing=*/0.1);
  ForestModel forest = TrainSmallForest(t, 10, 8);
  CompiledForest compiled = CompiledForest::Compile(forest);
  // Fresh rows the model never trained on, salted with NaNs, missing
  // categories and out-of-vocabulary codes.
  DataTable eval = Mutate(MixedData(4, 600, 1042, 0.1), 7);
  ExpectClassificationParity(forest, compiled, eval);
}

TEST(CompiledForestTest, RegressionParity) {
  DatasetProfile p;
  p.rows = 1500;
  p.num_numeric = 5;
  p.num_categorical = 2;
  p.num_classes = 0;  // regression
  p.missing_fraction = 0.08;
  p.noise = 0.05;
  p.concept_depth = 5;
  DataTable t = GenerateTable(p, 91);
  ForestModel forest = TrainSmallForest(t, 9, 9);
  CompiledForest compiled = CompiledForest::Compile(forest);
  DataTable eval = Mutate(GenerateTable(p, 191), 13);
  const std::vector<uint32_t> rows = AllRows(eval);
  std::vector<double> values(rows.size());
  for (int max_depth : {-1, 0, 2, 5}) {
    compiled.PredictValue(eval, rows.data(), rows.size(), max_depth,
                          values.data());
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(values[i], forest.PredictValue(eval, i, max_depth))
          << "row " << i << " depth " << max_depth;
    }
  }
  // `values` holds the depth-5 results from the last loop iteration.
  EXPECT_EQ(compiled.PredictValues(eval, 5), values);
}

TEST(CompiledForestTest, SingleTreeForestOfOne) {
  DataTable t = MixedData(3, 800, 43);
  ForestModel forest = TrainSmallForest(t, 1, 6);
  CompiledForest from_tree = CompiledForest::Compile(forest.tree(0));
  ASSERT_EQ(from_tree.num_trees(), 1u);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(from_tree.PredictLabelRow(t, i), forest.PredictLabel(t, i));
    EXPECT_EQ(from_tree.PredictPmfRow(t, i), forest.PredictPmf(t, i));
  }
}

TEST(CompiledForestTest, WholeTableConvenienceMatchesBatched) {
  DataTable t = MixedData(2, 2500, 44);  // > one 1024-row block
  ForestModel forest = TrainSmallForest(t, 5, 6);
  CompiledForest compiled = CompiledForest::Compile(forest);
  std::vector<int32_t> labels = compiled.PredictLabels(t);
  ASSERT_EQ(labels.size(), t.num_rows());
  for (size_t i = 0; i < t.num_rows(); ++i) {
    EXPECT_EQ(labels[i], forest.PredictLabel(t, i));
  }
}

TEST(CompiledCascadeTest, MatchesDeepForestPredictions) {
  ImageDataset train = GenerateImages(120, 311);
  ImageDataset test = GenerateImages(40, 312);
  EngineConfig engine;
  engine.num_workers = 2;
  engine.compers_per_worker = 2;
  engine.tau_d = 100000;
  engine.tau_dfs = 200000;
  DeepForestConfig cfg;
  cfg.mgs.window_sizes = {5};
  cfg.mgs.stride = 4;
  cfg.mgs.trees_per_forest = 4;
  cfg.mgs.forests_per_window = 2;
  cfg.mgs.max_depth = 6;
  cfg.cascade.num_layers = 2;
  cfg.cascade.trees_per_forest = 4;
  cfg.cascade.max_depth = 10;
  cfg.extract_threads = 2;
  DeepForestTrainer trainer(cfg, engine);
  DeepForestModel model = trainer.Train(train, test);

  CompiledCascade compiled = CompiledCascade::Compile(model);
  EXPECT_EQ(compiled.num_layers(), model.num_layers());
  EXPECT_EQ(compiled.Predict(test, 2), model.Predict(test, 2));
  // Thread count must not change results.
  EXPECT_EQ(compiled.Predict(test, 1), model.Predict(test, 2));
}

class ModelIoTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& p : files_) std::remove(p.c_str());
  }
  std::string Tracked(const std::string& name) {
    std::string p = testing::TempDir() + "serve_io_" + name;
    files_.push_back(p);
    return p;
  }
  std::vector<std::string> files_;
};

TEST_F(ModelIoTest, ForestRoundTrip) {
  DataTable t = MixedData(3, 800, 51);
  ForestModel forest = TrainSmallForest(t, 4, 5);
  const std::string path = Tracked("forest.tsm");
  ASSERT_TRUE(SaveToFile(forest, path).ok());

  auto kind = ReadModelFileKind(path);
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(*kind, ModelKind::kForest);

  ForestModel back;
  ASSERT_TRUE(LoadFromFile(path, &back).ok());
  EXPECT_EQ(back.num_trees(), forest.num_trees());
  for (size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(back.PredictPmf(t, i), forest.PredictPmf(t, i));
  }
}

TEST_F(ModelIoTest, TreeRoundTrip) {
  DataTable t = MixedData(2, 600, 52);
  ForestModel forest = TrainSmallForest(t, 1, 6);
  const std::string path = Tracked("tree.tsm");
  ASSERT_TRUE(SaveToFile(forest.tree(0), path).ok());
  TreeModel back;
  ASSERT_TRUE(LoadFromFile(path, &back).ok());
  EXPECT_TRUE(back.StructurallyEqual(forest.tree(0)));
}

TEST_F(ModelIoTest, KindMismatchRejected) {
  DataTable t = MixedData(2, 600, 53);
  ForestModel forest = TrainSmallForest(t, 2, 4);
  const std::string path = Tracked("forest2.tsm");
  ASSERT_TRUE(SaveToFile(forest, path).ok());
  TreeModel tree;
  Status st = LoadFromFile(path, &tree);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("expected"), std::string::npos);
}

TEST_F(ModelIoTest, MissingFileIsError) {
  const std::string path = testing::TempDir() + "serve_io_nope.tsm";
  ForestModel out;
  EXPECT_FALSE(LoadFromFile(path, &out).ok());
  EXPECT_FALSE(ReadModelFileKind(path).ok());
}

TEST_F(ModelIoTest, EveryTruncationRejectedCleanly) {
  DataTable t = MixedData(2, 400, 54);
  ForestModel forest = TrainSmallForest(t, 2, 4);
  const std::string full_path = Tracked("trunc_src.tsm");
  ASSERT_TRUE(SaveToFile(forest, full_path).ok());
  std::string bytes;
  {
    std::FILE* f = std::fopen(full_path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    bytes.resize(static_cast<size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }
  // Every strict prefix must fail to load — header-truncated files and
  // payload-truncated files alike.
  const std::string path = Tracked("trunc.tsm");
  for (size_t len = 0; len < bytes.size();
       len += 1 + len / 7 /* denser near the header */) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    if (len > 0) ASSERT_EQ(std::fwrite(bytes.data(), 1, len, f), len);
    std::fclose(f);
    ForestModel out;
    EXPECT_FALSE(LoadFromFile(path, &out).ok()) << "prefix " << len;
  }
  // Trailing garbage must also fail.
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    ASSERT_EQ(std::fwrite("xx", 1, 2, f), 2u);
    std::fclose(f);
    ForestModel out;
    EXPECT_FALSE(LoadFromFile(path, &out).ok());
  }
}

TEST_F(ModelIoTest, HeaderFuzzNeverCrashesAndBadHeadersFail) {
  DataTable t = MixedData(2, 400, 55);
  ForestModel forest = TrainSmallForest(t, 2, 4);
  const std::string src = Tracked("fuzz_src.tsm");
  ASSERT_TRUE(SaveToFile(forest, src).ok());
  std::string bytes;
  {
    std::FILE* f = std::fopen(src.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    bytes.resize(static_cast<size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }
  const std::string path = Tracked("fuzz.tsm");
  Rng rng(99);
  // Each iteration flips one byte: the first 9 iterations cover every
  // header byte (magic, version, kind), the rest hit random payload
  // positions. A header flip must be rejected; a payload flip must
  // never crash (it may deserialize to a different valid model).
  for (int iter = 0; iter < 60; ++iter) {
    std::string mutated = bytes;
    const size_t pos =
        iter < 9 ? static_cast<size_t>(iter) : rng.Uniform(mutated.size());
    mutated[pos] ^= static_cast<char>(1 + rng.Uniform(255));
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(mutated.data(), 1, mutated.size(), f),
              mutated.size());
    std::fclose(f);
    ForestModel out;
    Status st = LoadFromFile(path, &out);
    if (pos < 9) {
      EXPECT_FALSE(st.ok()) << "header byte " << pos;
    }
  }
}

TEST(ModelRegistryTest, PublishLookupAndVersioning) {
  DataTable t = MixedData(3, 800, 61);
  ModelRegistry registry;
  EXPECT_EQ(registry.Current("risk"), nullptr);
  EXPECT_EQ(registry.NumVersions("risk"), 0u);

  auto v1 = registry.Publish("risk", TrainSmallForest(t, 3, 5, 1));
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(*v1, 1u);
  auto v2 = registry.Publish("risk", TrainSmallForest(t, 5, 6, 2));
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, 2u);

  auto current = registry.Current("risk");
  ASSERT_NE(current, nullptr);
  EXPECT_EQ(current->version, 2u);
  EXPECT_EQ(current->compiled.num_trees(), 5u);
  // The old version stays pinned until retired.
  auto old = registry.Version("risk", 1);
  ASSERT_NE(old, nullptr);
  EXPECT_EQ(old->compiled.num_trees(), 3u);
  EXPECT_EQ(registry.NumVersions("risk"), 2u);
  EXPECT_EQ(registry.RetireOldVersions("risk"), 1u);
  EXPECT_EQ(registry.Version("risk", 1), nullptr);
  ASSERT_NE(registry.Current("risk"), nullptr);
  EXPECT_EQ(registry.Current("risk")->version, 2u);

  EXPECT_FALSE(registry.Publish("", TrainSmallForest(t, 1, 3)).ok());
  EXPECT_FALSE(registry.Publish("empty", ForestModel()).ok());
  EXPECT_EQ(registry.ModelNames(), std::vector<std::string>{"risk"});
}

TEST(ModelRegistryTest, FileRoundTripThroughRegistry) {
  DataTable t = MixedData(3, 800, 62);
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish("m", TrainSmallForest(t, 4, 5)).ok());
  const std::string path = testing::TempDir() + "serve_registry_m.tsm";
  ASSERT_TRUE(registry.SaveCurrent("m", path).ok());
  auto v = registry.PublishFromFile("m2", path);
  ASSERT_TRUE(v.ok());
  auto a = registry.Current("m");
  auto b = registry.Current("m2");
  ASSERT_NE(b, nullptr);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a->compiled.PredictLabelRow(t, i),
              b->compiled.PredictLabelRow(t, i));
  }
  std::remove(path.c_str());
  EXPECT_FALSE(registry.SaveCurrent("ghost", path).ok());
  EXPECT_FALSE(registry.PublishFromFile("ghost", path).ok());
}

TEST(ModelRegistryTest, TreeKindSurvivesFileRoundTrip) {
  DataTable t = MixedData(2, 500, 64);
  ForestModel one = TrainSmallForest(t, 1, 5);
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish("tree", one.tree(0)).ok());
  ASSERT_EQ(registry.Current("tree")->kind, ModelKind::kTree);
  const std::string path = testing::TempDir() + "serve_registry_tree.tsm";
  ASSERT_TRUE(registry.SaveCurrent("tree", path).ok());
  auto kind = ReadModelFileKind(path);
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(*kind, ModelKind::kTree);
  ASSERT_TRUE(registry.PublishFromFile("tree2", path).ok());
  EXPECT_EQ(registry.Current("tree2")->kind, ModelKind::kTree);
  std::remove(path.c_str());
}

TEST(ModelRegistryTest, HotSwapIsSafeUnderConcurrentReads) {
  DataTable t = MixedData(2, 500, 63);
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish("hot", TrainSmallForest(t, 1, 4, 1)).ok());
  std::atomic<bool> stop{false};
  std::atomic<uint32_t> max_seen{0};
  std::thread reader([&] {
    while (!stop.load()) {
      auto m = registry.Current("hot");
      ASSERT_NE(m, nullptr);
      uint32_t v = m->version;
      uint32_t prev = max_seen.load();
      // Versions observed by a reader never go backwards.
      while (v > prev && !max_seen.compare_exchange_weak(prev, v)) {
      }
      EXPECT_GE(v, 1u);
      // The pinned version stays fully usable mid-swap.
      m->compiled.PredictLabelRow(t, v % t.num_rows());
    }
  });
  for (int i = 2; i <= 20; ++i) {
    ASSERT_TRUE(registry.Publish("hot", TrainSmallForest(t, 1, 4, i)).ok());
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(registry.Current("hot")->version, 20u);
}

TEST(ModelRegistryTest, RollbackRestoresPreviousVersion) {
  DataTable table = MixedData(3, 200, 5);
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish("m", TrainSmallForest(table, 4, 5, 1)).ok());
  ASSERT_TRUE(registry.Publish("m", TrainSmallForest(table, 4, 5, 2)).ok());
  ASSERT_TRUE(registry.Publish("m", TrainSmallForest(table, 4, 5, 3)).ok());
  ASSERT_EQ(registry.Current("m")->version, 3u);

  Result<uint32_t> v = registry.Rollback("m");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 2u);
  EXPECT_EQ(registry.Current("m")->version, 2u);
  // The rolled-back version is gone: a second rollback lands on v1,
  // not back on v3.
  v = registry.Rollback("m");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 1u);
  // Nothing older than v1: rollback now fails, current is unchanged.
  EXPECT_EQ(registry.Rollback("m").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(registry.Current("m")->version, 1u);
  EXPECT_EQ(registry.Rollback("nope").status().code(), StatusCode::kNotFound);
  // A fresh publish after rollbacks still gets a fresh version number.
  Result<uint32_t> republished =
      registry.Publish("m", TrainSmallForest(table, 4, 5, 4));
  ASSERT_TRUE(republished.ok());
  EXPECT_EQ(*republished, 4u);
}

TEST(ModelRegistryTest, StatusSnapshotListsEveryModel) {
  DataTable table = MixedData(2, 150, 9);
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish("a", TrainSmallForest(table, 2, 4)).ok());
  ASSERT_TRUE(registry.Publish("b", TrainSmallForest(table, 2, 4)).ok());
  ASSERT_TRUE(registry.Publish("b", TrainSmallForest(table, 2, 4, 5)).ok());

  auto snapshot = registry.StatusSnapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].name, "a");
  EXPECT_EQ(snapshot[0].version, 1u);
  EXPECT_EQ(snapshot[0].num_versions, 1u);
  EXPECT_EQ(snapshot[1].name, "b");
  EXPECT_EQ(snapshot[1].version, 2u);
  EXPECT_EQ(snapshot[1].num_versions, 2u);
}

// Satellite: hot-swap under live batched load. Every published version
// holds an identical model, so any torn read — a prediction computed
// from half-swapped state — shows up as a wrong label, and TSan sees
// any racy access. Old-version in-flight work must still complete.
TEST(ModelRegistrySwapStress, HotSwapUnderConcurrentPredictionLoad) {
  auto table = std::make_shared<DataTable>(MixedData(3, 300, 77));
  ForestModel forest = TrainSmallForest(*table, 6, 6);
  CompiledForest compiled = CompiledForest::Compile(forest);

  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish("m", forest).ok());

  InferenceServerConfig cfg;
  cfg.num_workers = 3;
  cfg.max_batch = 8;
  cfg.batch_deadline_us = 50;
  cfg.max_queue = 1 << 16;
  MetricsRegistry metrics;
  cfg.metrics = &metrics;
  InferenceServer server(&registry, cfg);
  server.Start();

  constexpr int kSwaps = 25;
  std::atomic<bool> done{false};
  std::thread publisher([&] {
    for (int i = 0; i < kSwaps; ++i) {
      ASSERT_TRUE(registry.Publish("m", forest).ok());
      registry.RetireOldVersions("m", 4);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    done.store(true);
  });

  std::vector<std::future<Result<Prediction>>> futures;
  uint32_t row = 0;
  while (!done.load() || futures.size() < 2000) {
    PredictRequest req;
    req.model = "m";
    req.table = table;
    req.row = row;
    futures.push_back(server.Predict(std::move(req)));
    row = (row + 1) % table->num_rows();
    if (futures.size() >= 20000) break;
  }
  publisher.join();

  uint32_t max_version = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<Prediction> r = futures[i].get();
    ASSERT_TRUE(r.ok()) << r.status().message();
    // Identical model at every version: a label mismatch means a torn
    // read of half-swapped state.
    const uint32_t expect_row = static_cast<uint32_t>(i) % table->num_rows();
    EXPECT_EQ(r->label, compiled.PredictLabelRow(*table, expect_row));
    ASSERT_GE(r->model_version, 1u);
    ASSERT_LE(r->model_version, static_cast<uint32_t>(kSwaps) + 1);
    max_version = std::max(max_version, r->model_version);
  }
  server.Stop();
  // The load really did overlap the swaps.
  EXPECT_GT(max_version, 1u);
  EXPECT_EQ(metrics.GetCounter("serve.rejected")->value(), 0u);
}

TEST(InferenceServerTest, ServesParityWithDirectPrediction) {
  auto table = std::make_shared<DataTable>(MixedData(3, 400, 71));
  ForestModel forest = TrainSmallForest(*table, 6, 6);
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish("m", forest).ok());

  MetricsRegistry metrics;
  InferenceServerConfig cfg;
  cfg.num_workers = 3;
  cfg.max_batch = 16;
  cfg.batch_deadline_us = 100;
  cfg.metrics = &metrics;
  InferenceServer server(&registry, cfg);
  server.Start();

  std::vector<std::future<Result<Prediction>>> futures;
  for (size_t i = 0; i < table->num_rows(); ++i) {
    PredictRequest req;
    req.model = "m";
    req.table = table;
    req.row = static_cast<uint32_t>(i);
    req.want_pmf = true;
    futures.push_back(server.Predict(std::move(req)));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<Prediction> r = futures[i].get();
    ASSERT_TRUE(r.ok()) << r.status().message();
    EXPECT_EQ(r->model_version, 1u);
    EXPECT_EQ(r->label, forest.PredictLabel(*table, i));
    EXPECT_EQ(r->pmf, forest.PredictPmf(*table, i));
  }
  server.Stop();
  EXPECT_EQ(metrics.GetCounter("serve.requests")->value(), table->num_rows());
  EXPECT_EQ(metrics.GetCounter("serve.rejected")->value(), 0u);
  EXPECT_GT(metrics.GetCounter("serve.batches")->value(), 0u);
  EXPECT_EQ(metrics.GetHistogram("serve.latency_us.m")->Count(),
            table->num_rows());
}

TEST(InferenceServerTest, RegressionAndDepthCutoff) {
  DatasetProfile p;
  p.rows = 300;
  p.num_numeric = 4;
  p.num_categorical = 1;
  p.num_classes = 0;
  p.concept_depth = 4;
  auto table = std::make_shared<DataTable>(GenerateTable(p, 72));
  ForestModel forest = TrainSmallForest(*table, 4, 8);
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish("reg", forest).ok());
  InferenceServerConfig cfg;
  cfg.metrics = nullptr;  // exercise the Global() default
  InferenceServer server(&registry, cfg);
  server.Start();
  for (uint32_t row : {0u, 5u, 99u}) {
    for (int depth : {-1, 2}) {
      PredictRequest req;
      req.model = "reg";
      req.table = table;
      req.row = row;
      req.max_depth = depth;
      Result<Prediction> r = server.Predict(std::move(req)).get();
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r->value, forest.PredictValue(*table, row, depth));
    }
  }
}

TEST(InferenceServerTest, UnknownModelAndBadRequest) {
  auto table = std::make_shared<DataTable>(MixedData(2, 50, 73));
  ModelRegistry registry;
  MetricsRegistry metrics;
  InferenceServerConfig cfg;
  cfg.metrics = &metrics;
  InferenceServer server(&registry, cfg);
  server.Start();
  PredictRequest req;
  req.model = "ghost";
  req.table = table;
  Result<Prediction> r = server.Predict(std::move(req)).get();
  EXPECT_FALSE(r.ok());

  PredictRequest bad;
  bad.model = "ghost";
  bad.table = table;
  bad.row = 50;  // out of range
  EXPECT_FALSE(server.Predict(std::move(bad)).get().ok());
  PredictRequest no_table;
  no_table.model = "ghost";
  EXPECT_FALSE(server.Predict(std::move(no_table)).get().ok());
}

TEST(InferenceServerTest, BackpressureRejectsBeyondBound) {
  auto table = std::make_shared<DataTable>(MixedData(2, 50, 74));
  ForestModel forest = TrainSmallForest(*table, 2, 4);
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish("m", forest).ok());
  MetricsRegistry metrics;
  InferenceServerConfig cfg;
  cfg.max_queue = 4;
  cfg.metrics = &metrics;
  InferenceServer server(&registry, cfg);
  // Not started yet: requests queue up deterministically.
  std::vector<std::future<Result<Prediction>>> admitted;
  for (int i = 0; i < 4; ++i) {
    PredictRequest req;
    req.model = "m";
    req.table = table;
    req.row = static_cast<uint32_t>(i);
    admitted.push_back(server.Predict(std::move(req)));
  }
  EXPECT_EQ(server.queue_depth(), 4u);
  PredictRequest overflow;
  overflow.model = "m";
  overflow.table = table;
  Result<Prediction> rejected = server.Predict(std::move(overflow)).get();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(metrics.GetCounter("serve.rejected")->value(), 1u);
  // Admitted requests are served once the server starts.
  server.Start();
  for (int i = 0; i < 4; ++i) {
    Result<Prediction> r = admitted[i].get();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->label, forest.PredictLabel(*table, i));
  }
}

TEST(InferenceServerTest, HotSwapTakesEffectBetweenRequests) {
  auto table = std::make_shared<DataTable>(MixedData(2, 100, 75));
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish("m", TrainSmallForest(*table, 1, 3, 1)).ok());
  InferenceServer server(&registry, {});
  server.Start();
  PredictRequest req;
  req.model = "m";
  req.table = table;
  Result<Prediction> r1 = server.Predict(req).get();
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->model_version, 1u);
  ASSERT_TRUE(registry.Publish("m", TrainSmallForest(*table, 3, 5, 2)).ok());
  Result<Prediction> r2 = server.Predict(req).get();
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->model_version, 2u);
}

TEST(InferenceServerTest, StopDrainsQueuedWork) {
  auto table = std::make_shared<DataTable>(MixedData(2, 200, 76));
  ForestModel forest = TrainSmallForest(*table, 3, 5);
  ModelRegistry registry;
  ASSERT_TRUE(registry.Publish("m", forest).ok());
  InferenceServerConfig cfg;
  cfg.batch_deadline_us = 50000;  // long deadline: Stop must not wait it out
  InferenceServer server(&registry, cfg);
  server.Start();
  std::vector<std::future<Result<Prediction>>> futures;
  for (uint32_t i = 0; i < 200; ++i) {
    PredictRequest req;
    req.model = "m";
    req.table = table;
    req.row = i;
    futures.push_back(server.Predict(std::move(req)));
  }
  server.Stop();
  for (uint32_t i = 0; i < 200; ++i) {
    Result<Prediction> r = futures[i].get();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->label, forest.PredictLabel(*table, i));
  }
  // After Stop, new work is refused but the future still resolves.
  PredictRequest late;
  late.model = "m";
  late.table = table;
  EXPECT_FALSE(server.Predict(std::move(late)).get().ok());
}


// -------------------------------------------------------------------
// Node layouts: soa and quantized serve byte-identical predictions over
// ragged scattered batches, depth cutoffs and missing values.
// -------------------------------------------------------------------

std::vector<uint32_t> ScatteredRows(size_t n, size_t m, Rng* rng) {
  std::vector<uint32_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = static_cast<uint32_t>(i);
  rng->Shuffle(&rows);
  rows.resize(std::min(m, n));
  std::sort(rows.begin(), rows.end());
  return rows;
}

CompiledForest CompileFuzzForest(const DataTable& table, int trees,
                                 bool sqrt_columns) {
  ForestJobSpec spec;
  spec.num_trees = trees;
  spec.tree.max_depth = 9;
  spec.sqrt_columns = sqrt_columns;
  return CompiledForest::Compile(TrainForestSerial(table, spec, 2));
}

/// Predictions of `compiled` in its current layout.
struct Scored {
  std::vector<int32_t> labels;
  std::vector<float> pmf;
  std::vector<double> values;
};

Scored Score(const CompiledForest& compiled, const DataTable& table,
             const std::vector<uint32_t>& rows, int max_depth) {
  Scored out;
  const size_t n = rows.size();
  if (compiled.is_classification()) {
    out.labels.resize(n);
    out.pmf.resize(n * static_cast<size_t>(compiled.num_classes()));
    compiled.PredictLabel(table, rows.data(), n, max_depth, out.labels.data());
    compiled.PredictPmf(table, rows.data(), n, max_depth, out.pmf.data());
  } else {
    out.values.resize(n);
    compiled.PredictValue(table, rows.data(), n, max_depth,
                          out.values.data());
  }
  return out;
}

/// The raw bytes of `v`, so float comparisons are bit-exact.
template <typename T>
std::string Bytes(const std::vector<T>& v) {
  return std::string(reinterpret_cast<const char*>(v.data()),
                     v.size() * sizeof(T));
}

void ExpectByteIdentical(const Scored& got, const Scored& want,
                         const std::string& what) {
  EXPECT_EQ(got.labels, want.labels) << what;
  EXPECT_TRUE(Bytes(got.pmf) == Bytes(want.pmf))
      << what << ": PMFs not byte-identical";
  EXPECT_TRUE(Bytes(got.values) == Bytes(want.values))
      << what << ": values not byte-identical";
}

void CheckLayoutParity(const DataTable& table, CompiledForest* compiled) {
  const size_t n = table.num_rows();
  auto bins = BinnedTable::Build(table, 65535);
  Rng rng(31);
  for (int max_depth : {-1, 0, 3}) {
    for (size_t m : {size_t{1}, size_t{7}, size_t{127}, size_t{129}, n}) {
      const std::vector<uint32_t> rows = ScatteredRows(n, m, &rng);
      compiled->Repack(NodeLayout::kSoa);
      const Scored ref = Score(*compiled, table, rows, max_depth);
      // One bin per distinct value makes every exact threshold a bin
      // upper, so quantization must never fall back.
      ASSERT_EQ(compiled->Repack(NodeLayout::kQuantized, bins),
                NodeLayout::kQuantized);
      ExpectByteIdentical(Score(*compiled, table, rows, max_depth), ref,
                          "quantized depth=" + std::to_string(max_depth) +
                              " m=" + std::to_string(rows.size()));
    }
  }
}

TEST(LayoutParityTest, ClassificationSoaAndQuantizedByteIdentical) {
  DatasetProfile profile;
  profile.name = "layout_fuzz_cls";
  profile.rows = 2500;
  profile.num_numeric = 5;
  profile.num_categorical = 2;
  profile.num_classes = 4;
  profile.missing_fraction = 0.08;
  DataTable table = GenerateTable(profile, 17);
  CompiledForest compiled = CompileFuzzForest(table, 6, /*sqrt_columns=*/true);
  CheckLayoutParity(table, &compiled);
}

TEST(LayoutParityTest, RegressionSoaAndQuantizedByteIdentical) {
  DatasetProfile profile;
  profile.name = "layout_fuzz_reg";
  profile.rows = 2500;
  profile.num_numeric = 6;
  profile.num_categorical = 1;
  profile.num_classes = 0;  // regression
  profile.missing_fraction = 0.08;
  DataTable table = GenerateTable(profile, 19);
  CompiledForest compiled = CompileFuzzForest(table, 5, /*sqrt_columns=*/true);
  CheckLayoutParity(table, &compiled);
}

TEST(LayoutParityTest, WideCategoricalColumnsAcrossLayouts) {
  // 100 categories force >64-slot route tables in the quantized layout,
  // with missing categories and (rare) codes the training split never
  // saw.
  const size_t n = 2000;
  const int card = 100;
  Rng rng(59);
  std::vector<int32_t> cat(n);
  std::vector<double> num(n);
  std::vector<int32_t> y(n);
  for (size_t r = 0; r < n; ++r) {
    cat[r] = rng.Bernoulli(0.05)
                 ? kMissingCategory
                 : static_cast<int32_t>(rng.Uniform(card));
    num[r] = rng.Bernoulli(0.05) ? MissingNumeric()
                                 : static_cast<double>(rng.Uniform(37));
    const int32_t base = cat[r] < 0 ? 0 : (cat[r] / 25) % 3;
    y[r] = rng.Bernoulli(0.1) ? static_cast<int32_t>(rng.Uniform(3)) : base;
  }
  std::vector<ColumnMeta> metas = {{"c", DataType::kCategorical, card},
                                   {"x", DataType::kNumeric, 0},
                                   {"y", DataType::kCategorical, 3}};
  std::vector<ColumnPtr> cols = {Column::Categorical("c", std::move(cat), card),
                                 Column::Numeric("x", std::move(num)),
                                 Column::Categorical("y", std::move(y), 3)};
  auto made = DataTable::Make(Schema(metas, 2, TaskKind::kClassification),
                              std::move(cols));
  ASSERT_TRUE(made.ok());
  DataTable table = std::move(made).value();
  CompiledForest compiled = CompileFuzzForest(table, 4, /*sqrt_columns=*/false);
  CheckLayoutParity(table, &compiled);
}

/// A forest of two trees over `table`: tree 0 splits only on
/// categorical columns (its route tables need no numeric bins, so it
/// always quantizes), tree 1 only on numeric columns.
ForestModel CategoricalThenNumericForest(const DataTable& table) {
  std::vector<int> categorical;
  std::vector<int> numeric;
  for (int c = 0; c < table.num_columns(); ++c) {
    if (c == table.schema().target_index()) continue;
    (table.schema().column(c).type == DataType::kCategorical ? categorical
                                                             : numeric)
        .push_back(c);
  }
  TreeConfig cfg;
  cfg.max_depth = 8;
  if (table.schema().task_kind() == TaskKind::kRegression) {
    cfg.impurity = Impurity::kVariance;
  }
  ForestModel forest(table.schema().task_kind(),
                     table.schema().num_classes());
  forest.AddTree(TrainTreeOnTable(table, categorical, cfg));
  forest.AddTree(TrainTreeOnTable(table, numeric, cfg));
  return forest;
}

void CheckQuantizedFallback(const DataTable& table) {
  const CompiledForest soa =
      CompiledForest::Compile(CategoricalThenNumericForest(table));
  CompiledForest mixed = soa;
  // Four bins over hundreds of distinct values: the numeric tree's
  // exact thresholds fall between bin uppers.
  const NodeLayout got =
      mixed.Repack(NodeLayout::kQuantized, BinnedTable::Build(table, 4));
  EXPECT_EQ(got, NodeLayout::kSoa);
  EXPECT_EQ(mixed.layout(), NodeLayout::kSoa);
  EXPECT_EQ(mixed.tree(0).layout(), NodeLayout::kQuantized);
  EXPECT_EQ(mixed.tree(1).layout(), NodeLayout::kSoa);
  const std::vector<uint32_t> rows = AllRows(table);
  for (int max_depth : {-1, 0, 3}) {
    ExpectByteIdentical(Score(mixed, table, rows, max_depth),
                        Score(soa, table, rows, max_depth),
                        "fallback depth=" + std::to_string(max_depth));
  }
}

TEST(LayoutParityTest, QuantizedFallsBackToSoaPerTree) {
  CheckQuantizedFallback(MixedData(3, 1500, 43));
  CheckQuantizedFallback(MixedData(0, 1500, 47));
}

}  // namespace
}  // namespace treeserver
