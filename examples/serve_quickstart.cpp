// Serving quickstart: train a forest, publish it to a versioned model
// registry (via a model file, as a real train->serve pipeline would),
// run a micro-batching inference server against it, then hot-swap a
// retrained version while the server is live.
//
//   ./serve_quickstart

#include <cstdio>
#include <future>
#include <memory>
#include <vector>

#include "common/metrics_registry.h"
#include "forest/forest.h"
#include "serve/compiled_model.h"
#include "serve/model_io.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "table/datasets.h"

using namespace treeserver;  // NOLINT

int main() {
  // 1. Train: a random forest on a synthetic loan-risk-style table
  //    (5 numeric + 3 categorical features, some values missing).
  DatasetProfile profile;
  profile.name = "loan_risk";
  profile.rows = 8000;
  profile.num_numeric = 5;
  profile.num_categorical = 3;
  profile.num_classes = 3;
  profile.missing_fraction = 0.05;
  DataTable all = GenerateTable(profile, 42);
  Rng rng(7);
  auto [train, test] = all.TrainTestSplit(0.25, &rng);

  ForestJobSpec job;
  job.num_trees = 20;
  job.tree.max_depth = 10;
  job.sqrt_columns = true;
  ForestModel forest = TrainForestSerial(train, job, 4);
  std::printf("trained %zu trees, test accuracy %.1f%%\n",
              forest.num_trees(), EvaluateAccuracy(forest, test) * 100.0);

  // 2. Publish: write the model file (magic + format version + kind
  //    header, atomic rename), then load it into the registry. The
  //    registry compiles the forest into flat node tables for batched
  //    traversal and installs it as version 1.
  const std::string model_path = "/tmp/serve_quickstart_model.tsm";
  Status st = SaveToFile(forest, model_path);
  if (!st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  ModelRegistry registry;
  Result<uint32_t> version = registry.PublishFromFile("loan_risk", model_path);
  if (!version.ok()) {
    std::fprintf(stderr, "publish failed: %s\n",
                 version.status().ToString().c_str());
    return 1;
  }
  std::printf("published %s as version %u\n", model_path.c_str(), *version);

  // 3. Serve: a micro-batching server with 2 prediction workers.
  //    Requests are grouped per model and flushed when a batch fills
  //    or its oldest request ages past the deadline.
  MetricsRegistry metrics;
  InferenceServerConfig config;
  config.num_workers = 2;
  config.max_batch = 64;
  config.batch_deadline_us = 200;
  config.metrics = &metrics;
  InferenceServer server(&registry, config);
  server.Start();

  auto serving_table = std::make_shared<DataTable>(test);
  std::vector<std::future<Result<Prediction>>> futures;
  for (uint32_t row = 0; row < 256; ++row) {
    PredictRequest req;
    req.model = "loan_risk";
    req.table = serving_table;
    req.row = row;
    req.want_pmf = (row == 0);
    futures.push_back(server.Predict(std::move(req)));
  }
  size_t agree = 0;
  for (uint32_t row = 0; row < 256; ++row) {
    Result<Prediction> r = futures[row].get();
    if (!r.ok()) {
      std::fprintf(stderr, "predict failed: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
    agree += (r->label == forest.PredictLabel(test, row));
    if (row == 0) {
      std::printf("row 0 (served by v%u): label=%d pmf=[", r->model_version,
                  r->label);
      for (size_t c = 0; c < r->pmf.size(); ++c) {
        std::printf("%s%.3f", c ? " " : "", r->pmf[c]);
      }
      std::printf("]\n");
    }
  }
  std::printf("256/256 served; %zu/256 match direct prediction exactly\n",
              agree);

  // 4. Hot-swap: retrain with more trees and publish again. In-flight
  //    requests keep the version they resolved; new batches pick up v2.
  //    A block of rows is submitted as one unit and every row of it is
  //    scored by the one version its completion reports.
  job.num_trees = 40;
  job.seed = 2;
  Result<uint32_t> v2 = registry.Publish("loan_risk",
                                         TrainForestSerial(train, job, 4));
  if (!v2.ok()) return 1;
  std::promise<Result<BlockPrediction>> block_done;
  std::future<Result<BlockPrediction>> block = block_done.get_future();
  PredictBlock request;
  request.model = "loan_risk";
  request.table = serving_table;
  for (uint32_t row = 0; row < 100; ++row) request.rows.push_back(row);
  server.Submit(std::move(request), [&](Result<BlockPrediction> r) {
    block_done.set_value(std::move(r));
  });
  Result<BlockPrediction> r = block.get();
  std::printf("after hot-swap, a 100-row block served by version %u\n",
              r.ok() ? r->model_version : 0);

  server.Stop();
  std::printf("served %llu requests in %llu batches\n",
              static_cast<unsigned long long>(
                  metrics.GetCounter("serve.requests")->value()),
              static_cast<unsigned long long>(
                  metrics.GetCounter("serve.batches")->value()));
  std::remove(model_path.c_str());
  return 0;
}
