// Inference-serving benchmark: compiled batched prediction vs the
// row-at-a-time ForestModel reference, thread scaling of the batched
// path, single-thread bulk scoring in the soa and quantized node
// layouts, end-to-end micro-batching server throughput with latency
// percentiles from the metrics registry, and a replicated-fleet mode
// (router + N in-process replicas) sweeping sustained batches/s and
// p99/p999 against replica count.
//
// Expected shape: the compiled structure-of-arrays traversal beats
// row-at-a-time prediction by well over 5x on one thread (no per-row
// PMF vector allocations, one tree's nodes stay hot across a whole row
// block), and the batched path scales near-linearly with threads since
// rows are embarrassingly parallel. Fleet batches/s should grow with
// replica count until the single router thread saturates.
//
// Emits BENCH_serve.json (single-process server) and BENCH_fleet.json
// (replica-count sweep) into the working directory; CI uploads both.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/metrics_registry.h"
#include "common/serial.h"
#include "common/simd.h"
#include "common/timer.h"
#include "fleet/replica.h"
#include "fleet/router.h"
#include "forest/forest.h"
#include "net/network.h"
#include "serve/compiled_model.h"
#include "serve/layout.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "table/binned.h"

using namespace treeserver;         // NOLINT
using namespace treeserver::bench;  // NOLINT

namespace {

double RowsPerSec(size_t rows, double seconds) {
  return seconds > 0 ? static_cast<double>(rows) / seconds : 0.0;
}

/// Batched compiled prediction with rows partitioned over `threads`.
double TimeCompiledThreads(const CompiledForest& compiled,
                           const DataTable& table, int threads,
                           std::vector<int32_t>* out) {
  const size_t n = table.num_rows();
  std::vector<uint32_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = static_cast<uint32_t>(i);
  out->assign(n, 0);
  WallTimer timer;
  if (threads <= 1) {
    compiled.PredictLabel(table, rows.data(), n, -1, out->data());
    return timer.Seconds();
  }
  std::vector<std::thread> pool;
  const size_t chunk = (n + threads - 1) / threads;
  for (int t = 0; t < threads; ++t) {
    const size_t begin = std::min(n, t * chunk);
    const size_t end = std::min(n, begin + chunk);
    if (begin == end) break;
    pool.emplace_back([&, begin, end] {
      compiled.PredictLabel(table, rows.data() + begin, end - begin, -1,
                            out->data() + begin);
    });
  }
  for (auto& th : pool) th.join();
  return timer.Seconds();
}

void WriteJsonFile(const char* path, const std::string& json) {
  std::printf("%s", json.c_str());
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }
}

struct FleetBenchPoint {
  int replicas = 0;
  double batches_per_s = 0.0;
  uint64_t p99_us = 0;
  uint64_t p999_us = 0;
};

/// Closed-loop batched load through a FleetRouter backed by
/// `num_replicas` in-process FleetReplicas. Every returned label is
/// checked against the compiled reference; latency percentiles come
/// from the router's own fleet.latency_us histogram.
bool RunFleetBench(int num_replicas, const std::string& model_bytes, const DataTable& table,
                   const std::vector<int32_t>& ref_labels, size_t requests,
                   size_t rows_per_batch, FleetBenchPoint* out) {
  MetricsRegistry metrics;
  InProcessTransport net(num_replicas, 0.0);
  std::vector<std::unique_ptr<FleetReplica>> replicas;
  for (int r = 0; r < num_replicas; ++r) {
    FleetReplicaConfig rc;
    rc.rank = r;
    rc.serve.num_workers = 2;
    rc.serve.max_batch = 256;
    rc.serve.batch_deadline_us = 200;
    rc.serve.max_queue = 1 << 16;
    replicas.push_back(std::make_unique<FleetReplica>(&net, rc));
    replicas.back()->Start();
  }
  FleetRouterConfig cfg;
  cfg.metrics = &metrics;
  cfg.max_inflight = 1 << 14;
  cfg.default_deadline_ms = 60000;
  FleetRouter router(&net, cfg);
  router.Start();
  bool ok = router.Push("bench", model_bytes).ok();

  const size_t n = table.num_rows();
  std::vector<uint32_t> batch(rows_per_batch);
  std::vector<std::future<Result<FleetBatchResult>>> futures;
  futures.reserve(requests);
  std::vector<size_t> starts(requests);
  size_t mismatches = 0;
  size_t next_wait = 0;
  const size_t window = 64;  // outstanding batches in the closed loop
  auto drain_one = [&] {
    auto r = futures[next_wait].get();
    const size_t start = starts[next_wait];
    if (!r.ok() || r->labels.size() != rows_per_batch) {
      ++mismatches;
    } else {
      for (size_t j = 0; j < rows_per_batch; ++j) {
        if (r->labels[j] != ref_labels[(start + j) % n]) ++mismatches;
      }
    }
    ++next_wait;
  };
  WallTimer timer;
  for (size_t i = 0; ok && i < requests; ++i) {
    const size_t start = (i * rows_per_batch) % n;
    for (size_t j = 0; j < rows_per_batch; ++j) {
      batch[j] = static_cast<uint32_t>((start + j) % n);
    }
    starts[i] = start;
    futures.push_back(
        router.PredictRows("bench", table, batch.data(), rows_per_batch));
    while (futures.size() - next_wait > window) drain_one();
  }
  while (ok && next_wait < futures.size()) drain_one();
  const double seconds = timer.Seconds();
  Histogram::Snapshot lat = metrics.GetHistogram("fleet.latency_us")->snapshot();
  router.ShutdownReplicas();
  router.Stop();
  for (auto& r : replicas) r->Stop();
  if (!ok || mismatches != 0) {
    std::printf("FATAL: fleet bench (%d replicas): push ok=%d, %zu mismatches\n",
                num_replicas, ok ? 1 : 0, mismatches);
    return false;
  }
  out->replicas = num_replicas;
  out->batches_per_s = requests > 0 && seconds > 0 ? requests / seconds : 0.0;
  out->p99_us = lat.Percentile(0.99);
  out->p999_us = lat.Percentile(0.999);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions options = BenchOptions::Parse(argc, argv);
  const size_t rows = options.quick ? 20000 : 60000;
  const int trees = options.quick ? 20 : 40;

  DatasetProfile profile;
  profile.name = "serve_bench";
  profile.rows = rows;
  profile.num_numeric = 8;
  profile.num_categorical = 4;
  profile.num_classes = 5;
  profile.missing_fraction = 0.05;
  profile.concept_depth = 8;
  DataTable table = GenerateTable(profile, 7);

  ForestJobSpec spec;
  spec.num_trees = trees;
  spec.tree.max_depth = 12;
  spec.sqrt_columns = true;
  std::printf("== Serving bench: %zu rows, %d trees, %u hardware threads ==\n",
              rows, trees, std::thread::hardware_concurrency());
  WallTimer train_timer;
  ForestModel forest = TrainForestSerial(table, spec, options.compers * 2);
  std::printf("trained in %.2fs\n", train_timer.Seconds());

  // Row-at-a-time reference.
  WallTimer ref_timer;
  std::vector<int32_t> ref_labels(table.num_rows());
  for (size_t i = 0; i < table.num_rows(); ++i) {
    ref_labels[i] = forest.PredictLabel(table, i);
  }
  const double ref_s = ref_timer.Seconds();

  WallTimer compile_timer;
  CompiledForest compiled = CompiledForest::Compile(forest);
  const double compile_s = compile_timer.Seconds();

  TablePrinter table_out({"Predictor", "Threads", "Time (s)", "Rows/s",
                          "Speedup vs row-at-a-time"});
  table_out.AddRow({"ForestModel (row-at-a-time)", "1", Fmt(ref_s, 3),
                    Fmt(RowsPerSec(rows, ref_s), 0), "1.00"});
  std::vector<int32_t> got;
  double single_s = 0.0;
  for (int threads : {1, 2, 4, 8}) {
    const double s = TimeCompiledThreads(compiled, table, threads, &got);
    if (threads == 1) single_s = s;
    if (got != ref_labels) {
      std::printf("FATAL: compiled labels diverge at %d threads\n", threads);
      return 1;
    }
    table_out.AddRow({"CompiledForest (batched)", std::to_string(threads),
                      Fmt(s, 3), Fmt(RowsPerSec(rows, s), 0),
                      Fmt(ref_s / s, 2)});
  }
  table_out.Print();
  std::printf("compile time: %.3fs; single-thread compiled speedup: %.2fx; "
              "8-thread scaling vs 1-thread: %.2fx "
              "(bounded by the %u hardware threads above)\n",
              compile_s, ref_s / single_s,
              single_s / TimeCompiledThreads(compiled, table, 8, &got),
              std::thread::hardware_concurrency());

  // Single-thread batched traversal per node layout, byte-parity
  // checked against the row-at-a-time reference. Quantized needs the
  // serving table's bin index; with one bin per distinct value every
  // exact-split threshold is a bin upper, so no tree falls back.
  std::printf("\n== Node-layout sweep: single-thread bulk scoring ==\n");
  std::shared_ptr<const BinnedTable> serve_bins =
      BinnedTable::Build(table, 65535);
  const int layout_iters = options.quick ? 3 : 5;
  TablePrinter layout_out(
      {"Layout", "Achieved", "Rows/s", "Speedup vs soa", "Same labels"});
  double soa_rps = 0.0;
  double quantized_rps = 0.0;
  for (NodeLayout want : {NodeLayout::kSoa, NodeLayout::kQuantized}) {
    const NodeLayout got_layout = compiled.Repack(
        want, want == NodeLayout::kQuantized ? serve_bins : nullptr);
    double seconds = 0.0;
    bool same = true;
    for (int i = 0; i < layout_iters; ++i) {
      seconds += TimeCompiledThreads(compiled, table, 1, &got);
      same = same && got == ref_labels;
    }
    const double rps = RowsPerSec(rows * layout_iters, seconds);
    (want == NodeLayout::kSoa ? soa_rps : quantized_rps) = rps;
    layout_out.AddRow({NodeLayoutName(want), NodeLayoutName(got_layout),
                       Fmt(rps, 0), Fmt(rps / soa_rps, 2) + "x",
                       same ? "yes" : "NO"});
    if (!same) {
      std::printf("FATAL: %s layout labels diverge\n", NodeLayoutName(want));
      return 1;
    }
  }
  layout_out.Print();
  const double traversal_speedup =
      soa_rps > 0 ? quantized_rps / soa_rps : 0.0;
  // Anchor against the row-at-a-time reference as well: the reference
  // code is untouched by layout work, so this ratio compares across
  // hosts better than raw rows/s.
  const double best_vs_ref =
      ref_s > 0 ? std::max(soa_rps, quantized_rps) / (rows / ref_s) : 0.0;
  std::printf("best layout vs row-at-a-time reference: %.2fx "
              "(soa compiled_speedup above: %.2fx)\n",
              best_vs_ref, ref_s / single_s);

  // End-to-end micro-batching server: submit every row as its own
  // request and read latency percentiles back out of the registry.
  BinaryWriter model_writer;
  forest.Serialize(&model_writer);
  const std::string model_bytes = model_writer.Release();
  MetricsRegistry metrics;
  ModelRegistry registry;
  if (!registry.Publish("bench", std::move(forest)).ok()) return 1;
  InferenceServerConfig server_cfg;
  server_cfg.num_workers = 4;
  server_cfg.max_batch = 256;
  server_cfg.batch_deadline_us = 200;
  server_cfg.max_queue = rows + 1;
  server_cfg.metrics = &metrics;
  InferenceServer server(&registry, server_cfg);
  server.Start();
  auto shared_table = std::make_shared<DataTable>(table);
  // Closed loop with a bounded window of outstanding requests, so the
  // latency percentiles measure micro-batching + execution delay rather
  // than the time to drain a 60k-deep backlog.
  const size_t window = 4096;
  std::vector<std::future<Result<Prediction>>> futures;
  futures.reserve(rows);
  size_t mismatches = 0;
  size_t next_wait = 0;
  WallTimer serve_timer;
  for (size_t i = 0; i < rows; ++i) {
    PredictRequest req;
    req.model = "bench";
    req.table = shared_table;
    req.row = static_cast<uint32_t>(i);
    futures.push_back(server.Predict(std::move(req)));
    while (futures.size() - next_wait > window) {
      auto r = futures[next_wait].get();
      if (!r.ok() || r->label != ref_labels[next_wait]) ++mismatches;
      ++next_wait;
    }
  }
  for (; next_wait < rows; ++next_wait) {
    auto r = futures[next_wait].get();
    if (!r.ok() || r->label != ref_labels[next_wait]) ++mismatches;
  }
  const double serve_s = serve_timer.Seconds();
  server.Stop();
  if (mismatches != 0) {
    std::printf("FATAL: %zu served predictions diverge\n", mismatches);
    return 1;
  }
  Histogram::Snapshot lat =
      metrics.GetHistogram("serve.latency_us.bench")->snapshot();
  Histogram::Snapshot batch =
      metrics.GetHistogram("serve.batch_rows")->snapshot();
  std::printf(
      "server: %.0f rows/s end-to-end, %llu batches (mean %.1f rows), "
      "latency p50 <= %lluus p99 <= %lluus max %lluus\n",
      RowsPerSec(rows, serve_s),
      static_cast<unsigned long long>(
          metrics.GetCounter("serve.batches")->value()),
      batch.Mean(), static_cast<unsigned long long>(lat.Percentile(0.50)),
      static_cast<unsigned long long>(lat.Percentile(0.99)),
      static_cast<unsigned long long>(lat.max));

  char serve_json[768];
  std::snprintf(serve_json, sizeof(serve_json),
                "{\"bench\":\"serve\",\"rows\":%zu,\"trees\":%d,%s,"
                "\"compiled_speedup\":%.2f,\"compile_s\":%.3f,"
                "\"st_soa_rows_per_sec\":%.0f,"
                "\"st_quantized_rows_per_sec\":%.0f,"
                "\"traversal_speedup\":%.2f,"
                "\"best_layout_speedup_vs_ref\":%.2f,"
                "\"server_rows_per_s\":%.0f,\"p50_us\":%llu,"
                "\"p99_us\":%llu,\"max_us\":%llu}\n",
                rows, trees, SimdStatusJson().c_str(), ref_s / single_s,
                compile_s, soa_rps, quantized_rps, traversal_speedup,
                best_vs_ref, RowsPerSec(rows, serve_s),
                static_cast<unsigned long long>(lat.Percentile(0.50)),
                static_cast<unsigned long long>(lat.Percentile(0.99)),
                static_cast<unsigned long long>(lat.max));
  WriteJsonFile("BENCH_serve.json", serve_json);

  // Replicated fleet: the same model pushed through a FleetRouter to
  // 1/2/4 in-process replicas, closed-loop batched load, parity
  // checked on every returned label.
  const size_t fleet_requests = options.quick ? 2000 : 8000;
  const size_t rows_per_batch = 16;
  TablePrinter fleet_out(
      {"Replicas", "Batches/s", "Rows/s", "p99 (us)", "p999 (us)"});
  std::string fleet_json = "{\"bench\":\"serve-fleet\",\"requests\":" +
                           std::to_string(fleet_requests) +
                           ",\"rows_per_batch\":" +
                           std::to_string(rows_per_batch) + ",\"points\":[";
  bool first = true;
  for (int replicas : {1, 2, 4}) {
    FleetBenchPoint point;
    if (!RunFleetBench(replicas, model_bytes, table, ref_labels,
                       fleet_requests, rows_per_batch, &point)) {
      return 1;
    }
    fleet_out.AddRow({std::to_string(point.replicas),
                      Fmt(point.batches_per_s, 0),
                      Fmt(point.batches_per_s * rows_per_batch, 0),
                      std::to_string(point.p99_us),
                      std::to_string(point.p999_us)});
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"replicas\":%d,\"batches_per_s\":%.0f,"
                  "\"p99_us\":%llu,\"p999_us\":%llu}",
                  first ? "" : ",", point.replicas, point.batches_per_s,
                  static_cast<unsigned long long>(point.p99_us),
                  static_cast<unsigned long long>(point.p999_us));
    fleet_json += buf;
    first = false;
  }
  fleet_json += "]}\n";
  std::printf("== Fleet sweep: %zu batched requests x %zu rows ==\n",
              fleet_requests, rows_per_batch);
  fleet_out.Print();
  WriteJsonFile("BENCH_fleet.json", fleet_json);
  return 0;
}
