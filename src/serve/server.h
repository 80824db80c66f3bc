#ifndef TREESERVER_SERVE_SERVER_H_
#define TREESERVER_SERVE_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/http_server.h"
#include "common/metrics_registry.h"
#include "concurrent/blocking_queue.h"
#include "serve/registry.h"
#include "table/data_table.h"

namespace treeserver {

struct InferenceServerConfig {
  /// Prediction worker threads executing flushed batches.
  int num_workers = 2;
  /// A model's pending batch is flushed as soon as it reaches this
  /// many requests...
  int max_batch = 64;
  /// ...or as soon as its oldest request has waited this long.
  int batch_deadline_us = 200;
  /// Admission bound: Predict() rejects with Unavailable once this
  /// many requests are queued but not yet executing (backpressure).
  size_t max_queue = 4096;
  /// Destination for serving metrics; nullptr uses
  /// MetricsRegistry::Global(). Metrics:
  ///   serve.requests / serve.rejected / serve.batches   (counters)
  ///   serve.batch_rows                                  (histogram)
  ///   serve.latency_us.<model>                          (histograms)
  MetricsRegistry* metrics = nullptr;
  /// Introspection HTTP port (-1 disables, 0 picks an ephemeral port;
  /// read it back via InferenceServer::http_port()). Endpoints:
  /// /metrics (Prometheus text), /healthz, /statusz (JSON).
  int http_port = -1;
  std::string http_host = "127.0.0.1";
};

/// One row-prediction request. The table is shared so the caller can
/// batch many requests against one block without copies; `row` indexes
/// into it.
struct PredictRequest {
  std::string model;
  std::shared_ptr<const DataTable> table;
  uint32_t row = 0;
  /// Predict-at-any-depth cutoff; -1 serves the full tree depth.
  int max_depth = -1;
  /// Also return the full class PMF (classification models).
  bool want_pmf = false;
};

struct Prediction {
  uint32_t model_version = 0;
  /// Classification output (argmax of the averaged PMF).
  int32_t label = 0;
  /// Regression output.
  double value = 0.0;
  /// Filled only when PredictRequest::want_pmf was set.
  std::vector<float> pmf;
};

/// In-process micro-batching prediction server over a ModelRegistry.
///
/// Predict() enqueues a request and returns a future. A scheduler
/// thread groups requests per model and flushes a batch when it
/// reaches `max_batch` rows or its oldest request ages past
/// `batch_deadline_us`; the model version is resolved at flush time
/// (atomic registry load), so hot-swapped models take over between
/// batches, never inside one. Worker threads execute batches through
/// the compiled predictors, sub-grouped by (table, max_depth) so each
/// group is a single batched traversal. Admission control rejects work
/// beyond `max_queue` instead of queueing unboundedly.
///
/// Requests may be submitted before Start(): they are admitted against
/// the same bound and served once the server starts.
class InferenceServer {
 public:
  InferenceServer(const ModelRegistry* registry, InferenceServerConfig config);
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  void Start();
  /// Stops admission, drains queued requests, joins all threads.
  /// Idempotent.
  void Stop();

  /// Queues one prediction. The future resolves with the prediction,
  /// or with NotFound (unknown model), Unavailable (queue full), or
  /// FailedPrecondition (server stopped).
  std::future<Result<Prediction>> Predict(PredictRequest request);

  /// Requests currently queued ahead of the scheduler (not yet
  /// batched).
  size_t queue_depth() const;

  /// Point-in-time load counters of this server alone; the serve.*
  /// registry counters also count every other server sharing the
  /// registry. Feeds /statusz and the fleet replica's health pongs.
  struct Stats {
    size_t queue_depth = 0;
    uint64_t requests = 0;
    uint64_t batches = 0;
    uint64_t rejected = 0;
  };
  Stats GetStats() const;

  /// Bound introspection port, or 0 when HTTP is disabled.
  uint16_t http_port() const;

 private:
  struct PendingRequest {
    PredictRequest request;
    std::promise<Result<Prediction>> promise;
    uint64_t enqueue_ns = 0;
  };
  struct Batch {
    std::shared_ptr<const ServedModel> model;
    std::vector<PendingRequest> items;
  };

  void SchedulerLoop();
  void WorkerLoop();
  void ExecuteBatch(Batch batch);
  void FlushModel(const std::string& name, std::vector<PendingRequest> items);

  const ModelRegistry* const registry_;
  const InferenceServerConfig config_;
  MetricsRegistry& metrics_;

  // serve.* counters, shared by every server on the same registry.
  Counter* const requests_total_;
  Counter* const requests_rejected_;
  Counter* const batches_flushed_;
  Histogram* const batch_rows_;
  // This server's own counts (GetStats).
  Counter requests_;
  Counter rejected_;
  Counter flushed_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<PendingRequest> queue_;
  bool started_ = false;
  bool stopping_ = false;

  std::thread scheduler_;
  BlockingQueue<Batch> batches_;
  std::vector<std::thread> workers_;
  std::unique_ptr<HttpServer> http_;
};

}  // namespace treeserver

#endif  // TREESERVER_SERVE_SERVER_H_
