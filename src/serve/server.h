#ifndef TREESERVER_SERVE_SERVER_H_
#define TREESERVER_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <variant>
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
  /// A model's pending batch is flushed as soon as it holds this many
  /// rows...
  int max_batch = 64;
  /// ...or as soon as its oldest block has waited this long.
  int batch_deadline_us = 200;
  /// Admission bound, in rows: Submit() rejects a block with
  /// Unavailable when it would take the rows admitted but not yet
  /// executing past this bound (backpressure). A block is always
  /// admitted when no rows are queued, so one larger than the bound is
  /// served once the server has drained.
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

/// Rows of one shared table scored as a unit: every row is predicted
/// by the same model version.
struct PredictBlock {
  std::string model;
  std::shared_ptr<const DataTable> table;
  std::vector<uint32_t> rows;
  /// Predict-at-any-depth cutoff; -1 serves the full tree depth.
  int max_depth = -1;
  /// Also return the full class PMFs (classification models).
  bool want_pmf = false;
};

/// The outputs of one block, one entry per row in block order.
struct BlockPrediction {
  /// The one model version every row was scored against.
  uint32_t model_version = 0;
  /// Classification models: argmax of the averaged PMF.
  std::vector<int32_t> labels;
  /// Regression models.
  std::vector<double> values;
  /// Row-major rows x num_classes; filled only when
  /// PredictBlock::want_pmf was set.
  std::vector<float> pmf;
};

/// Completion of one block; runs exactly once (see Submit).
using BlockDone = std::function<void(Result<BlockPrediction>)>;

/// One row-prediction request: a one-row PredictBlock.
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
/// Submit() enqueues a block of rows and returns at once; the block's
/// completion runs when it has been scored. Blocks are grouped into
/// per-model batches as they are admitted, and a scheduler thread
/// flushes a batch once it holds `max_batch` rows or its oldest block
/// ages past `batch_deadline_us`; it wakes before a deadline only when
/// a batch fills. A block is never split: one that would overfill the
/// batch flushes the batch first, and one of `max_batch` rows or more
/// is flushed alone. The model version is resolved once per flush
/// (atomic registry load), so every row of a block is scored by one
/// version and a hot-swapped model takes over between blocks, never
/// inside one. Worker threads execute batches through the compiled
/// predictors, grouping blocks by (table, max_depth) so each group is
/// a single batched traversal. Admission control rejects rows beyond
/// `max_queue` instead of queueing unboundedly. Predict() is a one-row
/// block on the same path whose
/// row and promise are held inline, so its only per-row allocation is
/// the future's shared state.
///
/// Blocks may be submitted before Start(): they are admitted against
/// the same bound and served once the server starts.
class InferenceServer {
 public:
  InferenceServer(const ModelRegistry* registry, InferenceServerConfig config);
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  void Start();
  /// Stops admission, drains queued blocks, joins all threads. Every
  /// admitted block's completion has run when it returns. Idempotent.
  void Stop();

  /// Queues one block. `done` runs exactly once, with the block's
  /// predictions or with NotFound (unknown model), Unavailable (queue
  /// full: other rows are queued and this block does not fit beside
  /// them), InvalidArgument (no table or an out-of-range row) or
  /// FailedPrecondition (server stopped). It runs on the calling
  /// thread when the block is refused here, on the thread calling
  /// Stop() when the server never started, and on a worker thread
  /// otherwise, so it must not wait on other blocks.
  void Submit(PredictBlock block, BlockDone done);

  /// Queues one row as a one-row block; the future resolves as Submit's
  /// completion would.
  std::future<Result<Prediction>> Predict(PredictRequest request);

  /// Rows admitted but not yet executing.
  size_t queue_depth() const;

  /// Point-in-time load counters of this server alone; the serve.*
  /// registry counters also count every other server sharing the
  /// registry. Feeds /statusz and the fleet replica's health pongs.
  /// `requests` and `rejected` count blocks.
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
  /// A one-row Predict keeps its row in `row` and resolves a promise;
  /// a Submit block owns its rows and runs its callback. The model name
  /// lives in the block's batch.
  using OneRowDone = std::promise<Result<Prediction>>;
  struct PendingBlock {
    std::shared_ptr<const DataTable> table;
    /// Empty for a one-row Predict.
    std::vector<uint32_t> block_rows;
    uint32_t row = 0;
    int max_depth = -1;
    bool want_pmf = false;
    std::variant<BlockDone, OneRowDone> done;
    uint64_t enqueue_ns = 0;

    bool one_row() const { return done.index() == 1; }
    const uint32_t* rows() const {
      return one_row() ? &row : block_rows.data();
    }
    size_t num_rows() const { return one_row() ? 1 : block_rows.size(); }
  };
  /// Blocks of one model flushed together.
  struct Batch {
    std::string model;
    /// Resolved at flush; nullptr when no such model is published.
    std::shared_ptr<const ServedModel> served;
    std::vector<PendingBlock> blocks;
    size_t rows = 0;
  };

  /// Validates and admits one block of `model` (the shared tail of
  /// Submit and Predict).
  void Enqueue(std::string&& model, PendingBlock&& item);
  /// Adds an admitted block to its model's batch; returns whether the
  /// scheduler must wake (a batch filled, or it sleeps with none).
  bool AddToBatchLocked(std::string&& model, PendingBlock&& item);
  static void Fail(PendingBlock* item, Status status);
  void SchedulerLoop();
  void WorkerLoop();
  void ExecuteBatch(Batch batch);
  void Flush(Batch batch);

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
  /// Per-model batches still filling; every entry holds a block, and
  /// the oldest block's `enqueue_ns` is the batch's age.
  std::map<std::string, Batch> pending_;
  /// Batches that are full or due, waiting for the scheduler to flush.
  std::vector<Batch> ready_;
  /// Rows admitted but not yet picked up by a worker (admission bound).
  /// Added under `mu_`; workers subtract without it, so they never
  /// contend with admission.
  std::atomic<size_t> queued_rows_{0};
  /// The scheduler is waiting with no batch pending, so no deadline
  /// will wake it.
  bool scheduler_idle_ = false;
  bool started_ = false;
  bool stopping_ = false;

  std::thread scheduler_;
  BlockingQueue<Batch> batches_;
  std::vector<std::thread> workers_;
  std::unique_ptr<HttpServer> http_;
};

}  // namespace treeserver

#endif  // TREESERVER_SERVE_SERVER_H_
