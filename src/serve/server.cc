#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <utility>

#include "common/introspection.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/simd.h"
#include "common/trace.h"

namespace treeserver {

namespace {

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

InferenceServer::InferenceServer(const ModelRegistry* registry,
                                 InferenceServerConfig config)
    : registry_(registry),
      config_(config),
      metrics_(config.metrics != nullptr ? *config.metrics
                                         : MetricsRegistry::Global()),
      requests_total_(metrics_.GetCounter("serve.requests")),
      requests_rejected_(metrics_.GetCounter("serve.rejected")),
      batches_flushed_(metrics_.GetCounter("serve.batches")),
      batch_rows_(metrics_.GetHistogram("serve.batch_rows")) {}

InferenceServer::~InferenceServer() { Stop(); }

void InferenceServer::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_ || stopping_) return;
    started_ = true;
    scheduler_ = std::thread(&InferenceServer::SchedulerLoop, this);
    const int workers = std::max(1, config_.num_workers);
    workers_.reserve(workers);
    for (int i = 0; i < workers; ++i) {
      workers_.emplace_back(&InferenceServer::WorkerLoop, this);
    }
  }
  if (config_.http_port >= 0) {
    http_ = std::make_unique<HttpServer>();
    MountIntrospection(http_.get(), &metrics_, [this] {
      const Stats stats = GetStats();
      std::string body = "{\"role\":\"inference\"," + SimdStatusJson() +
                         ",\"queue_depth\":" +
                         std::to_string(stats.queue_depth) +
                         ",\"requests\":" + std::to_string(stats.requests) +
                         ",\"batches\":" + std::to_string(stats.batches) +
                         ",\"rejected\":" + std::to_string(stats.rejected) +
                         ",\"rss_bytes\":" + std::to_string(CurrentRssBytes()) +
                         ",\"models\":[";
      if (registry_ != nullptr) {
        bool first = true;
        for (const auto& m : registry_->StatusSnapshot()) {
          if (!first) body += ",";
          first = false;
          body += "{\"name\":";
          AppendJsonString(&body, m.name);
          body += ",\"version\":" + std::to_string(m.version) +
                  ",\"num_versions\":" + std::to_string(m.num_versions) +
                  ",\"kind\":\"" + ModelKindName(m.kind) + "\"}";
        }
      }
      body += "]}\n";
      return body;
    });
    Status st = http_->Start(config_.http_host,
                             static_cast<uint16_t>(config_.http_port));
    if (!st.ok()) {
      TS_LOG(kError) << "inference http: " << st.ToString();
      http_.reset();
    }
  }
}

void InferenceServer::Stop() {
  if (http_ != nullptr) http_->Stop();
  std::vector<Batch> orphaned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    if (!started_) {
      // Never ran: fail whatever was admitted pre-Start.
      orphaned.swap(ready_);
      for (auto& [model, batch] : pending_) {
        orphaned.push_back(std::move(batch));
      }
      pending_.clear();
      queued_rows_ = 0;
    }
  }
  cv_.notify_all();
  for (Batch& batch : orphaned) {
    for (PendingBlock& item : batch.blocks) {
      Fail(&item,
           Status::FailedPrecondition("inference server stopped before start"));
    }
  }
  if (scheduler_.joinable()) scheduler_.join();
  batches_.Close();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

void InferenceServer::Submit(PredictBlock block, BlockDone done) {
  PendingBlock item;
  item.table = std::move(block.table);
  item.block_rows = std::move(block.rows);
  item.max_depth = block.max_depth;
  item.want_pmf = block.want_pmf;
  item.done = std::move(done);
  Enqueue(std::move(block.model), std::move(item));
}

std::future<Result<Prediction>> InferenceServer::Predict(
    PredictRequest request) {
  PendingBlock item;
  item.table = std::move(request.table);
  item.row = request.row;
  item.max_depth = request.max_depth;
  item.want_pmf = request.want_pmf;
  std::future<Result<Prediction>> future =
      item.done.emplace<OneRowDone>().get_future();
  Enqueue(std::move(request.model), std::move(item));
  return future;
}

void InferenceServer::Enqueue(std::string&& model, PendingBlock&& item) {
  requests_total_->Inc();
  requests_.Inc();
  const DataTable* table = item.table.get();
  const size_t rows = item.num_rows();
  if (table == nullptr ||
      std::any_of(item.rows(), item.rows() + rows,
                  [&](uint32_t r) { return r >= table->num_rows(); })) {
    Fail(&item, Status::InvalidArgument(
                    "predict block has no table or an out-of-range row"));
    return;
  }

  item.enqueue_ns = NowNanos();
  Status refused;
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      refused = Status::FailedPrecondition("inference server is stopped");
    } else if (const size_t queued = queued_rows_.load();
               queued > 0 && queued + rows > config_.max_queue) {
      refused = Status::Unavailable(
          "inference queue full (" + std::to_string(queued) + " of " +
          std::to_string(config_.max_queue) + " rows pending, block of " +
          std::to_string(rows) + "); retry later");
    } else {
      queued_rows_ += rows;
      wake = AddToBatchLocked(std::move(model), std::move(item));
    }
  }
  if (refused.ok()) {
    if (wake) cv_.notify_one();
    return;
  }
  if (refused.code() == StatusCode::kUnavailable) {
    requests_rejected_->Inc();
    rejected_.Inc();
  }
  Fail(&item, std::move(refused));
}

bool InferenceServer::AddToBatchLocked(std::string&& model,
                                       PendingBlock&& item) {
  const size_t max_batch = static_cast<size_t>(std::max(1, config_.max_batch));
  const size_t rows = item.num_rows();
  bool filled = false;
  // A block is never split: one that would overfill its model's batch
  // readies the batch first, and a batch is ready once it holds
  // max_batch rows.
  auto it = pending_.find(model);
  if (it != pending_.end() && it->second.rows + rows > max_batch) {
    ready_.push_back(std::move(it->second));
    pending_.erase(it);
    it = pending_.end();
    filled = true;
  }
  if (it == pending_.end()) {
    it = pending_.try_emplace(std::move(model)).first;
    it->second.model = it->first;
    // Room for a full batch of blocks the size of this one.
    it->second.blocks.reserve(max_batch / std::max<size_t>(rows, 1));
  }
  Batch& batch = it->second;
  batch.rows += rows;
  batch.blocks.push_back(std::move(item));
  if (batch.rows >= max_batch) {
    ready_.push_back(std::move(batch));
    pending_.erase(it);
    filled = true;
  }
  return filled || scheduler_idle_;
}

void InferenceServer::Fail(PendingBlock* item, Status status) {
  if (item->one_row()) {
    std::get<OneRowDone>(item->done).set_value(std::move(status));
  } else {
    std::get<BlockDone>(item->done)(std::move(status));
  }
}

size_t InferenceServer::queue_depth() const { return queued_rows_.load(); }

InferenceServer::Stats InferenceServer::GetStats() const {
  Stats stats;
  stats.queue_depth = queue_depth();
  stats.requests = requests_.value();
  stats.batches = flushed_.value();
  stats.rejected = rejected_.value();
  return stats;
}

uint16_t InferenceServer::http_port() const {
  return http_ != nullptr ? http_->port() : 0;
}

void InferenceServer::SchedulerLoop() {
  const uint64_t deadline_ns =
      static_cast<uint64_t>(std::max(0, config_.batch_deadline_us)) * 1000;
  std::vector<Batch> flushing;

  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (ready_.empty() && !stopping_) {
      if (pending_.empty()) {
        scheduler_idle_ = true;
        cv_.wait(lock, [&] {
          return !ready_.empty() || !pending_.empty() || stopping_;
        });
        scheduler_idle_ = false;
      } else {
        // Sleep until the oldest pending batch is due. Admission ends
        // the sleep early only when a batch fills, so blocks arriving
        // meanwhile are batched together.
        uint64_t due = UINT64_MAX;
        for (const auto& [model, batch] : pending_) {
          due = std::min(due, batch.blocks.front().enqueue_ns + deadline_ns);
        }
        const uint64_t now = NowNanos();
        if (due > now) {
          cv_.wait_for(lock, std::chrono::nanoseconds(due - now),
                       [&] { return !ready_.empty() || stopping_; });
        }
      }
    }

    // Batches whose oldest block aged past the deadline are ready too
    // (all of them when draining for shutdown).
    const bool draining = stopping_;
    const uint64_t now = NowNanos();
    for (auto it = pending_.begin(); it != pending_.end();) {
      const uint64_t age = now - it->second.blocks.front().enqueue_ns;
      if (draining || age >= deadline_ns) {
        ready_.push_back(std::move(it->second));
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
    flushing.swap(ready_);
    lock.unlock();
    for (Batch& batch : flushing) Flush(std::move(batch));
    flushing.clear();
    lock.lock();

    if (draining && ready_.empty() && pending_.empty()) break;
  }
}

void InferenceServer::Flush(Batch batch) {
  // Resolve the model version once per batch: every block in it is
  // scored by this one version.
  batch.served =
      registry_ == nullptr ? nullptr : registry_->Current(batch.model);
  if (batch.served != nullptr) {
    batches_flushed_->Inc();
    flushed_.Inc();
    batch_rows_->Add(batch.rows);
  }
  // Stop() joins the scheduler before closing the batch queue, so this
  // Push cannot race Close.
  batches_.Push(std::move(batch));
}

void InferenceServer::WorkerLoop() {
  while (true) {
    std::optional<Batch> batch = batches_.Pop();
    if (!batch.has_value()) return;
    queued_rows_ -= batch->rows;
    ExecuteBatch(std::move(*batch));
  }
}

void InferenceServer::ExecuteBatch(Batch batch) {
  if (batch.served == nullptr) {
    for (PendingBlock& item : batch.blocks) {
      Fail(&item, Status::NotFound("no published model named " + batch.model));
    }
    return;
  }
  TraceSpan span(TraceCat::kServe, "serve-batch");
  const CompiledForest& compiled = batch.served->compiled;
  Histogram* latency = metrics_.GetHistogram("serve.latency_us." + batch.model);

  // Group blocks sharing a table and depth cutoff: each group is one
  // batched traversal over the compiled forest.
  struct GroupKey {
    const DataTable* table;
    int max_depth;
    bool operator<(const GroupKey& o) const {
      return table != o.table ? table < o.table : max_depth < o.max_depth;
    }
  };
  std::map<GroupKey, std::vector<size_t>> groups;
  for (size_t i = 0; i < batch.blocks.size(); ++i) {
    const PendingBlock& item = batch.blocks[i];
    groups[{item.table.get(), item.max_depth}].push_back(i);
  }

  const bool classification = compiled.is_classification();
  const size_t num_classes = static_cast<size_t>(compiled.num_classes());
  std::vector<uint32_t> rows;
  std::vector<float> pmf;
  std::vector<int32_t> labels;
  std::vector<double> values;
  for (const auto& [key, members] : groups) {
    rows.clear();
    for (size_t i : members) {
      const PendingBlock& item = batch.blocks[i];
      rows.insert(rows.end(), item.rows(), item.rows() + item.num_rows());
    }
    if (classification) {
      // One traversal: the labels are the argmax of the PMF.
      pmf.assign(rows.size() * num_classes, 0.0f);
      labels.assign(rows.size(), 0);
      if (!rows.empty()) {
        compiled.PredictPmf(*key.table, rows.data(), rows.size(),
                            key.max_depth, pmf.data());
        ArgmaxLabels(pmf.data(), rows.size(), compiled.num_classes(),
                     labels.data());
      }
    } else {
      values.assign(rows.size(), 0.0);
      if (!rows.empty()) {
        compiled.PredictValue(*key.table, rows.data(), rows.size(),
                              key.max_depth, values.data());
      }
    }

    const uint64_t done_ns = NowNanos();
    const uint32_t version = batch.served->version;
    size_t begin = 0;
    for (size_t i : members) {
      PendingBlock& item = batch.blocks[i];
      const size_t end = begin + item.num_rows();
      latency->Add((done_ns - item.enqueue_ns) / 1000);
      std::vector<float> block_pmf;
      if (classification && item.want_pmf) {
        block_pmf.assign(pmf.begin() + begin * num_classes,
                         pmf.begin() + end * num_classes);
      }
      if (item.one_row()) {
        Prediction out;
        out.model_version = version;
        out.pmf = std::move(block_pmf);
        if (classification) {
          out.label = labels[begin];
        } else {
          out.value = values[begin];
        }
        std::get<OneRowDone>(item.done).set_value(std::move(out));
      } else {
        BlockPrediction out;
        out.model_version = version;
        out.pmf = std::move(block_pmf);
        if (classification) {
          out.labels.assign(labels.begin() + begin, labels.begin() + end);
        } else {
          out.values.assign(values.begin() + begin, values.begin() + end);
        }
        std::get<BlockDone>(item.done)(std::move(out));
      }
      begin = end;
    }
  }
}

}  // namespace treeserver
