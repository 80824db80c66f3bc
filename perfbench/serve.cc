// The two serving workloads: an open-loop rate ladder against a
// FleetRouter over two in-process FleetReplicas (with model pushes
// beside the reads), and single-thread bulk scoring through
// CompiledForest's batch API in the default and quantized layouts.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/metrics_registry.h"
#include "fleet/replica.h"
#include "fleet/router.h"
#include "fleet/wire.h"
#include "net/network.h"
#include "serve/compiled_model.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "table/binned.h"
#include "table/datasets.h"

namespace perfbench {
namespace {

using treeserver::CompiledForest;
using treeserver::DataTable;
using treeserver::DatasetProfile;
using treeserver::FleetBatchResult;
using treeserver::ForestJobSpec;
using treeserver::ForestModel;
using treeserver::Histogram;
using treeserver::MetricsRegistry;

constexpr double kInf = std::numeric_limits<double>::infinity();

DatasetProfile ServingProfile(const char* name, size_t rows) {
  DatasetProfile p;
  p.name = name;
  p.rows = rows;
  p.num_numeric = 8;
  p.num_categorical = 4;
  p.num_classes = 5;
  p.missing_fraction = 0.05;
  p.noise = 0.1;
  p.concept_depth = 8;
  return p;
}

/// Rows [0, n) with i % 2 == parity, as a table.
DataTable RowsWithParity(const DataTable& table, uint32_t parity) {
  std::vector<uint32_t> rows;
  for (uint32_t i = parity; i < table.num_rows(); i += 2) rows.push_back(i);
  return table.GatherRows(rows);
}

std::vector<uint32_t> AllRows(size_t n) {
  std::vector<uint32_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = static_cast<uint32_t>(i);
  return rows;
}

double HoldoutError(const std::vector<int32_t>& labels, const DataTable& table,
                    const std::vector<uint32_t>& rows) {
  size_t wrong = 0;
  for (uint32_t r : rows) wrong += labels[r] != table.label_at(r);
  return static_cast<double>(wrong) / rows.size();
}

/// Row-at-a-time labels from the source ForestModel: the reference the
/// compiled and served predictions must equal.
std::vector<int32_t> ReferenceLabels(const ForestModel& forest,
                                     const DataTable& table) {
  std::vector<int32_t> labels(table.num_rows());
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i] = forest.PredictLabel(table, i);
  }
  return labels;
}

// ---------------------------------------------------------------------
// serve_fleet_online
// ---------------------------------------------------------------------

/// Router plus replicas over one in-process transport, all with the
/// library's default timers, batch deadline and admission bounds.
struct Fleet {
  explicit Fleet(int num_replicas) : net(num_replicas, 0.0) {
    for (int r = 0; r < num_replicas; ++r) {
      treeserver::FleetReplicaConfig rc;
      rc.rank = r;
      replicas.push_back(std::make_unique<treeserver::FleetReplica>(&net, rc));
    }
    router = std::make_unique<treeserver::FleetRouter>(
        &net, treeserver::FleetRouterConfig{});
    for (auto& r : replicas) r->Start();
    router->Start();
  }
  ~Fleet() {
    router->Stop();
    for (auto& r : replicas) r->Stop();
  }

  treeserver::InProcessTransport net;
  std::vector<std::unique_ptr<treeserver::FleetReplica>> replicas;
  std::unique_ptr<treeserver::FleetRouter> router;
};

constexpr int kReplicas = 2;
/// The rung whose latency is the end-to-end figure (2000 requests/s).
constexpr size_t kReferenceRung = 1;
/// Order in which the rungs run, one segment each. The reference rung
/// recurs through the run, and a rung's p50 is the median of its
/// segments' p50s, so one stretch of host noise moves one segment, not
/// the figure.
constexpr size_t kSequence[] = {1, 0, 1, 2, 1, 3, 1, 4, 1};
constexpr size_t kNumSegments = sizeof(kSequence) / sizeof(kSequence[0]);
/// Segments that run at a rate the fleet can sustain (the overloaded
/// ones end as soon as the backlog cap is hit); sizes the segment
/// length from --seconds.
constexpr size_t kTimedSegments = 7;
/// Well above the scheduling stalls of a 4-vCPU guest (stalls of tens
/// of ms were seen at every rate), so the rung rule finds the
/// throughput knee rather than host noise.
constexpr double kP99LimitMs = 100.0;
/// Slack of the growing-backlog test (stats.h), in requests: a stall of
/// a few tens of ms at 4000 requests/s must not read as growth.
constexpr double kBacklogSlack = 64.0;
/// The generator ends a segment once this many requests are
/// outstanding: the rung has already failed, and pushing on would only
/// measure the router's shedding.
constexpr int64_t kBacklogCap = 512;
constexpr uint32_t kMaxRowsPerRequest = 16;

/// What one pass over the ladder measured.
struct LadderRun {
  // Per rung.
  std::vector<std::vector<double>> latency_ms;
  std::vector<uint64_t> rows_done;
  std::vector<double> seconds;  // time spent sending
  std::vector<uint64_t> sent;
  std::vector<uint64_t> failed;
  std::vector<bool> backlog_growing;
  // Per segment.
  std::vector<std::vector<double>> segment_latency_ms;
  std::vector<size_t> segment_rung;

  std::vector<double> late_ms;
  std::vector<double> push_s;
  size_t backlog_max = 0;
  uint64_t mixed_version_replies = 0;
  std::vector<std::string> mismatches;
};

struct Request {
  uint64_t id = 0;
  size_t rung = 0;
  size_t segment = 0;
  uint64_t due_ns = 0;
  std::vector<uint32_t> rows;
  std::future<treeserver::Result<FleetBatchResult>> reply;
};

class Ladder {
 public:
  Ladder(Fleet* fleet, const DataTable* pool,
         const std::vector<int32_t>* refs, const std::string* bytes,
         uint64_t seed, double segment_seconds, SpanRecorder* spans)
      : fleet_(fleet),
        pool_(pool),
        refs_(refs),
        bytes_(bytes),
        seed_(seed),
        segment_seconds_(segment_seconds),
        spans_(spans) {}

  /// Runs one open-loop segment per entry of `sequence`. With `pushes`,
  /// every segment after the first starts with a model push of the
  /// other forest, made beside the requests by a second thread.
  /// `pushes_done` counts the pushes this fleet has taken (the first
  /// installs forest 0 as version 1).
  LadderRun Run(const std::vector<size_t>& sequence, bool pushes,
                int* pushes_done) {
    LadderRun out;
    out.latency_ms.resize(kNumLadderRungs);
    out.rows_done.assign(kNumLadderRungs, 0);
    out.seconds.assign(kNumLadderRungs, 0.0);
    out.sent.assign(kNumLadderRungs, 0);
    out.failed.assign(kNumLadderRungs, 0);
    out.backlog_growing.assign(kNumLadderRungs, false);
    out.segment_latency_ms.resize(sequence.size());
    out.segment_rung = sequence;
    run_ = &out;
    done_ = false;

    std::thread collector([this] { Collect(); });
    std::mutex push_mu;
    std::condition_variable push_cv;
    int push_requests = 0;                 // guarded by push_mu
    bool stop_push = false;                // guarded by push_mu
    std::vector<std::string> push_errors;  // pusher thread only
    std::thread pusher([&] {
      std::unique_lock<std::mutex> lock(push_mu);
      for (;;) {
        push_cv.wait(lock, [&] { return stop_push || push_requests > 0; });
        if (push_requests == 0) return;
        --push_requests;
        lock.unlock();
        const int which = *pushes_done % 2;
        const int span = spans_->Begin("fleet.push", -1, 0, 2);
        const uint64_t t0 = NowNs();
        const treeserver::Status st = fleet_->router->Push("m", bytes_[which]);
        const double s = SecondsSince(t0);
        spans_->End(span);
        if (st.ok()) {
          ++*pushes_done;
          out.push_s.push_back(s);
        } else {
          push_errors.push_back("push failed: " + st.ToString());
        }
        lock.lock();
      }
    });

    for (size_t i = 0; i < sequence.size(); ++i) {
      if (pushes && i > 0) {
        std::lock_guard<std::mutex> lock(push_mu);
        ++push_requests;
        push_cv.notify_all();
      }
      Generate(sequence[i], i, &out);
    }

    {
      std::lock_guard<std::mutex> lock(push_mu);
      stop_push = true;
      push_cv.notify_all();
    }
    pusher.join();
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    collector.join();
    for (std::string& e : push_errors) out.mismatches.push_back(std::move(e));
    run_ = nullptr;
    return out;
  }

 private:
  /// Open loop: Poisson arrivals at the rung's rate from one thread,
  /// each request sent at its due time (or as soon after as the
  /// generator gets there; the lateness is recorded).
  void Generate(size_t rung, size_t segment, LadderRun* out) {
    std::mt19937_64 rng(seed_ * 1000003 + segment);
    std::exponential_distribution<double> gap(kLadderRates[rung]);
    std::uniform_int_distribution<uint32_t> nrows(1, kMaxRowsPerRequest);
    std::uniform_int_distribution<uint32_t> row(
        0, static_cast<uint32_t>(pool_->num_rows() - 1));

    std::vector<size_t> outstanding_at_send;
    bool capped = false;
    const uint64_t start = NowNs();
    const uint64_t end = start + static_cast<uint64_t>(segment_seconds_ * 1e9);
    double offset_s = gap(rng);
    for (;;) {
      const uint64_t due = start + static_cast<uint64_t>(offset_s * 1e9);
      if (due >= end) break;
      offset_s += gap(rng);
      Request req;
      req.id = next_id_++;
      req.rung = rung;
      req.segment = segment;
      req.due_ns = due;
      req.rows.resize(nrows(rng));
      for (uint32_t& r : req.rows) r = row(rng);

      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
      const int64_t outstanding = outstanding_.load();
      out->backlog_max =
          std::max(out->backlog_max, static_cast<size_t>(outstanding));
      if (outstanding >= kBacklogCap) {
        capped = true;
        break;
      }
      outstanding_at_send.push_back(static_cast<size_t>(outstanding));
      const uint64_t sent = NowNs();
      out->late_ms.push_back((sent - due) * 1e-6);
      req.reply = fleet_->router->PredictRows("m", *pool_, req.rows.data(),
                                              req.rows.size());
      ++out->sent[rung];
      outstanding_.fetch_add(1);
      {
        std::lock_guard<std::mutex> lock(mu_);
        incoming_.push_back(std::move(req));
      }
      cv_.notify_one();
    }
    out->seconds[rung] += SecondsSince(start);
    if (capped || BacklogGrowing(outstanding_at_send, kBacklogSlack)) {
      out->backlog_growing[rung] = true;
    }
    // Let the segment drain so its backlog does not spill into the next.
    const uint64_t drain_until = NowNs() + 5000000000ull;
    while (outstanding_.load() > 0 && NowNs() < drain_until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  /// Waits on the oldest outstanding reply (woken the moment it
  /// resolves), then stamps every other reply that has resolved too, so
  /// each completion is timed when it happens rather than when an
  /// earlier one is collected.
  void Collect() {
    std::vector<Request> pending;  // in send order
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (pending.empty()) {
          cv_.wait(lock, [&] { return done_ || !incoming_.empty(); });
        }
        while (!incoming_.empty()) {
          pending.push_back(std::move(incoming_.front()));
          incoming_.pop_front();
        }
        if (pending.empty() && done_) return;
      }
      pending.front().reply.wait_for(std::chrono::milliseconds(1));
      size_t kept = 0;
      for (size_t i = 0; i < pending.size(); ++i) {
        if (pending[i].reply.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          Finish(std::move(pending[i]), NowNs());
          outstanding_.fetch_sub(1);
        } else {
          if (kept != i) pending[kept] = std::move(pending[i]);
          ++kept;
        }
      }
      pending.resize(kept);
    }
  }

  void Finish(Request req, uint64_t done_ns) {
    LadderRun& out = *run_;
    treeserver::Result<FleetBatchResult> reply = req.reply.get();
    spans_->Add("fleet.request", req.due_ns, done_ns, -1, req.id, 1);
    double latency = (done_ns - req.due_ns) * 1e-6;
    if (!reply.ok()) {
      ++out.failed[req.rung];
      latency = kInf;
    } else if (reply->labels.size() != req.rows.size() ||
               reply->version == 0) {
      out.mismatches.push_back("reply has the wrong shape");
    } else {
      // Version v holds forest (v - 1) % 2: pushes alternate.
      const int own = static_cast<int>((reply->version - 1) % 2);
      bool mixed = false;
      for (size_t i = 0; i < req.rows.size(); ++i) {
        const int32_t got = reply->labels[i];
        if (got == refs_[own][req.rows[i]]) continue;
        if (got == refs_[1 - own][req.rows[i]]) {
          mixed = true;
        } else {
          out.mismatches.push_back("reply row matches neither pushed forest");
          break;
        }
      }
      out.mixed_version_replies += mixed;
      out.rows_done[req.rung] += req.rows.size();
    }
    out.latency_ms[req.rung].push_back(latency);
    out.segment_latency_ms[req.segment].push_back(latency);
  }

  Fleet* const fleet_;
  const DataTable* const pool_;
  const std::vector<int32_t>* const refs_;  // [2] reference labels
  const std::string* const bytes_;          // [2] forest bytes
  const uint64_t seed_;
  const double segment_seconds_;
  SpanRecorder* const spans_;

  LadderRun* run_ = nullptr;
  uint64_t next_id_ = 1;
  std::atomic<int64_t> outstanding_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Request> incoming_;  // guarded by mu_
  bool done_ = false;             // guarded by mu_
};

/// A rung's p50: the median of its segments' p50s.
double RungP50(const LadderRun& run, size_t rung) {
  std::vector<double> p50s;
  for (size_t i = 0; i < run.segment_rung.size(); ++i) {
    if (run.segment_rung[i] == rung && !run.segment_latency_ms[i].empty()) {
      p50s.push_back(Median(run.segment_latency_ms[i]));
    }
  }
  return Median(p50s);
}

/// The InferenceServer a replica wraps, called directly on a private
/// registry: rows/s for the pool submitted as one burst of single-row
/// requests (as a replica submits them), and the latency of requests of
/// 1-16 rows sent one at a time.
void ServerProbe(const ForestModel& forest, const DataTable& pool,
                 const std::vector<int32_t>& reference, uint64_t seed,
                 SpanRecorder* spans, Result* result) {
  MetricsRegistry metrics;
  treeserver::ModelRegistry registry;
  TS_CHECK(registry.Publish("m", forest).ok());
  treeserver::InferenceServerConfig cfg;
  cfg.metrics = &metrics;
  cfg.max_queue = pool.num_rows() + 1;
  treeserver::InferenceServer server(&registry, cfg);
  server.Start();
  auto table = std::make_shared<const DataTable>(pool);
  using Future = std::future<treeserver::Result<treeserver::Prediction>>;
  std::vector<std::pair<uint32_t, Future>> futs;  // (row, prediction)
  auto submit = [&](uint32_t r) {
    futs.emplace_back(r, server.Predict({"m", table, r, -1, false}));
  };
  auto wait_all = [&] {
    for (auto& [r, f] : futs) {
      const treeserver::Result<treeserver::Prediction> p = f.get();
      if (!p.ok() || p->label != reference[r]) {
        result->Mismatch("direct server prediction differs from reference");
      }
    }
    futs.clear();
  };

  std::vector<double> rows_per_s;
  for (int round = 0; round < 3; ++round) {
    const int span = spans->Begin("serve.server_burst");
    const uint64_t t0 = NowNs();
    for (uint32_t r = 0; r < pool.num_rows(); ++r) submit(r);
    wait_all();
    rows_per_s.push_back(pool.num_rows() / SecondsSince(t0));
    spans->End(span);
  }

  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<uint32_t> nrows(1, kMaxRowsPerRequest);
  std::uniform_int_distribution<uint32_t> row(
      0, static_cast<uint32_t>(pool.num_rows() - 1));
  std::vector<double> latency_us;
  const int span = spans->Begin("serve.server_requests");
  for (int i = 0; i < 2000; ++i) {
    const uint32_t k = nrows(rng);
    const uint64_t t0 = NowNs();
    for (uint32_t j = 0; j < k; ++j) submit(row(rng));
    wait_all();
    latency_us.push_back(SecondsSince(t0) * 1e6);
  }
  spans->End(span);
  server.Stop();
  result->layer["serve.server_rows_per_s"] = Median(rows_per_s);
  result->layer["serve.predict_us.p50"] = Percentile(latency_us, 0.5).value;
  result->layer["serve.predict_us.p99"] = Percentile(latency_us, 0.99).value;
}

/// Fleet wire codec on 8-row batches of the pool.
void WireProbe(const DataTable& pool, SpanRecorder* spans, Result* result) {
  constexpr int kIters = 2000;
  std::vector<uint32_t> rows(8);
  std::vector<std::string> payloads;
  payloads.reserve(kIters);
  int span = spans->Begin("fleet.wire_encode");
  uint64_t t0 = NowNs();
  for (int i = 0; i < kIters; ++i) {
    for (size_t j = 0; j < rows.size(); ++j) {
      rows[j] = static_cast<uint32_t>((i * 8 + j) % pool.num_rows());
    }
    payloads.push_back(treeserver::FleetPredictMsg::FromRows(
                           i, "m", pool, rows.data(), rows.size())
                           .Encode());
  }
  result->layer["fleet.wire_encode_us"] = SecondsSince(t0) * 1e6 / kIters;
  spans->End(span);
  span = spans->Begin("fleet.wire_decode");
  t0 = NowNs();
  for (const std::string& p : payloads) {
    treeserver::FleetPredictMsg msg;
    if (!treeserver::FleetPredictMsg::Decode(p, &msg).ok() ||
        msg.num_rows != rows.size() || !msg.ToTable().ok()) {
      result->Mismatch("fleet wire round trip failed");
      break;
    }
  }
  result->layer["fleet.wire_decode_us"] = SecondsSince(t0) * 1e6 / kIters;
  spans->End(span);
}

/// Serialize + compile + single-thread traversal of one forest.
void ModelProbes(const ForestModel& forest, const DataTable& table,
                 const std::vector<int32_t>& reference, SpanRecorder* spans,
                 Result* result) {
  int span = spans->Begin("forest.serialize");
  uint64_t t0 = NowNs();
  const std::string bytes = SerializeForest(forest);
  result->layer["forest.serialize_ms"] = SecondsSince(t0) * 1e3;
  result->layer["forest.model_kb"] = bytes.size() / 1024.0;
  spans->End(span);

  span = spans->Begin("serve.compile");
  t0 = NowNs();
  const CompiledForest compiled = CompiledForest::Compile(forest);
  result->layer["serve.compile_ms"] = SecondsSince(t0) * 1e3;
  spans->End(span);

  const std::vector<uint32_t> rows = AllRows(table.num_rows());
  std::vector<int32_t> labels(rows.size());
  span = spans->Begin("serve.traverse");
  t0 = NowNs();
  size_t done = 0;
  while (done == 0 || SecondsSince(t0) < 0.2) {
    compiled.PredictLabel(table, rows.data(), rows.size(), -1, labels.data());
    done += rows.size();
  }
  result->layer["serve.traverse_rows_per_s"] = done / SecondsSince(t0);
  spans->End(span);
  if (labels != reference) result->Mismatch("compiled labels differ");
}

}  // namespace

Result RunServeFleetOnline(const Options& options) {
  // Holdout rows of the serving table are the request pool; two
  // forests trained on the other rows are pushed in turn.
  const DataTable table =
      SampledTable(ServingProfile("serve_fleet_online", 20000), options.seed);
  const DataTable train = RowsWithParity(table, 0);
  const DataTable pool = RowsWithParity(table, 1);
  ForestModel forests[2];
  std::string bytes[2];
  std::vector<int32_t> refs[2];
  for (int i = 0; i < 2; ++i) {
    ForestJobSpec spec;
    spec.num_trees = 16;
    spec.tree.max_depth = 8;
    spec.tree.min_leaf = 2;
    spec.column_ratio = 0.7;
    spec.seed = 11 + i;
    forests[i] = treeserver::TrainForestSerial(train, spec, ReferenceThreads());
    bytes[i] = SerializeForest(forests[i]);
    refs[i] = ReferenceLabels(forests[i], pool);
  }

  Result result;
  result.rss_desc = "process peak over the whole ladder";
  result.AddNamed("holdout_accuracy",
                  1.0 - HoldoutError(refs[0], pool, AllRows(pool.num_rows())),
                  "ratio", "forest 0");

  // Set-up: replica start, router start and the first push (the
  // replica compiles the pushed bytes). Repeated for its median.
  std::vector<double> setup_s;
  std::unique_ptr<Fleet> fleet;
  for (int i = 0; i < 25; ++i) {
    fleet.reset();
    const uint64_t t0 = NowNs();
    fleet = std::make_unique<Fleet>(kReplicas);
    const treeserver::Status st = fleet->router->Push("m", bytes[0]);
    setup_s.push_back(SecondsSince(t0));
    if (!st.ok()) result.Mismatch("first push failed: " + st.ToString());
  }
  result.setup_s = Median(setup_s);
  result.setup_samples = setup_s.size();
  int pushes_done = 1;

  const double segment_s = options.seconds * 0.8 / kTimedSegments;
  const std::vector<size_t> sequence(kSequence, kSequence + kNumSegments);
  SpanRecorder off(false);
  SpanRecorder spans(options.trace);
  double untraced_ref_p50 = 0.0;
  if (options.trace) {
    Ladder baseline(fleet.get(), &pool, refs, bytes, options.seed, segment_s,
                    &off);
    LadderRun base = baseline.Run({kReferenceRung}, false, &pushes_done);
    untraced_ref_p50 = RungP50(base, kReferenceRung);
    MetricsRegistry::Global().ResetAll();
    result.wall_start_ns = NowNs();
  }

  if (!options.trace) ResetPeakRss();
  Ladder ladder(fleet.get(), &pool, refs, bytes, options.seed, segment_s,
                &spans);
  LadderRun run = ladder.Run(sequence, true, &pushes_done);
  result.peak_rss_mb = PeakRssMb();
  for (const std::string& m : run.mismatches) result.Mismatch(m);

  std::vector<Rung> rungs(kNumLadderRungs);
  uint64_t sent_total = 0;
  uint64_t failed_total = 0;
  for (size_t r = 0; r < kNumLadderRungs; ++r) {
    rungs[r].p99_ms = Percentile(run.latency_ms[r], 0.99).value;
    rungs[r].backlog_growing = run.backlog_growing[r];
    sent_total += run.sent[r];
    failed_total += run.failed[r];
  }
  result.attempted = sent_total + run.push_s.size();
  result.failed = failed_total;
  const int best = SelectMaxRateRung(rungs, kP99LimitMs);
  const double max_rate = best >= 0 ? kLadderRates[best] : 0.0;
  const double max_rate_rows_per_s =
      best >= 0 ? run.rows_done[best] / run.seconds[best] : 0.0;
  const double ref_p50 = RungP50(run, kReferenceRung);
  const Quantile ref_p99 = Percentile(run.latency_ms[kReferenceRung], 0.99);

  result.rows_per_s = max_rate_rows_per_s;
  result.rows_desc = "rows completed per second at the max-rate rung";
  const std::string n = "n=" + std::to_string(ref_p99.samples);
  result.AddNamed("predict_p50_ms", ref_p50, "ms",
                  RungName(kReferenceRung) + ", " + n +
                      ", median of segment p50s");
  result.AddNamed("predict_p99_ms", ref_p99.value, "ms",
                  RungName(kReferenceRung) + ", " + n + ", " +
                      std::to_string(ref_p99.beyond) + " beyond");
  result.AddNamed("max_rate_rps", max_rate, "requests/s",
                  "p99 limit " +
                      std::to_string(static_cast<int>(kP99LimitMs)) + " ms");
  result.AddNamed("push_s", Median(run.push_s), "s",
                  "n=" + std::to_string(run.push_s.size()));
  result.AddNamed("loadgen_late_ms_p99", Percentile(run.late_ms, 0.99).value,
                  "ms", "generator lateness, n=" +
                            std::to_string(run.late_ms.size()));
  result.AddNamed("failed_frac",
                  sent_total == 0 ? 0.0 : double(failed_total) / sent_total,
                  "ratio");
  for (size_t r = 0; r < kNumLadderRungs; ++r) {
    const Quantile p99 = Percentile(run.latency_ms[r], 0.99);
    result.AddNamed(RungName(r) + ".p50_ms", RungP50(run, r), "ms",
                    "n=" + std::to_string(p99.samples));
    result.AddNamed(RungName(r) + ".p99_ms", p99.value, "ms",
                    std::to_string(p99.beyond) + " beyond" +
                        (rungs[r].backlog_growing ? ", backlog grows" : ""));
  }

  if (options.trace) {
    auto& L = result.layer;
    for (size_t r = 0; r < kNumLadderRungs; ++r) {
      L[RungName(r) + ".p50_ms"] = RungP50(run, r);
      L[RungName(r) + ".p99_ms"] = rungs[r].p99_ms;
      L[RungName(r) + ".failed_frac"] =
          run.sent[r] == 0 ? 0.0 : double(run.failed[r]) / run.sent[r];
    }
    L["loadgen.max_rate_rps"] = max_rate;
    L["loadgen.late_ms.p99"] = Percentile(run.late_ms, 0.99).value;
    L["loadgen.backlog_max"] = static_cast<double>(run.backlog_max);
    L["fleet.push_s"] = Median(run.push_s);
    L["fleet.mixed_version_replies"] =
        static_cast<double>(run.mixed_version_replies);
    auto counter = [](const char* name) {
      return static_cast<double>(
          MetricsRegistry::Global().GetCounter(name)->value());
    };
    const Histogram::Snapshot fleet_lat =
        MetricsRegistry::Global().GetHistogram("fleet.latency_us")->snapshot();
    L["fleet.latency_us.p50"] = fleet_lat.Percentile(0.5);
    L["fleet.latency_us.p99"] = fleet_lat.Percentile(0.99);
    L["fleet.shed"] = counter("fleet.shed");
    L["fleet.retransmits"] = counter("fleet.retransmits");
    L["fleet.replica.predicts"] = counter("fleet.replica.predicts");
    L["serve.batch_rows.p50"] = MetricsRegistry::Global()
                                    .GetHistogram("serve.batch_rows")
                                    ->snapshot()
                                    .Percentile(0.5);
    double rejected = 0.0;
    for (auto& replica : fleet->replicas) {
      rejected += replica->server()->GetStats().rejected;
    }
    L["serve.rejected"] = rejected;
    L["trace.overhead_pct"] =
        100.0 * (RungP50(run, kReferenceRung) / untraced_ref_p50 -
                 1.0);
    fleet.reset();

    ModelProbes(forests[0], pool, refs[0], &spans, &result);
    ServerProbe(forests[0], pool, refs[0], options.seed, &spans, &result);
    WireProbe(pool, &spans, &result);
    L["fleet.replica_vs_server"] =
        max_rate_rows_per_s / L["serve.server_rows_per_s"];
    result.wall_end_ns = NowNs();
    result.spans = spans.spans();
      }
  return result;
}

Result RunScoreBulk(const Options& options) {
  // At most 65535 distinct values per column, so a BinnedTable with
  // 65535 bins gives every value its own bin and every trained
  // threshold is a bin upper: the quantized layout serves every tree.
  const DataTable table =
      SampledTable(ServingProfile("score_bulk", 60000), options.seed);
  ForestJobSpec spec;
  spec.num_trees = 24;
  spec.tree.max_depth = 9;
  spec.tree.min_leaf = 2;
  spec.tree.split_method = treeserver::SplitMethod::kHistogram;
  spec.column_ratio = 0.6;
  spec.seed = 21;
  const ForestModel forest = treeserver::TrainForestSerial(
      RowsWithParity(table, 0), spec, ReferenceThreads());
  const std::vector<int32_t> reference = ReferenceLabels(forest, table);

  Result result;
  result.rss_desc = "process peak over the first " + std::to_string(kRssOps) +
                    " passes of each layout";
  std::vector<uint32_t> odd;
  for (uint32_t i = 1; i < table.num_rows(); i += 2) odd.push_back(i);
  result.AddNamed("holdout_accuracy", 1.0 - HoldoutError(reference, table, odd),
                  "ratio", "rows not trained on");

  SpanRecorder off(false);
  std::vector<double> setup_s;
  CompiledForest soa;
  CompiledForest quantized;
  auto setup = [&](SpanRecorder* spans) {
    const uint64_t t0 = NowNs();
    int span = spans->Begin("serve.compile");
    soa = CompiledForest::Compile(forest);
    quantized = soa;
    spans->End(span);
    span = spans->Begin("table.bin");
    auto binned = treeserver::BinnedTable::Build(table, 65535);
    spans->End(span);
    span = spans->Begin("serve.repack");
    const treeserver::NodeLayout got =
        quantized.Repack(treeserver::NodeLayout::kQuantized, binned);
    spans->End(span);
    setup_s.push_back(SecondsSince(t0));
    if (got != treeserver::NodeLayout::kQuantized) {
      result.Mismatch(std::string("quantized repack fell back to ") +
                      treeserver::NodeLayoutName(got));
    }
  };

  std::vector<double> soa_s;
  std::vector<double> quant_s;
  auto pass = [&](SpanRecorder* spans) {
    const struct {
      const CompiledForest* model;
      std::vector<double>* times;
      const char* span;
    } layouts[] = {{&soa, &soa_s, "serve.score_default"},
                   {&quantized, &quant_s, "serve.score_quantized"}};
    for (const auto& l : layouts) {
      const int span = spans->Begin(l.span);
      const uint64_t t0 = NowNs();
      const std::vector<int32_t> labels = l.model->PredictLabels(table);
      l.times->push_back(SecondsSince(t0));
      spans->End(span);
      ++result.attempted;
      if (labels != reference) {
        ++result.failed;
        result.Mismatch(std::string(l.span) + " labels differ from reference");
      }
    }
  };

  const double rows = static_cast<double>(table.num_rows());
  if (!options.trace) {
    for (int i = 0; i < 5; ++i) setup(&off);
    ResetPeakRss();
    RunFor(options.seconds, kRssOps, [&] {
      pass(&off);
      if (soa_s.size() == kRssOps) result.peak_rss_mb = PeakRssMb();
    });
    result.setup_s = Median(setup_s);
    result.setup_samples = setup_s.size();
    result.rows_per_s = rows / Median(soa_s);
    result.rows_desc = std::to_string(table.num_rows()) +
                       " rows / median single-thread pass, default layout";
    result.AddNamed("score_rows_per_s", rows / Median(soa_s), "rows/s",
                    "n=" + std::to_string(soa_s.size()));
    result.AddNamed("score_quantized_rows_per_s", rows / Median(quant_s),
                    "rows/s", "n=" + std::to_string(quant_s.size()));
    return result;
  }

  setup(&off);
  RunFor(options.seconds / 3, 2, [&] { pass(&off); });
  const double untraced_s = Median(soa_s);
  soa_s.clear();
  quant_s.clear();
  SpanRecorder spans(true);
  result.wall_start_ns = NowNs();
  setup(&spans);
  RunFor(options.seconds * 2 / 3, 2, [&] { pass(&spans); });
  auto& L = result.layer;
  L["serve.traverse_rows_per_s"] = rows / Median(soa_s);
  L["serve.quantized_rows_per_s"] = rows / Median(quant_s);
  L["trace.overhead_pct"] = 100.0 * (Median(soa_s) / untraced_s - 1.0);
  int span = spans.Begin("forest.serialize");
  uint64_t t0 = NowNs();
  const std::string bytes = SerializeForest(forest);
  L["forest.serialize_ms"] = SecondsSince(t0) * 1e3;
  L["forest.model_kb"] = bytes.size() / 1024.0;
  spans.End(span);
  for (const Span& s : spans.spans()) {
    if (s.name == "serve.compile") {
      L["serve.compile_ms"] = (s.end_ns - s.start_ns) * 1e-6;
    } else if (s.name == "table.bin") {
      L["table.bin_s"] = (s.end_ns - s.start_ns) * 1e-9;
    }
  }
  result.wall_end_ns = NowNs();
  result.spans = spans.spans();
    return result;
}

}  // namespace perfbench
