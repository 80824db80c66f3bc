// The two training workloads: exact splits over InProcessTransport and
// histogram splits over loopback TCP (one TcpTransport per rank, all in
// this process).

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/metrics_registry.h"
#include "engine/cluster.h"
#include "net/network.h"
#include "rpc/tcp_transport.h"
#include "table/binned.h"
#include "table/datasets.h"
#include "tree/hist.h"
#include "tree/split.h"

namespace perfbench {
namespace {

using treeserver::BinnedColumn;
using treeserver::BinnedTable;
using treeserver::BusyClock;
using treeserver::DataTable;
using treeserver::DatasetProfile;
using treeserver::EngineConfig;
using treeserver::ForestJobSpec;
using treeserver::ForestModel;
using treeserver::Histogram;
using treeserver::MetricsRegistry;
using treeserver::NetworkStats;
using treeserver::PeakGauge;
using treeserver::Rng;

// Worker count x compers per worker stays within the 4 cores the
// benchmark is sized for (more compers than cores only adds context
// switches to the training time).
constexpr int kWorkers = 2;
constexpr int kCompersPerWorker = 2;

/// Counters one training job left behind, read before its cluster is
/// torn down.
struct JobSample {
  double busy_s = 0.0;
  double peak_task_memory_bytes = 0.0;
  uint64_t bytes_sent = 0;
  uint64_t msgs_sent = 0;
  uint64_t msgs_dropped = 0;
  uint64_t reconnects = 0;
  uint64_t heartbeat_misses = 0;
  uint64_t send_buffer_hwm = 0;
  Histogram::Snapshot data_payload_bytes;
  Histogram::Snapshot data_send_micros;

  void AddNetwork(const NetworkStats& stats) {
    for (const auto& e : stats.endpoints) {
      bytes_sent += e.bytes_sent;
      msgs_sent += e.msgs_sent;
      msgs_dropped += e.msgs_dropped;
      reconnects += e.reconnects;
      heartbeat_misses += e.heartbeat_misses;
      send_buffer_hwm = std::max(send_buffer_hwm, e.send_buffer_hwm);
    }
    data_payload_bytes.Merge(stats.data_payload_bytes);
    data_send_micros.Merge(stats.data_send_micros);
  }
};

class TrainCluster {
 public:
  virtual ~TrainCluster() = default;
  virtual ForestModel Train(const ForestJobSpec& spec) = 0;
  virtual JobSample Sample() const = 0;
};

class InprocCluster : public TrainCluster {
 public:
  InprocCluster(const DataTable& table, const EngineConfig& cfg)
      : cluster_(table, cfg) {}

  ForestModel Train(const ForestJobSpec& spec) override {
    return cluster_.Wait(cluster_.Submit(spec));
  }

  JobSample Sample() const override {
    JobSample s;
    const treeserver::EngineMetrics m = cluster_.metrics();
    s.busy_s = m.comper_busy_seconds;
    s.peak_task_memory_bytes = static_cast<double>(m.peak_task_memory_bytes);
    s.AddNetwork(cluster_.GetEngineStats().network);
    return s;
  }

 private:
  treeserver::TreeServerCluster cluster_;
};

/// Master plus workers, each rank on its own TcpTransport over
/// loopback, wired the way separate processes would be.
class TcpCluster : public TrainCluster {
 public:
  TcpCluster(std::shared_ptr<const DataTable> table, const EngineConfig& cfg,
             SpanRecorder* spans, int parent)
  {
    const int connect = spans->Begin("rpc.connect", parent);
    auto options = [&](int rank) {
      treeserver::TcpTransportOptions o;
      o.num_workers = cfg.num_workers;
      o.local_rank = rank;
      return o;
    };
    master_tx_ = std::make_unique<treeserver::TcpTransport>(
        options(treeserver::kMasterRank));
    for (int w = 0; w < cfg.num_workers; ++w) {
      nodes_.push_back(std::make_unique<Node>());
      nodes_.back()->transport =
          std::make_unique<treeserver::TcpTransport>(options(w));
    }
    std::vector<std::string> peers;
    for (auto& node : nodes_) {
      peers.push_back("127.0.0.1:" +
                      std::to_string(node->transport->local_port()));
    }
    peers.push_back("127.0.0.1:" + std::to_string(master_tx_->local_port()));
    master_ = std::make_unique<treeserver::Master>(table, master_tx_.get(),
                                                   cfg);
    master_tx_->SetPeerDeadCallback([this](int rank) {
      if (rank != treeserver::kMasterRank) master_->OnWorkerCrash(rank);
    });
    TS_CHECK(master_tx_->ConnectPeers(peers).ok());
    for (auto& node : nodes_) {
      TS_CHECK(node->transport->ConnectPeers(peers).ok());
    }
    TS_CHECK(master_tx_->WaitForPeers(20000)) << "workers did not connect";
    for (auto& node : nodes_) {
      TS_CHECK(node->transport->WaitForPeers(20000)) << "peers did not connect";
    }
    spans->End(connect);

    for (int w = 0; w < cfg.num_workers; ++w) {
      Node& node = *nodes_[w];
      node.worker = std::make_unique<treeserver::Worker>(
          w, table, node.transport.get(), cfg.compers_per_worker,
          &node.task_memory, &node.busy, cfg.compress_transfers, 0,
          cfg.ReliableConfig());
    }
    master_->Start();
    for (auto& node : nodes_) node->worker->Start();
  }

  ~TcpCluster() override {
    for (auto& node : nodes_) {
      node->transport->CloseAll();
      node->worker->Join();
    }
    master_->Stop();
    master_tx_->Shutdown();
    for (auto& node : nodes_) node->transport->Shutdown();
  }

  ForestModel Train(const ForestJobSpec& spec) override {
    return master_->Wait(master_->Submit(spec));
  }

  JobSample Sample() const override {
    JobSample s;
    s.AddNetwork(master_tx_->GetStats());
    for (const auto& node : nodes_) {
      s.AddNetwork(node->transport->GetStats());
      s.busy_s += node->busy.Seconds();
      s.peak_task_memory_bytes += static_cast<double>(node->task_memory.peak());
    }
    return s;
  }

 private:
  struct Node {
    std::unique_ptr<treeserver::TcpTransport> transport;
    PeakGauge task_memory;
    BusyClock busy;
    std::unique_ptr<treeserver::Worker> worker;
  };

  std::unique_ptr<treeserver::TcpTransport> master_tx_;
  std::unique_ptr<treeserver::Master> master_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

/// One training workload: the tables, the job, the engine settings and
/// how to build a cluster, plus the reference bytes every job's forest
/// must equal.
struct TrainingWorkload {
  DataTable train;
  DataTable test;
  ForestJobSpec spec;
  EngineConfig cfg;
  std::function<std::unique_ptr<TrainCluster>(SpanRecorder*, int)> make;
  /// (label, bytes) pairs; every trained forest must match each.
  std::vector<std::pair<std::string, std::string>> references;
  /// Per-layer probes run once at the end of a traced run.
  std::function<void(SpanRecorder*, Result*)> probes;
};

treeserver::SplitContext ContextOf(const DataTable& table,
                                   const ForestJobSpec& spec) {
  return treeserver::SplitContext{table.schema().task_kind(),
                                  spec.tree.impurity,
                                  table.schema().num_classes()};
}

std::vector<uint32_t> AllRows(const DataTable& table) {
  std::vector<uint32_t> rows(table.num_rows());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<uint32_t>(i);
  return rows;
}

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->value();
}

Histogram::Snapshot HistogramOf(const char* name) {
  return MetricsRegistry::Global().GetHistogram(name)->snapshot();
}

Result RunTraining(const Options& options, const TrainingWorkload& w) {
  Result result;
  const double train_rows = static_cast<double>(w.train.num_rows());
  result.rss_desc = "process peak over the first " + std::to_string(kRssOps) +
                    " jobs";

  SpanRecorder off(false);
  std::vector<double> setup_s;
  std::vector<double> train_s;
  std::vector<JobSample> samples;
  std::string last_bytes;

  // One job on a fresh cluster: construction is set-up, Submit->Wait
  // is the timed operation, and the forest bytes are checked against
  // every reference.
  auto job = [&](SpanRecorder* spans, bool sample) {
    const int setup = spans->Begin("engine.setup");
    uint64_t t0 = NowNs();
    std::unique_ptr<TrainCluster> cluster = w.make(spans, setup);
    setup_s.push_back(SecondsSince(t0));
    spans->End(setup);

    const int train = spans->Begin("engine.train");
    t0 = NowNs();
    ForestModel forest = cluster->Train(w.spec);
    train_s.push_back(SecondsSince(t0));
    spans->End(train);
    ++result.attempted;
    if (sample) samples.push_back(cluster->Sample());

    const int ser = spans->Begin("forest.serialize");
    last_bytes = SerializeForest(forest);
    spans->End(ser);
    for (const auto& [label, bytes] : w.references) {
      if (last_bytes != bytes) {
        ++result.failed;
        result.Mismatch("forest bytes differ from the " + label);
        break;
      }
    }
    const int teardown = spans->Begin("engine.teardown");
    cluster.reset();
    spans->End(teardown);
  };
  // Set-up alone, for more set-up samples than jobs.
  auto setup_only = [&]() {
    const uint64_t t0 = NowNs();
    std::unique_ptr<TrainCluster> cluster = w.make(&off, -1);
    setup_s.push_back(SecondsSince(t0));
  };

  if (!options.trace) {
    for (int i = 0; i < 20; ++i) setup_only();
    ResetPeakRss();
    RunFor(options.seconds, kRssOps, [&] {
      job(&off, false);
      if (train_s.size() == kRssOps) result.peak_rss_mb = PeakRssMb();
    });
    result.setup_s = Median(setup_s);
    result.setup_samples = setup_s.size();
    result.rows_per_s = train_rows / Median(train_s);
    result.rows_desc = "training rows / median train_s";
    result.AddNamed("train_s", Median(train_s), "s",
                    "Submit to Wait on a fresh cluster, n=" +
                        std::to_string(train_s.size()));
    return result;
  }

  // Traced run: an untraced third for the overhead baseline, then the
  // traced jobs whose spans and counters give the per-layer numbers.
  RunFor(options.seconds / 3, 2, [&] { job(&off, false); });
  const double untraced_s = Median(train_s);
  train_s.clear();

  SpanRecorder spans(true);
  MetricsRegistry::Global().ResetAll();
  result.wall_start_ns = NowNs();
  RunFor(options.seconds * 2 / 3, 2, [&] { job(&spans, true); });
  const double jobs = static_cast<double>(samples.size());
  const double traced_s = Median(train_s);

  auto& L = result.layer;
  L["engine.tasks_scheduled"] = CounterValue("engine.tasks_scheduled") / jobs;
  L["engine.column_tasks"] =
      HistogramOf("master.column_task_latency_us").count / jobs;
  L["engine.subtree_tasks"] =
      HistogramOf("master.subtree_task_latency_us").count / jobs;
  const Histogram::Snapshot latency = HistogramOf("master.task_latency_us");
  L["engine.task_latency_us.p50"] = latency.Percentile(0.5);
  L["engine.task_latency_us.p99"] = latency.Percentile(0.99);
  L["engine.bplan_depth.p50"] =
      HistogramOf("master.bplan_depth").Percentile(0.5);
  const double retransmits = CounterValue("engine.retransmits");
  L["engine.retransmits"] = retransmits / jobs;
  L["engine.duplicate_msgs"] = CounterValue("engine.duplicate_msgs") / jobs;
  L["rpc.corrupt_msgs"] = CounterValue("engine.corrupt_msgs") / jobs;
  L["rpc.fenced_msgs"] = CounterValue("engine.fenced_msgs") / jobs;
  L["tree.exact_sorts"] = CounterValue("split.exact_sorts") / jobs;
  L["tree.histogram_builds"] = CounterValue("split.histogram_builds") / jobs;
  L["tree.sibling_subtractions"] =
      CounterValue("split.sibling_subtractions") / jobs;

  JobSample total;
  std::vector<double> busy;
  for (const JobSample& s : samples) {
    busy.push_back(s.busy_s);
    total.bytes_sent += s.bytes_sent;
    total.msgs_sent += s.msgs_sent;
    total.msgs_dropped += s.msgs_dropped;
    total.reconnects += s.reconnects;
    total.heartbeat_misses += s.heartbeat_misses;
    total.send_buffer_hwm = std::max(total.send_buffer_hwm, s.send_buffer_hwm);
    total.peak_task_memory_bytes =
        std::max(total.peak_task_memory_bytes, s.peak_task_memory_bytes);
    total.data_payload_bytes.Merge(s.data_payload_bytes);
    total.data_send_micros.Merge(s.data_send_micros);
  }
  const double compers = w.cfg.num_workers * w.cfg.compers_per_worker;
  L["engine.comper_busy_s"] = Median(busy);
  L["engine.comper_idle_share"] = 1.0 - Median(busy) / (traced_s * compers);
  L["engine.peak_task_memory_mb"] = total.peak_task_memory_bytes / 1048576.0;
  L["engine.useful_send_ratio"] =
      total.msgs_sent == 0 ? 1.0
                           : (total.msgs_sent - retransmits) / total.msgs_sent;
  L["net.bytes_sent_mb"] = total.bytes_sent / jobs / 1048576.0;
  L["net.msgs_sent"] = total.msgs_sent / jobs;
  L["net.msgs_dropped"] = total.msgs_dropped / jobs;
  L["net.data_payload_kb.p99"] =
      total.data_payload_bytes.Percentile(0.99) / 1024.0;
  L["net.data_send_us.p99"] = total.data_send_micros.Percentile(0.99);
  L["rpc.reconnects"] = total.reconnects / jobs;
  L["rpc.heartbeat_misses"] = total.heartbeat_misses / jobs;
  L["rpc.send_buffer_hwm_mb"] = total.send_buffer_hwm / 1048576.0;
  L["forest.model_kb"] = last_bytes.size() / 1024.0;
  L["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0);

  w.probes(&spans, &result);
  result.wall_end_ns = NowNs();
  std::vector<double> serialize_ms;
  for (const Span& s : spans.spans()) {
    if (s.name == "forest.serialize") {
      serialize_ms.push_back((s.end_ns - s.start_ns) * 1e-6);
    }
  }
  L["forest.serialize_ms"] = Median(serialize_ms);
  result.spans = spans.spans();
  return result;
}

/// Exact split search at the root, once per feature column: the work
/// the per-node copy-and-sort repeats at every node of every tree.
void RootSplitProbe(const TrainingWorkload& w, SpanRecorder* spans,
                    Result* result) {
  const std::vector<uint32_t> rows = AllRows(w.train);
  const treeserver::SplitContext ctx = ContextOf(w.train, w.spec);
  const uint64_t t0 = NowNs();
  const int span = spans->Begin("tree.root_split");
  for (int c : w.train.schema().FeatureIndices()) {
    treeserver::FindBestSplit(*w.train.column(c), c, *w.train.target(), ctx,
                              rows.data(), rows.size());
  }
  spans->End(span);
  result->layer["tree.root_split_ms"] = SecondsSince(t0) * 1e3;
}

/// Whole-table binning (what each worker does lazily inside its first
/// histogram task) and one root histogram build over every binned
/// column.
void HistogramProbes(const TrainingWorkload& w, SpanRecorder* spans,
                     Result* result) {
  uint64_t t0 = NowNs();
  int span = spans->Begin("table.bin");
  std::shared_ptr<const BinnedTable> binned =
      BinnedTable::Build(w.train, w.spec.tree.max_bins);
  spans->End(span);
  result->layer["table.bin_s"] = SecondsSince(t0);

  std::vector<const BinnedColumn*> cols;
  for (int c : w.train.schema().FeatureIndices()) {
    if (binned->column(c) != nullptr) cols.push_back(binned->column(c));
  }
  std::vector<treeserver::NodeHistogram> out(cols.size());
  const std::vector<uint32_t> rows = AllRows(w.train);
  t0 = NowNs();
  span = spans->Begin("tree.hist_build");
  treeserver::NodeHistogram::BuildMany(cols.data(), cols.size(),
                                       *w.train.target(),
                                       ContextOf(w.train, w.spec), rows.data(),
                                       rows.size(), out.data());
  spans->End(span);
  result->layer["tree.hist_build_rows_per_s"] = rows.size() / SecondsSince(t0);
}

std::pair<DataTable, DataTable> SplitTable(const DataTable& table,
                                           uint64_t seed) {
  Rng rng(seed ^ 0x5eedULL);
  return table.TrainTestSplit(0.2, &rng);
}

/// The table with its regression target rounded to integers. Histogram
/// sums of integers are exact, which is the condition under which the
/// engine's sibling subtraction reproduces TrainForestSerial byte for
/// byte; with continuous targets the float sums reassociate and the
/// forests differ (see README.md).
DataTable WithIntegerTarget(const DataTable& table) {
  std::vector<treeserver::ColumnPtr> columns;
  for (int c = 0; c < table.num_columns(); ++c) {
    columns.push_back(table.column(c));
  }
  std::vector<double> y(table.num_rows());
  for (size_t i = 0; i < y.size(); ++i) {
    y[i] = std::round(table.target_value_at(i));
  }
  const int target = table.schema().target_index();
  columns[target] = treeserver::Column::Numeric(
      table.schema().column(target).name, std::move(y));
  return std::move(DataTable::Make(table.schema(), std::move(columns))).value();
}

}  // namespace

Result RunTrainExactInproc(const Options& options) {
  // Classification over numeric and categorical columns with missing
  // cells; several deep trees. τ_D and τ_dfs are scaled to the table so
  // the top levels run as column-tasks and the lower ones as
  // subtree-tasks.
  DatasetProfile profile;
  profile.name = "train_exact_inproc";
  profile.rows = 50000;
  profile.num_numeric = 8;
  profile.num_categorical = 4;
  profile.num_classes = 3;
  profile.missing_fraction = 0.05;
  profile.noise = 0.1;
  profile.concept_depth = 8;

  TrainingWorkload w;
  std::tie(w.train, w.test) =
      SplitTable(SampledTable(profile, options.seed), options.seed);
  w.spec.name = "exact";
  w.spec.num_trees = 4;
  w.spec.tree.max_depth = 12;
  w.spec.tree.min_leaf = 2;
  w.spec.column_ratio = 0.8;
  w.spec.seed = 1;
  w.cfg.num_workers = kWorkers;
  w.cfg.compers_per_worker = kCompersPerWorker;
  w.cfg.tau_d = 4000;
  w.cfg.tau_dfs = 16000;

  const ForestModel reference =
      treeserver::TrainForestSerial(w.train, w.spec, ReferenceThreads());
  w.references.emplace_back("serial reference", SerializeForest(reference));
  w.make = [&w](SpanRecorder*, int) -> std::unique_ptr<TrainCluster> {
    return std::make_unique<InprocCluster>(w.train, w.cfg);
  };
  w.probes = [&w](SpanRecorder* spans, Result* result) {
    RootSplitProbe(w, spans, result);
  };

  Result result = RunTraining(options, w);
  result.AddNamed("holdout_accuracy",
                  treeserver::EvaluateAccuracy(reference, w.test), "ratio");
  return result;
}

Result RunTrainHistTcp(const Options& options) {
  // Regression with more rows, histogram splits, every rank on its own
  // loopback TcpTransport: binning, the regression histogram kernel,
  // framing/CRC and reliable delivery carry the time; the exact sort
  // does no work.
  DatasetProfile profile;
  profile.name = "train_hist_tcp";
  profile.rows = 150000;
  profile.num_numeric = 10;
  profile.num_categorical = 2;
  profile.num_classes = 0;
  profile.missing_fraction = 0.02;
  profile.noise = 0.1;
  profile.concept_depth = 8;

  TrainingWorkload w;
  std::tie(w.train, w.test) = SplitTable(
      WithIntegerTarget(SampledTable(profile, options.seed)),
      options.seed);
  w.spec.name = "hist";
  w.spec.num_trees = 4;
  w.spec.tree.max_depth = 12;
  w.spec.tree.min_leaf = 5;
  w.spec.tree.impurity = treeserver::Impurity::kVariance;
  w.spec.tree.split_method = treeserver::SplitMethod::kHistogram;
  w.spec.tree.max_bins = 255;
  w.spec.column_ratio = 0.8;
  w.spec.seed = 1;
  w.cfg.num_workers = kWorkers;
  w.cfg.compers_per_worker = kCompersPerWorker;
  w.cfg.tau_d = 12000;
  w.cfg.tau_dfs = 48000;

  const ForestModel reference =
      treeserver::TrainForestSerial(w.train, w.spec, ReferenceThreads());
  w.references.emplace_back("serial reference", SerializeForest(reference));
  {
    InprocCluster inproc(w.train, w.cfg);
    w.references.emplace_back("in-process run",
                              SerializeForest(inproc.Train(w.spec)));
  }
  auto table = std::make_shared<const DataTable>(w.train);
  w.make = [&w, table](SpanRecorder* spans,
                       int parent) -> std::unique_ptr<TrainCluster> {
    return std::make_unique<TcpCluster>(table, w.cfg, spans, parent);
  };
  w.probes = [&w](SpanRecorder* spans, Result* result) {
    HistogramProbes(w, spans, result);
  };

  Result result = RunTraining(options, w);
  result.AddNamed("holdout_rmse", treeserver::EvaluateRmse(reference, w.test),
                  "target");
  return result;
}

}  // namespace perfbench
