// Cluster node binary: runs one TreeServer rank (master or worker) of
// a multi-process cluster over the TCP transport, or the whole job
// in-process (--mode=inproc) as the byte-identical reference.
//
// Every rank regenerates the same synthetic table from (profile,
// data-seed), mirroring a cluster whose workers load the same
// partitioned input; determinism of the engine then makes the trained
// forest independent of which transport carried the messages.
//
// Example (1 master + 2 workers on localhost):
//   treeserver_node --rank=0 --workers=2 \
//       --peers=127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7000 &
//   treeserver_node --rank=1 --workers=2 --peers=... &
//   treeserver_node --rank=master --workers=2 --peers=... --out=f.bin
// (tools/launch_local_cluster.sh automates this.)

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/http_server.h"
#include "common/logging.h"
#include "common/prometheus.h"
#include "common/simd.h"
#include "common/trace.h"
#include "common/trace_merge.h"
#include "engine/checkpoint_io.h"
#include "engine/cluster.h"
#include "engine/master.h"
#include "engine/stats_reporter.h"
#include "engine/worker.h"
#include "forest/forest.h"
#include "rpc/fault_injection.h"
#include "rpc/tcp_transport.h"
#include "table/datasets.h"

namespace treeserver {
namespace {

struct NodeOptions {
  // --rank=master | --rank=<worker id>; --mode=tcp | inproc.
  int rank = kMasterRank;
  bool inproc = false;
  std::vector<std::string> peers;  // workers 0..n-1 then master

  // Dataset (identical on every rank).
  size_t rows = 20000;
  int features = 20;
  int categorical = 4;
  int classes = 2;
  uint64_t data_seed = 7;

  // Job.
  int trees = 8;
  int max_depth = 8;
  uint32_t min_leaf = 4;
  double column_ratio = 1.0;
  bool sqrt_columns = false;
  uint64_t job_seed = 1;
  SplitMethod split_method = SplitMethod::kExact;
  int max_bins = 255;

  // Engine.
  EngineConfig engine;

  // Transport.
  int64_t heartbeat_ms = 50;
  int miss_limit = 20;
  int64_t wait_peers_ms = 30000;
  // Fencing epoch stamped into every frame; a restarted rank passes a
  // higher value so its previous incarnation's stragglers are dropped.
  uint16_t generation = 0;

  // Chaos: wrap the transport in a seeded FaultInjectingTransport.
  std::string chaos_profile;  // empty = no injection
  uint64_t chaos_seed = 1;

  // Durable master checkpoints (written to <dir>/master.ckpt).
  std::string checkpoint_dir;
  int64_t checkpoint_period_ms = 500;

  std::string out;  // master: file for the serialized forest

  // Observability.
  int http_port = -1;     // -1 off, 0 ephemeral, else fixed
  bool trace = false;     // enable the process tracer
  std::string trace_out;  // master: merged Chrome trace JSON path
};

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

void Usage() {
  std::fprintf(
      stderr,
      "treeserver_node: one rank of a multi-process TreeServer cluster\n"
      "  --rank=master|<id>        rank this process hosts\n"
      "  --workers=N               cluster size (default 4)\n"
      "  --peers=h:p,...           worker addresses 0..N-1, then master\n"
      "  --mode=tcp|inproc         inproc trains the reference in one\n"
      "                            process and ignores --rank/--peers\n"
      "  --port=P                  listen port (default: from --peers)\n"
      "  --out=FILE                master: write the serialized forest\n"
      "  --split-method=exact|histogram\n"
      "                            numeric split kernel (default exact;\n"
      "                            histogram bins columns once and scans\n"
      "                            O(bins) per node)\n"
      "  --max-bins=N              histogram bin budget (default 255)\n"
      "  --rows --features --categorical --classes --data-seed\n"
      "  --trees --max-depth --min-leaf --column-ratio --sqrt-columns\n"
      "  --job-seed --compers --replication --tau-d --tau-dfs\n"
      "  --compress --stats-period --heartbeat-ms --miss-limit\n"
      "  --wait-peers-ms\n"
      "  --generation=N            fencing epoch stamped into frames; a\n"
      "                            restarted rank announces a higher one\n"
      "  --chaos-profile=NAME      inject transport faults: none,\n"
      "                            drop-heavy, duplicate-storm,\n"
      "                            partition-heal, mixed\n"
      "  --chaos-seed=N            RNG seed for the fault schedule\n"
      "  --checkpoint-dir=DIR      master: durable CRC'd checkpoints in\n"
      "                            DIR/master.ckpt (restored at startup\n"
      "                            when present)\n"
      "  --checkpoint-period-ms=N  checkpoint cadence (default 500)\n"
      "  --http-port=P             introspection HTTP endpoint (/metrics,\n"
      "                            /healthz, /statusz); -1 off (default),\n"
      "                            0 ephemeral\n"
      "  --trace=1                 enable the process tracer\n"
      "  --trace-out=FILE          master: collect every rank's trace and\n"
      "                            write one merged Chrome trace JSON;\n"
      "                            inproc: write the one-process trace\n"
      "  --watchdog-period=MS      slow-task watchdog cadence (master)\n"
      "  --debug-slow-worker=W --debug-slow-task-ms=MS\n"
      "                            delay every task on worker W (tests)\n");
}

bool ParseArgs(int argc, char** argv, NodeOptions* opt) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string v;
    if (ParseFlag(arg, "rank", &v)) {
      opt->rank = v == "master" ? kMasterRank : std::atoi(v.c_str());
    } else if (ParseFlag(arg, "workers", &v)) {
      opt->engine.num_workers = std::atoi(v.c_str());
    } else if (ParseFlag(arg, "peers", &v)) {
      opt->peers = SplitCommas(v);
    } else if (ParseFlag(arg, "mode", &v)) {
      if (v == "inproc") {
        opt->inproc = true;
      } else if (v != "tcp") {
        std::fprintf(stderr, "unknown --mode=%s\n", v.c_str());
        return false;
      }
    } else if (ParseFlag(arg, "out", &v)) {
      opt->out = v;
    } else if (ParseFlag(arg, "rows", &v)) {
      opt->rows = static_cast<size_t>(std::atoll(v.c_str()));
    } else if (ParseFlag(arg, "features", &v)) {
      opt->features = std::atoi(v.c_str());
    } else if (ParseFlag(arg, "categorical", &v)) {
      opt->categorical = std::atoi(v.c_str());
    } else if (ParseFlag(arg, "classes", &v)) {
      opt->classes = std::atoi(v.c_str());
    } else if (ParseFlag(arg, "data-seed", &v)) {
      opt->data_seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "trees", &v)) {
      opt->trees = std::atoi(v.c_str());
    } else if (ParseFlag(arg, "max-depth", &v)) {
      opt->max_depth = std::atoi(v.c_str());
    } else if (ParseFlag(arg, "min-leaf", &v)) {
      opt->min_leaf = static_cast<uint32_t>(std::atoi(v.c_str()));
    } else if (ParseFlag(arg, "column-ratio", &v)) {
      opt->column_ratio = std::atof(v.c_str());
    } else if (ParseFlag(arg, "sqrt-columns", &v)) {
      opt->sqrt_columns = v == "1" || v == "true";
    } else if (ParseFlag(arg, "job-seed", &v)) {
      opt->job_seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "split-method", &v)) {
      if (v == "histogram") {
        opt->split_method = SplitMethod::kHistogram;
      } else if (v == "exact") {
        opt->split_method = SplitMethod::kExact;
      } else {
        std::fprintf(stderr, "unknown --split-method=%s\n", v.c_str());
        return false;
      }
    } else if (ParseFlag(arg, "max-bins", &v)) {
      opt->max_bins = std::atoi(v.c_str());
    } else if (ParseFlag(arg, "compers", &v)) {
      opt->engine.compers_per_worker = std::atoi(v.c_str());
    } else if (ParseFlag(arg, "replication", &v)) {
      opt->engine.replication = std::atoi(v.c_str());
    } else if (ParseFlag(arg, "tau-d", &v)) {
      opt->engine.tau_d = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "tau-dfs", &v)) {
      opt->engine.tau_dfs = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "compress", &v)) {
      opt->engine.compress_transfers = v == "1" || v == "true";
    } else if (ParseFlag(arg, "stats-period", &v)) {
      opt->engine.stats_period_ms = std::atoi(v.c_str());
    } else if (ParseFlag(arg, "heartbeat-ms", &v)) {
      opt->heartbeat_ms = std::atoll(v.c_str());
    } else if (ParseFlag(arg, "miss-limit", &v)) {
      opt->miss_limit = std::atoi(v.c_str());
    } else if (ParseFlag(arg, "wait-peers-ms", &v)) {
      opt->wait_peers_ms = std::atoll(v.c_str());
    } else if (ParseFlag(arg, "generation", &v)) {
      opt->generation = static_cast<uint16_t>(std::atoi(v.c_str()));
    } else if (ParseFlag(arg, "chaos-profile", &v)) {
      opt->chaos_profile = v;
    } else if (ParseFlag(arg, "chaos-seed", &v)) {
      opt->chaos_seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "checkpoint-dir", &v)) {
      opt->checkpoint_dir = v;
    } else if (ParseFlag(arg, "checkpoint-period-ms", &v)) {
      opt->checkpoint_period_ms = std::atoll(v.c_str());
    } else if (ParseFlag(arg, "http-port", &v)) {
      opt->http_port = std::atoi(v.c_str());
    } else if (ParseFlag(arg, "trace", &v)) {
      opt->trace = v == "1" || v == "true";
    } else if (ParseFlag(arg, "trace-out", &v)) {
      opt->trace_out = v;
    } else if (ParseFlag(arg, "watchdog-period", &v)) {
      opt->engine.watchdog_period_ms = std::atoi(v.c_str());
    } else if (ParseFlag(arg, "debug-slow-worker", &v)) {
      opt->engine.debug_slow_worker = std::atoi(v.c_str());
    } else if (ParseFlag(arg, "debug-slow-task-ms", &v)) {
      opt->engine.debug_slow_task_ms = std::atoi(v.c_str());
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      Usage();
      return false;
    }
  }
  return true;
}

DataTable MakeTable(const NodeOptions& opt) {
  DatasetProfile profile;
  profile.name = "cluster";
  profile.rows = opt.rows;
  profile.num_numeric = opt.features;
  profile.num_categorical = opt.categorical;
  profile.num_classes = opt.classes;
  return GenerateTable(profile, opt.data_seed);
}

ForestJobSpec MakeJob(const NodeOptions& opt) {
  ForestJobSpec spec;
  spec.name = "cluster-job";
  spec.num_trees = opt.trees;
  spec.tree.max_depth = opt.max_depth;
  spec.tree.min_leaf = opt.min_leaf;
  spec.tree.split_method = opt.split_method;
  spec.tree.max_bins = opt.max_bins;
  spec.column_ratio = opt.column_ratio;
  spec.sqrt_columns = opt.sqrt_columns;
  spec.seed = opt.job_seed;
  return spec;
}

bool WriteForest(const ForestModel& model, const std::string& path) {
  BinaryWriter w;
  model.Serialize(&w);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(w.buffer().data(), static_cast<std::streamsize>(w.size()));
  return static_cast<bool>(out);
}

uint16_t PortOfPeerEntry(const NodeOptions& opt) {
  size_t idx = opt.rank == kMasterRank
                   ? static_cast<size_t>(opt.engine.num_workers)
                   : static_cast<size_t>(opt.rank);
  TS_CHECK(idx < opt.peers.size()) << "rank not covered by --peers";
  const std::string& addr = opt.peers[idx];
  size_t colon = addr.rfind(':');
  TS_CHECK(colon != std::string::npos) << "bad peer address " << addr;
  return static_cast<uint16_t>(std::atoi(addr.c_str() + colon + 1));
}

std::unique_ptr<TcpTransport> MakeTransport(const NodeOptions& opt) {
  TcpTransportOptions topt;
  topt.num_workers = opt.engine.num_workers;
  topt.local_rank = opt.rank;
  topt.listen_port = PortOfPeerEntry(opt);
  topt.heartbeat_period_ms = opt.heartbeat_ms;
  topt.heartbeat_miss_limit = opt.miss_limit;
  topt.generation = opt.generation;
  return std::make_unique<TcpTransport>(topt);
}

/// Builds the fault injector for --chaos-profile, or null (no chaos).
/// Exits with a usage error on an unknown profile name.
std::unique_ptr<FaultInjectingTransport> MakeChaos(const NodeOptions& opt,
                                                   Transport* inner) {
  if (opt.chaos_profile.empty()) return nullptr;
  FaultSchedule schedule;
  if (!FaultSchedule::Profile(opt.chaos_profile, opt.chaos_seed, &schedule)) {
    std::fprintf(stderr, "unknown --chaos-profile=%s (profiles: %s)\n",
                 opt.chaos_profile.c_str(), FaultSchedule::ProfileNames());
    std::exit(1);
  }
  std::fprintf(stderr, "chaos: rank %d injecting profile '%s' seed %llu\n",
               opt.rank, opt.chaos_profile.c_str(),
               static_cast<unsigned long long>(opt.chaos_seed));
  return std::make_unique<FaultInjectingTransport>(inner, schedule);
}

// The registry holds engine.* / trace.* metrics; transport counters
// live in NetworkStats, so the /metrics handler appends them as
// hand-rolled net_* Prometheus lines (one sample per remote endpoint).
void AppendTransportMetrics(const NetworkStats& stats, std::string* out) {
  struct Field {
    const char* name;
    uint64_t NetworkStats::Endpoint::* member;
  };
  static constexpr Field kFields[] = {
      {"net_bytes_sent_total", &NetworkStats::Endpoint::bytes_sent},
      {"net_bytes_recv_total", &NetworkStats::Endpoint::bytes_recv},
      {"net_msgs_sent_total", &NetworkStats::Endpoint::msgs_sent},
      {"net_msgs_dropped_total", &NetworkStats::Endpoint::msgs_dropped},
      {"net_reconnects_total", &NetworkStats::Endpoint::reconnects},
      {"net_heartbeat_misses_total",
       &NetworkStats::Endpoint::heartbeat_misses},
  };
  for (const Field& f : kFields) {
    *out += "# TYPE " + std::string(f.name) + " counter\n";
    for (size_t ep = 0; ep < stats.endpoints.size(); ++ep) {
      const bool is_master = ep + 1 == stats.endpoints.size();
      std::string endpoint =
          is_master ? "master" : "w" + std::to_string(ep);
      *out += std::string(f.name) + "{endpoint=\"" + endpoint +
              "\"} " + std::to_string(stats.endpoints[ep].*(f.member)) + "\n";
    }
  }
}

/// Mounts /metrics, /healthz and /statusz for one TCP rank. `statusz`
/// produces the role-specific JSON body.
std::unique_ptr<HttpServer> StartNodeHttp(
    const NodeOptions& opt, const TcpTransport* transport,
    std::function<std::string()> statusz) {
  if (opt.http_port < 0) return nullptr;
  auto http = std::make_unique<HttpServer>();
  http->Handle("/metrics", [transport](const std::string&) {
    HttpResponse resp;
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = PrometheusExport(MetricsRegistry::Global().Snapshot());
    AppendTransportMetrics(transport->GetStats(), &resp.body);
    return resp;
  });
  http->Handle("/healthz", [](const std::string&) {
    HttpResponse resp;
    resp.body = "ok\n";
    return resp;
  });
  http->Handle("/statusz", [statusz = std::move(statusz)](const std::string&) {
    HttpResponse resp;
    resp.content_type = "application/json";
    resp.body = statusz();
    return resp;
  });
  Status st = http->Start("127.0.0.1", static_cast<uint16_t>(opt.http_port));
  if (!st.ok()) {
    std::fprintf(stderr, "http: %s\n", st.ToString().c_str());
    return nullptr;
  }
  std::fprintf(stderr, "http: rank %d listening on 127.0.0.1:%u\n", opt.rank,
               http->port());
  return http;
}

uint64_t SumEndpoint(const NetworkStats& stats,
                     uint64_t NetworkStats::Endpoint::* member) {
  uint64_t total = 0;
  for (const auto& ep : stats.endpoints) total += ep.*member;
  return total;
}

/// Collects every rank's tracer snapshot at the master, rebases remote
/// timestamps with the heartbeat-derived clock offsets, and writes one
/// merged Chrome trace JSON.
void CollectAndWriteTrace(const NodeOptions& opt, Master* master,
                          TcpTransport* transport) {
  const int requested = master->RequestWorkerTraces();
  if (!master->WaitForWorkerTraces(10000)) {
    std::fprintf(stderr, "master: trace collection timed out\n");
  }
  std::vector<TraceSnapshotMsg> snaps = master->TakeWorkerTraces();
  std::vector<RankTrace> ranks;
  RankTrace mine;
  mine.rank = kMasterRank;
  mine.label = "master";
  mine.dropped_spans = Tracer::Global().dropped_spans();
  mine.events = Tracer::Global().SnapshotEvents();
  ranks.push_back(std::move(mine));
  for (TraceSnapshotMsg& snap : snaps) {
    RankTrace rt;
    rt.rank = snap.worker;
    rt.label = "worker " + std::to_string(snap.worker);
    if (!transport->PeerClockOffset(snap.worker, &rt.clock_offset_ns)) {
      std::fprintf(stderr, "master: no clock offset for w%d; using 0\n",
                   snap.worker);
    }
    rt.dropped_spans = snap.dropped;
    rt.events = std::move(snap.events);
    ranks.push_back(std::move(rt));
  }
  Status st = WriteMergedChromeTrace(ranks, opt.trace_out);
  if (!st.ok()) {
    std::fprintf(stderr, "master: cannot write trace: %s\n",
                 st.ToString().c_str());
    return;
  }
  std::fprintf(stderr, "master: merged trace (%zu/%d worker snapshots) -> %s\n",
               snaps.size(), requested, opt.trace_out.c_str());
}

int RunInproc(const NodeOptions& opt) {
  if (opt.trace) Tracer::Global().Enable();
  TreeServerCluster cluster(MakeTable(opt), opt.engine);
  ForestModel model = cluster.TrainForest(MakeJob(opt));
  if (!opt.out.empty() && !WriteForest(model, opt.out)) {
    std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
    return 1;
  }
  // Master and workers share this process's tracer, so its one-lane
  // trace is already the whole job.
  if (opt.trace && !opt.trace_out.empty()) {
    Status st = Tracer::Global().WriteChromeTrace(opt.trace_out);
    if (!st.ok()) {
      std::fprintf(stderr, "inproc: cannot write trace: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "inproc: trace -> %s\n", opt.trace_out.c_str());
  }
  std::fprintf(stderr, "inproc: trained %zu trees\n", model.num_trees());
  return 0;
}

int RunMaster(const NodeOptions& opt) {
  if (opt.trace) Tracer::Global().Enable();
  auto table = std::make_shared<const DataTable>(MakeTable(opt));
  auto transport = MakeTransport(opt);
  // The engine talks to the injector (when chaos is on); TCP-specific
  // plumbing (handshake, callbacks, shutdown) stays on the inner
  // transport the decorator does not re-implement.
  std::unique_ptr<FaultInjectingTransport> chaos =
      MakeChaos(opt, transport.get());
  Transport* engine_net =
      chaos != nullptr ? static_cast<Transport*>(chaos.get())
                       : static_cast<Transport*>(transport.get());
  Master master(table, engine_net, opt.engine);
  const std::string ckpt_path =
      opt.checkpoint_dir.empty() ? "" : opt.checkpoint_dir + "/master.ckpt";
  if (!ckpt_path.empty()) {
    std::string snapshot;
    Status load = LoadCheckpoint(ckpt_path, &snapshot);
    if (load.ok()) {
      Status restored = master.Restore(snapshot);
      if (!restored.ok()) {
        std::fprintf(stderr, "master: checkpoint restore failed: %s\n",
                     restored.ToString().c_str());
        return 1;
      }
      std::fprintf(stderr, "master: restored %s (epoch now %u)\n",
                   ckpt_path.c_str(), master.epoch());
    } else if (load.code() == StatusCode::kIOError) {
      // No checkpoint yet: a cold start.
      std::fprintf(stderr, "master: no checkpoint at %s, cold start\n",
                   ckpt_path.c_str());
    } else {
      // A torn or bit-flipped checkpoint must fail loudly, never
      // restore silently-wrong job state.
      std::fprintf(stderr, "master: refusing corrupt checkpoint: %s\n",
                   load.ToString().c_str());
      return 1;
    }
  }
  std::unique_ptr<HttpServer> http =
      StartNodeHttp(opt, transport.get(), [&master, &transport] {
        MasterStats s = master.GetStats();
        NetworkStats net = transport->GetStats();
        return "{\"rank\":-1,\"role\":\"master\",\"tasks_in_flight\":" +
               std::to_string(s.tasks_in_flight) +
               ",\"bplan_depth\":" + std::to_string(s.bplan_depth) +
               ",\"active_trees\":" + std::to_string(s.active_trees) +
               ",\"slow_tasks\":" + std::to_string(s.slow_tasks) +
               ",\"reconnects\":" +
               std::to_string(
                   SumEndpoint(net, &NetworkStats::Endpoint::reconnects)) +
               ",\"heartbeat_misses\":" +
               std::to_string(SumEndpoint(
                   net, &NetworkStats::Endpoint::heartbeat_misses)) +
               ",\"retransmits\":" +
               std::to_string(MetricsRegistry::Global()
                                  .GetCounter("engine.retransmits")
                                  ->value()) +
               ",\"fenced_msgs\":" +
               std::to_string(MetricsRegistry::Global()
                                  .GetCounter("engine.fenced_msgs")
                                  ->value()) +
               ",\"rss_bytes\":" + std::to_string(CurrentRssBytes()) + "," +
               SimdStatusJson() + "}\n";
      });
  transport->SetPeerDeadCallback([&](int rank) {
    if (rank != kMasterRank) master.OnWorkerCrash(rank);
  });
  Status st = transport->ConnectPeers(opt.peers);
  if (!st.ok()) {
    std::fprintf(stderr, "master: %s\n", st.ToString().c_str());
    return 1;
  }
  if (!transport->WaitForPeers(opt.wait_peers_ms)) {
    std::fprintf(stderr, "master: workers did not connect\n");
    return 1;
  }
  std::unique_ptr<StatsReporter> reporter;
  if (opt.engine.stats_period_ms > 0) {
    reporter = std::make_unique<StatsReporter>(
        [&] {
          EngineStats stats;
          stats.master = master.GetStats();
          stats.network = transport->GetStats();
          return stats;
        },
        opt.engine.stats_period_ms);
    reporter->Start();
  }
  master.Start();
  // Durable checkpoints: a background thread snapshots the master and
  // writes an atomically-renamed, CRC-trailered file every period.
  std::atomic<bool> ckpt_stop{false};
  std::thread ckpt_thread;
  if (!ckpt_path.empty() && opt.checkpoint_period_ms > 0) {
    ckpt_thread = std::thread([&] {
      while (!ckpt_stop.load()) {
        for (int64_t slept = 0;
             slept < opt.checkpoint_period_ms && !ckpt_stop.load();
             slept += 20) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        if (ckpt_stop.load()) break;
        Status st = SaveCheckpoint(ckpt_path, master.Checkpoint());
        if (!st.ok()) {
          std::fprintf(stderr, "master: checkpoint write failed: %s\n",
                       st.ToString().c_str());
        }
      }
    });
  }
  uint32_t job = master.Submit(MakeJob(opt));
  ForestModel model = master.Wait(job);
  ckpt_stop.store(true);
  if (ckpt_thread.joinable()) ckpt_thread.join();
  if (!ckpt_path.empty()) {
    // One final snapshot so the file reflects the completed job.
    Status st = SaveCheckpoint(ckpt_path, master.Checkpoint());
    if (!st.ok()) {
      std::fprintf(stderr, "master: final checkpoint failed: %s\n",
                   st.ToString().c_str());
    }
  }
  if (reporter != nullptr) reporter->ReportNow("job-complete");
  reporter.reset();
  if (!opt.out.empty() && !WriteForest(model, opt.out)) {
    std::fprintf(stderr, "master: cannot write %s\n", opt.out.c_str());
    return 1;
  }
  // Trace collection must precede the shutdown broadcast: workers
  // answer kTraceRequest from their still-running task loops.
  if (opt.trace && !opt.trace_out.empty()) {
    CollectAndWriteTrace(opt, &master, transport.get());
  }
  for (int w = 0; w < opt.engine.num_workers; ++w) {
    if (!transport->IsCrashed(w)) {
      transport->Send(ChannelKind::kTask,
                      Message{kMasterRank, w,
                              static_cast<uint32_t>(MsgType::kShutdown), ""});
    }
  }
  // Give the shutdown frames a moment to flush before tearing down.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  master.Stop();
  if (chaos != nullptr) chaos->Stop();  // before the inner transport dies
  if (http != nullptr) http->Stop();
  transport->Shutdown();
  std::fprintf(stderr, "master: trained %zu trees\n", model.num_trees());
  return 0;
}

int RunWorker(const NodeOptions& opt) {
  if (opt.trace) Tracer::Global().Enable();
  auto table = std::make_shared<const DataTable>(MakeTable(opt));
  auto transport = MakeTransport(opt);
  std::atomic<bool> master_dead{false};
  transport->SetPeerDeadCallback([&](int rank) {
    if (rank == kMasterRank) master_dead.store(true);
  });
  Status st = transport->ConnectPeers(opt.peers);
  if (!st.ok()) {
    std::fprintf(stderr, "worker %d: %s\n", opt.rank, st.ToString().c_str());
    return 1;
  }
  if (!transport->WaitForPeers(opt.wait_peers_ms)) {
    std::fprintf(stderr, "worker %d: peers did not connect\n", opt.rank);
    return 1;
  }
  std::unique_ptr<FaultInjectingTransport> chaos =
      MakeChaos(opt, transport.get());
  Transport* engine_net =
      chaos != nullptr ? static_cast<Transport*>(chaos.get())
                       : static_cast<Transport*>(transport.get());
  PeakGauge task_memory;
  BusyClock busy;
  Worker worker(opt.rank, table, engine_net,
                opt.engine.compers_per_worker, &task_memory, &busy,
                opt.engine.compress_transfers,
                opt.rank == opt.engine.debug_slow_worker
                    ? opt.engine.debug_slow_task_ms
                    : 0,
                opt.engine.ReliableConfig());
  std::unique_ptr<HttpServer> http =
      StartNodeHttp(opt, transport.get(), [&opt, &worker, &transport] {
        WorkerStats s = worker.GetStats();
        NetworkStats net = transport->GetStats();
        return "{\"rank\":" + std::to_string(opt.rank) +
               ",\"role\":\"worker\",\"tasks_parked\":" +
               std::to_string(s.tasks_parked) +
               ",\"btask_depth\":" + std::to_string(s.btask_depth) +
               ",\"tasks_computed\":" + std::to_string(s.tasks_computed) +
               ",\"reconnects\":" +
               std::to_string(
                   SumEndpoint(net, &NetworkStats::Endpoint::reconnects)) +
               ",\"heartbeat_misses\":" +
               std::to_string(SumEndpoint(
                   net, &NetworkStats::Endpoint::heartbeat_misses)) +
               ",\"retransmits\":" +
               std::to_string(MetricsRegistry::Global()
                                  .GetCounter("engine.retransmits")
                                  ->value()) +
               ",\"fenced_msgs\":" +
               std::to_string(MetricsRegistry::Global()
                                  .GetCounter("engine.fenced_msgs")
                                  ->value()) +
               ",\"rss_bytes\":" + std::to_string(CurrentRssBytes()) + "," +
               SimdStatusJson() + "}\n";
      });
  worker.Start();
  // The task loop exits (closing its queue) on the master's kShutdown;
  // a dead master ends the process too.
  while (!transport->task_queue(opt.rank).closed() && !master_dead.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  transport->CloseAll();
  worker.Join();
  if (chaos != nullptr) chaos->Stop();  // before the inner transport dies
  if (http != nullptr) http->Stop();
  transport->Shutdown();
  std::fprintf(stderr, "worker %d: exiting (%s)\n", opt.rank,
               master_dead.load() ? "master died" : "job done");
  return 0;
}

int Run(int argc, char** argv) {
  NodeOptions opt;
  if (!ParseArgs(argc, argv, &opt)) return 1;
  if (opt.inproc) return RunInproc(opt);
  if (opt.peers.size() != static_cast<size_t>(opt.engine.num_workers) + 1) {
    std::fprintf(stderr,
                 "--peers must list %d addresses (workers then master)\n",
                 opt.engine.num_workers + 1);
    return 1;
  }
  return opt.rank == kMasterRank ? RunMaster(opt) : RunWorker(opt);
}

}  // namespace
}  // namespace treeserver

int main(int argc, char** argv) { return treeserver::Run(argc, argv); }
