// Serving-fleet launcher and CLI: one binary hosting every fleet role.
//
//   treefleet train    --out=model.bin [dataset/job flags]
//   treefleet replica  --rank=R --workers=N --peers=h:p,... [--http-port=P]
//   treefleet drive    --model=model.bin --workers=N --peers=...
//                      [--requests=N] [--canary-model=m2.bin]
//                      [--trace-out=t.json]
//   treefleet push     --router=H:P --name=m --path=model.bin [--canary=1]
//   treefleet promote  --router=H:P --name=m
//   treefleet rollback --router=H:P --name=m
//   treefleet status   --router=H:P
//
// `replica` runs one FleetReplica rank over the TCP transport until
// the router's kShutdown (or a dead router) ends it. `drive` is the
// router side: it pushes the model, drives paced prediction load,
// checks every accepted answer byte-for-byte against the in-process
// CompiledForest reference, reconciles the shed count against the
// fleet.shed counter, and (with --canary-model) exercises a canary
// push + forced rollback. tools/fleet_failover_test.sh SIGKILLs a
// replica in the middle of all this.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cli_flags.h"
#include "common/file_io.h"
#include "common/http_server.h"
#include "common/logging.h"
#include "common/serial.h"
#include "common/trace.h"
#include "fleet/replica.h"
#include "fleet/router.h"
#include "forest/forest.h"
#include "rpc/fault_injection.h"
#include "rpc/tcp_transport.h"
#include "serve/compiled_model.h"
#include "table/datasets.h"

namespace treeserver {
namespace {

struct FleetOptions {
  std::string command;

  // Cluster shape (replica/drive): worker addresses 0..N-1 then router.
  int rank = 0;
  int workers = 3;
  std::vector<std::string> peers;
  int64_t wait_peers_ms = 30000;
  int64_t heartbeat_ms = 50;
  int miss_limit = 20;

  // Dataset (identical in train/drive, like treeserver_node).
  size_t rows = 4000;
  int features = 8;
  int categorical = 3;
  int classes = 3;
  uint64_t data_seed = 7;

  // Job (train).
  int trees = 8;
  int max_depth = 7;
  uint64_t job_seed = 17;

  // Files.
  std::string out;           // train: model file; drive: predictions
  std::string model;         // drive: v1 model file
  std::string canary_model;  // drive: v2 model file for the canary leg
  std::string trace_out;

  // Drive load shape.
  int requests = 0;      // 0 => one per dataset row
  int period_us = 300;   // pacing between sends
  int deadline_ms = 8000;
  size_t max_inflight = 1024;

  // Chaos (replica/drive).
  std::string chaos_profile;
  uint64_t chaos_seed = 1;

  // Observability.
  int http_port = -1;
  bool trace = false;

  // HTTP client subcommands.
  std::string router_addr;  // H:P
  std::string name = "m";
  std::string path;
  bool canary = false;
};

void Usage() {
  std::fprintf(
      stderr,
      "treefleet: replicated serving fleet (router + replicas)\n"
      "  treefleet train --out=FILE [--rows --features --categorical\n"
      "      --classes --data-seed --trees --max-depth --job-seed]\n"
      "  treefleet replica --rank=R --workers=N --peers=h:p,...\n"
      "      [--http-port=P]\n"
      "      [--chaos-profile=NAME --chaos-seed=N] [--trace=1]\n"
      "  treefleet drive --model=FILE --workers=N --peers=...\n"
      "      [--requests=N] [--period-us=N] [--deadline-ms=N]\n"
      "      [--max-inflight=N] [--canary-model=FILE] [--out=FILE]\n"
      "      [--http-port=P] [--trace=1 --trace-out=FILE]\n"
      "      [--chaos-profile=NAME --chaos-seed=N]\n"
      "  treefleet push --router=H:P --name=m --path=FILE [--canary=1]\n"
      "  treefleet promote|rollback --router=H:P --name=m\n"
      "  treefleet status --router=H:P\n"
      "Peers list worker (replica) addresses 0..N-1, then the router.\n");
}

bool ParseArgs(int argc, char** argv, FleetOptions* opt) {
  if (argc < 2) return false;
  opt->command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    std::string v;
    if (ParseFlag(arg, "rank", &v)) {
      opt->rank = NumberFlag("rank", v, 0, Usage);
    } else if (ParseFlag(arg, "workers", &v)) {
      opt->workers = NumberFlag("workers", v, 1, Usage);
    } else if (ParseFlag(arg, "peers", &v)) {
      opt->peers = SplitCommas(v);
    } else if (ParseFlag(arg, "wait-peers-ms", &v)) {
      opt->wait_peers_ms = NumberFlag<int64_t>("wait-peers-ms", v, 0, Usage);
    } else if (ParseFlag(arg, "heartbeat-ms", &v)) {
      opt->heartbeat_ms = NumberFlag<int64_t>("heartbeat-ms", v, 0, Usage);
    } else if (ParseFlag(arg, "miss-limit", &v)) {
      opt->miss_limit = NumberFlag("miss-limit", v, 1, Usage);
    } else if (ParseFlag(arg, "rows", &v)) {
      opt->rows = NumberFlag<size_t>("rows", v, 1, Usage);
    } else if (ParseFlag(arg, "features", &v)) {
      opt->features = NumberFlag("features", v, 0, Usage);
    } else if (ParseFlag(arg, "categorical", &v)) {
      opt->categorical = NumberFlag("categorical", v, 0, Usage);
    } else if (ParseFlag(arg, "classes", &v)) {
      opt->classes = NumberFlag("classes", v, 0, Usage);
    } else if (ParseFlag(arg, "data-seed", &v)) {
      opt->data_seed = NumberFlag<uint64_t>("data-seed", v, 0, Usage);
    } else if (ParseFlag(arg, "trees", &v)) {
      opt->trees = NumberFlag("trees", v, 1, Usage);
    } else if (ParseFlag(arg, "max-depth", &v)) {
      opt->max_depth = NumberFlag("max-depth", v, 1, Usage);
    } else if (ParseFlag(arg, "job-seed", &v)) {
      opt->job_seed = NumberFlag<uint64_t>("job-seed", v, 0, Usage);
    } else if (ParseFlag(arg, "out", &v)) {
      opt->out = v;
    } else if (ParseFlag(arg, "model", &v)) {
      opt->model = v;
    } else if (ParseFlag(arg, "canary-model", &v)) {
      opt->canary_model = v;
    } else if (ParseFlag(arg, "trace-out", &v)) {
      opt->trace_out = v;
    } else if (ParseFlag(arg, "requests", &v)) {
      opt->requests = NumberFlag("requests", v, 0, Usage);
    } else if (ParseFlag(arg, "period-us", &v)) {
      opt->period_us = NumberFlag("period-us", v, 0, Usage);
    } else if (ParseFlag(arg, "deadline-ms", &v)) {
      opt->deadline_ms = NumberFlag("deadline-ms", v, 0, Usage);
    } else if (ParseFlag(arg, "max-inflight", &v)) {
      opt->max_inflight = NumberFlag<size_t>("max-inflight", v, 1, Usage);
    } else if (ParseFlag(arg, "chaos-profile", &v)) {
      opt->chaos_profile = v;
    } else if (ParseFlag(arg, "chaos-seed", &v)) {
      opt->chaos_seed = NumberFlag<uint64_t>("chaos-seed", v, 0, Usage);
    } else if (ParseFlag(arg, "http-port", &v)) {
      opt->http_port = NumberFlag("http-port", v, -1, Usage, 65535);
    } else if (ParseFlag(arg, "trace", &v)) {
      opt->trace = v == "1" || v == "true";
    } else if (ParseFlag(arg, "router", &v)) {
      opt->router_addr = v;
    } else if (ParseFlag(arg, "name", &v)) {
      opt->name = v;
    } else if (ParseFlag(arg, "path", &v)) {
      opt->path = v;
    } else if (ParseFlag(arg, "canary", &v)) {
      opt->canary = v == "1" || v == "true";
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

DataTable MakeTable(const FleetOptions& opt) {
  DatasetProfile profile;
  profile.name = "fleet";
  profile.rows = opt.rows;
  profile.num_numeric = opt.features;
  profile.num_categorical = opt.categorical;
  profile.num_classes = opt.classes;
  profile.missing_fraction = 0.05;
  return GenerateTable(profile, opt.data_seed);
}

std::unique_ptr<TcpTransport> MakeTransport(const FleetOptions& opt,
                                            int rank) {
  TcpTransportOptions topt;
  topt.num_workers = opt.workers;
  topt.local_rank = rank;
  topt.listen_port = PortOfPeer(opt.peers, opt.workers, rank);
  topt.heartbeat_period_ms = opt.heartbeat_ms;
  topt.heartbeat_miss_limit = opt.miss_limit;
  return std::make_unique<TcpTransport>(topt);
}

std::unique_ptr<FaultInjectingTransport> MakeChaos(const FleetOptions& opt,
                                                   Transport* inner) {
  if (opt.chaos_profile.empty() || opt.chaos_profile == "none") return nullptr;
  FaultSchedule schedule;
  if (!FaultSchedule::Profile(opt.chaos_profile, opt.chaos_seed, &schedule)) {
    std::fprintf(stderr, "unknown --chaos-profile=%s (profiles: %s)\n",
                 opt.chaos_profile.c_str(), FaultSchedule::ProfileNames());
    std::exit(1);
  }
  // Replica death is the failover script's job (real SIGKILL); the
  // injector contributes drops/dups/corruption/partitions only.
  schedule.crashes.clear();
  std::fprintf(stderr, "chaos: injecting profile '%s' seed %llu\n",
               opt.chaos_profile.c_str(),
               static_cast<unsigned long long>(opt.chaos_seed));
  return std::make_unique<FaultInjectingTransport>(inner, schedule);
}

int RunTrain(const FleetOptions& opt) {
  if (opt.out.empty()) {
    std::fprintf(stderr, "train: --out required\n");
    return 1;
  }
  DataTable table = MakeTable(opt);
  ForestJobSpec spec;
  spec.name = "fleet-job";
  spec.num_trees = opt.trees;
  spec.tree.max_depth = opt.max_depth;
  spec.column_ratio = 0.7;
  spec.seed = opt.job_seed;
  ForestModel model = TrainForestSerial(table, spec, 2);
  if (!WriteFileAtomic(opt.out, SerializeForest(model)).ok()) {
    std::fprintf(stderr, "train: cannot write %s\n", opt.out.c_str());
    return 1;
  }
  std::fprintf(stderr, "train: %zu trees (seed %llu) -> %s\n",
               model.num_trees(),
               static_cast<unsigned long long>(opt.job_seed),
               opt.out.c_str());
  return 0;
}

int RunReplica(const FleetOptions& opt) {
  if (opt.trace) Tracer::Global().Enable();
  auto transport = MakeTransport(opt, opt.rank);
  std::atomic<bool> router_dead{false};
  transport->SetPeerDeadCallback([&](int rank) {
    if (rank == kMasterRank) router_dead.store(true);
  });
  Status st = transport->ConnectPeers(opt.peers);
  if (!st.ok()) {
    std::fprintf(stderr, "replica %d: %s\n", opt.rank, st.ToString().c_str());
    return 1;
  }
  if (!transport->WaitForPeers(opt.wait_peers_ms)) {
    std::fprintf(stderr, "replica %d: peers did not connect\n", opt.rank);
    return 1;
  }
  std::unique_ptr<FaultInjectingTransport> chaos =
      MakeChaos(opt, transport.get());
  Transport* net = chaos != nullptr ? static_cast<Transport*>(chaos.get())
                                    : static_cast<Transport*>(transport.get());
  FleetReplicaConfig config;
  config.rank = opt.rank;
  config.serve.http_port = opt.http_port;
  FleetReplica replica(net, config);
  replica.Start();
  std::fprintf(stderr, "replica %d: serving\n", opt.rank);
  while (!transport->task_queue(opt.rank).closed() && !router_dead.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  replica.Stop();
  if (chaos != nullptr) chaos->Stop();  // before the inner transport dies
  transport->Shutdown();
  std::fprintf(stderr, "replica %d: exiting (%s)\n", opt.rank,
               router_dead.load() ? "router died" : "shutdown");
  return 0;
}

/// Waits until every live replica's health pong reports `version` for
/// model `name`. Returns false on timeout.
bool WaitForVersionEverywhere(FleetRouter* router, const std::string& name,
                              uint32_t version, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    FleetStatus status = router->GetStatus();
    bool all = true;
    for (const FleetReplicaStatus& r : status.replicas) {
      if (!r.alive) continue;
      bool found = false;
      for (const auto& m : r.models) {
        if (m.name == name && m.version == version) found = true;
      }
      if (!found) all = false;
    }
    if (all) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

int RunDrive(const FleetOptions& opt) {
  if (opt.model.empty()) {
    std::fprintf(stderr, "drive: --model required\n");
    return 1;
  }
  if (opt.trace) Tracer::Global().Enable();

  std::string model_bytes;
  if (Status st = ReadFile(opt.model, &model_bytes); !st.ok()) {
    std::fprintf(stderr, "drive: %s\n", st.ToString().c_str());
    return 1;
  }
  ForestModel forest;
  {
    BinaryReader r(model_bytes);
    if (Status st = ForestModel::Deserialize(&r, &forest); !st.ok()) {
      std::fprintf(stderr, "drive: bad model: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  DataTable table = MakeTable(opt);
  CompiledForest compiled = CompiledForest::Compile(forest);
  std::vector<uint32_t> all_rows(table.num_rows());
  for (uint32_t i = 0; i < table.num_rows(); ++i) all_rows[i] = i;
  std::vector<int32_t> reference(table.num_rows());
  compiled.PredictLabel(table, all_rows.data(), all_rows.size(), -1,
                        reference.data());

  auto transport = MakeTransport(opt, kMasterRank);
  MetricsRegistry metrics;
  FleetRouterConfig config;
  config.max_inflight = opt.max_inflight;
  config.default_deadline_ms = opt.deadline_ms;
  config.metrics = &metrics;
  config.http_port = opt.http_port;
  config.clock_offset_ns = [&transport](int rank) {
    int64_t offset = 0;
    transport->PeerClockOffset(rank, &offset);
    return offset;
  };
  // The router doesn't exist yet when the callback must be installed
  // (before ConnectPeers), so bind it through an atomic set below.
  std::atomic<FleetRouter*> router_ptr{nullptr};
  transport->SetPeerDeadCallback([&router_ptr](int rank) {
    FleetRouter* r = router_ptr.load();
    if (rank != kMasterRank && r != nullptr) {
      std::fprintf(stderr, "drive: replica %d died\n", rank);
      r->MarkReplicaDead(rank);
    }
  });
  Status st = transport->ConnectPeers(opt.peers);
  if (!st.ok()) {
    std::fprintf(stderr, "drive: %s\n", st.ToString().c_str());
    return 1;
  }
  if (!transport->WaitForPeers(opt.wait_peers_ms)) {
    std::fprintf(stderr, "drive: replicas did not connect\n");
    return 1;
  }
  std::unique_ptr<FaultInjectingTransport> chaos =
      MakeChaos(opt, transport.get());
  Transport* net = chaos != nullptr ? static_cast<Transport*>(chaos.get())
                                    : static_cast<Transport*>(transport.get());
  auto router = std::make_unique<FleetRouter>(net, config);
  FleetRouter* active = router.get();
  router_ptr.store(active);
  active->Start();

  if (Status push = active->Push(opt.name, model_bytes); !push.ok()) {
    std::fprintf(stderr, "drive: push failed: %s\n", push.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "drive: pushed %s v1 to %d replicas\n",
               opt.name.c_str(), opt.workers);

  // Paced load: the failover script SIGKILLs a replica while this
  // loop is mid-flight.
  const int total = opt.requests > 0 ? opt.requests
                                     : static_cast<int>(table.num_rows());
  std::fprintf(stderr, "drive: driving %d requests\n", total);
  std::vector<std::future<Result<FleetBatchResult>>> futures;
  futures.reserve(total);
  for (int i = 0; i < total; ++i) {
    const uint32_t row = static_cast<uint32_t>(i) % table.num_rows();
    futures.push_back(active->Predict(opt.name, table, row));
    if (opt.period_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(opt.period_us));
    }
  }

  std::FILE* preds = nullptr;
  if (!opt.out.empty()) {
    preds = std::fopen(opt.out.c_str(), "w");
    if (preds == nullptr) {
      std::fprintf(stderr, "drive: cannot write %s\n", opt.out.c_str());
      return 1;
    }
  }
  uint64_t served = 0, shed = 0, wrong = 0;
  for (int i = 0; i < total; ++i) {
    const uint32_t row = static_cast<uint32_t>(i) % table.num_rows();
    Result<FleetBatchResult> result = futures[i].get();
    if (!result.ok()) {
      // Shed (admission, rotation or deadline) — acceptable under
      // failover, but it must be *counted*, never silent.
      if (result.status().code() != StatusCode::kUnavailable) {
        std::fprintf(stderr, "drive: request %d failed oddly: %s\n", i,
                     result.status().ToString().c_str());
        ++wrong;
      } else {
        ++shed;
      }
      continue;
    }
    ++served;
    if (result->labels.size() != 1 || result->labels[0] != reference[row]) {
      std::fprintf(stderr, "drive: WRONG answer for row %u\n", row);
      ++wrong;
    } else if (preds != nullptr) {
      std::fprintf(preds, "%u %d\n", row, result->labels[0]);
    }
  }
  if (preds != nullptr) std::fclose(preds);

  const uint64_t shed_counter = metrics.GetCounter("fleet.shed")->value();
  std::fprintf(stderr,
               "drive: served=%llu shed=%llu fleet.shed=%llu wrong=%llu\n",
               static_cast<unsigned long long>(served),
               static_cast<unsigned long long>(shed),
               static_cast<unsigned long long>(shed_counter),
               static_cast<unsigned long long>(wrong));
  bool failed = wrong != 0 || served == 0;
  // Every rejected future must be visible in the shed counter (the
  // counter may run ahead: sheds of retries count too).
  if (shed_counter < shed) {
    std::fprintf(stderr, "drive: FAIL shed counter %llu < rejected %llu\n",
                 static_cast<unsigned long long>(shed_counter),
                 static_cast<unsigned long long>(shed));
    failed = true;
  }

  // Canary leg: push v2 to one replica, then force a rollback and
  // prove every live replica is back on (or still on) v1.
  if (!opt.canary_model.empty()) {
    std::string canary_bytes;
    if (Status rst = ReadFile(opt.canary_model, &canary_bytes);
        !rst.ok()) {
      std::fprintf(stderr, "drive: %s\n", rst.ToString().c_str());
      return 1;
    }
    Result<int> canary = active->PushCanary(opt.name, canary_bytes);
    if (!canary.ok()) {
      std::fprintf(stderr, "drive: canary push failed: %s\n",
                   canary.status().ToString().c_str());
      failed = true;
    } else {
      std::fprintf(stderr, "drive: canary on replica %d\n", *canary);
      for (int i = 0; i < 50; ++i) {
        const uint32_t row = static_cast<uint32_t>(i) % table.num_rows();
        (void)active->Predict(opt.name, table, row).get();
      }
      if (Status rb = active->Rollback(opt.name); !rb.ok()) {
        std::fprintf(stderr, "drive: rollback failed: %s\n",
                     rb.ToString().c_str());
        failed = true;
      } else if (!WaitForVersionEverywhere(active, opt.name, 1, 10000)) {
        std::fprintf(stderr,
                     "drive: FAIL not all replicas back on v1 after "
                     "rollback\n");
        failed = true;
      } else {
        // And the traffic agrees: post-rollback answers are v1 again.
        for (int i = 0; i < 50; ++i) {
          const uint32_t row = static_cast<uint32_t>(i) % table.num_rows();
          Result<FleetBatchResult> r = active->Predict(opt.name, table, row)
                                           .get();
          if (!r.ok()) continue;
          if (r->version != 1 || r->labels[0] != reference[row]) {
            std::fprintf(stderr, "drive: FAIL post-rollback row %u v%u\n",
                         row, r->version);
            failed = true;
            break;
          }
        }
        std::fprintf(stderr, "drive: canary rollback verified\n");
      }
    }
  }

  if (opt.trace && !opt.trace_out.empty()) {
    Result<std::string> merged = active->CollectMergedTrace();
    Status st = merged.ok() ? WriteFileAtomic(opt.trace_out, *merged)
                            : merged.status();
    if (st.ok()) {
      std::fprintf(stderr, "drive: merged trace -> %s\n",
                   opt.trace_out.c_str());
    } else {
      std::fprintf(stderr, "drive: cannot write trace: %s\n",
                   st.ToString().c_str());
    }
  }

  active->ShutdownReplicas();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  active->Stop();
  if (chaos != nullptr) chaos->Stop();  // before the inner transport dies
  transport->Shutdown();
  std::fprintf(stderr, "drive: %s\n", failed ? "FAILED" : "ok");
  return failed ? 1 : 0;
}

/// push/promote/rollback/status against a running router's HTTP port.
int RunClient(const FleetOptions& opt) {
  size_t colon = opt.router_addr.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "%s: --router=HOST:PORT required\n",
                 opt.command.c_str());
    return 1;
  }
  const std::string host = opt.router_addr.substr(0, colon);
  const uint16_t port = NumberFlag<uint16_t>(
      "router", opt.router_addr.substr(colon + 1), 1, Usage);

  std::string path;
  if (opt.command == "status") {
    path = "/statusz";
  } else if (opt.command == "push") {
    if (opt.path.empty()) {
      std::fprintf(stderr, "push: --path=MODEL_FILE required\n");
      return 1;
    }
    path = "/fleet/push?model=" + opt.name + "&path=" + opt.path;
    if (opt.canary) path += "&canary=1";
  } else if (opt.command == "promote") {
    path = "/fleet/promote?model=" + opt.name;
  } else if (opt.command == "rollback") {
    path = "/fleet/rollback?model=" + opt.name;
  }
  std::string body;
  int code = 0;
  Status st = HttpGet(host, port, path, &body, &code, 30000);
  if (!st.ok()) {
    std::fprintf(stderr, "%s: %s\n", opt.command.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  std::fputs(body.c_str(), stdout);
  return code == 200 ? 0 : 1;
}

int Run(int argc, char** argv) {
  FleetOptions opt;
  if (!ParseArgs(argc, argv, &opt)) {
    Usage();
    return 2;
  }
  if (opt.command == "train") return RunTrain(opt);
  if (opt.command == "replica" || opt.command == "drive") {
    if (opt.peers.size() != static_cast<size_t>(opt.workers) + 1) {
      std::fprintf(stderr,
                   "--peers must list %d addresses (replicas then router)\n",
                   opt.workers + 1);
      return 1;
    }
    return opt.command == "replica" ? RunReplica(opt) : RunDrive(opt);
  }
  if (opt.command == "push" || opt.command == "promote" ||
      opt.command == "rollback" || opt.command == "status") {
    return RunClient(opt);
  }
  std::fprintf(stderr, "unknown command '%s'\n", opt.command.c_str());
  Usage();
  return 1;
}

}  // namespace
}  // namespace treeserver

int main(int argc, char** argv) { return treeserver::Run(argc, argv); }
