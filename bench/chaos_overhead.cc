// Fault-injector cost guard: measures the per-send cost a
// FaultInjectingTransport with an empty schedule adds (interleaved
// bare/wrapped in-process floods, median batch per side) and fails when
// that exceeds 1% of the measured loopback-TCP round trip — the
// transport the injector actually fronts on chaos-capable deployments,
// where it is always in the path. Writes BENCH_rpc_chaos.json.
//
//   ./build/bench/chaos_overhead

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "net/network.h"
#include "rpc/fault_injection.h"
#include "rpc/tcp_transport.h"
#include "rpc/transport.h"

using namespace treeserver;  // NOLINT

namespace {

/// Median round trip of `iterations` ping-pongs between the master
/// rank and worker 0: the echo thread drains the worker's task queue
/// and bounces every message back, so one sample is a full
/// request+response round trip including framing, CRC and two loopback
/// socket hops.
uint64_t MedianRttUs(Transport* master, Transport* worker, int iterations,
                     size_t payload_bytes) {
  std::thread echo([worker] {
    while (true) {
      auto msg = worker->task_queue(0).Pop();
      if (!msg.has_value()) return;
      Message reply;
      reply.src = 0;
      reply.dst = kMasterRank;
      reply.type = msg->type;
      reply.payload = std::move(msg->payload);
      if (!worker->Send(ChannelKind::kTask, reply)) return;
    }
  });

  const std::string payload(payload_bytes, 'x');
  std::vector<uint64_t> samples;
  samples.reserve(iterations);
  for (int i = 0; i < iterations; ++i) {
    WallTimer timer;
    Message msg;
    msg.src = kMasterRank;
    msg.dst = 0;
    msg.type = 1;
    msg.payload = payload;
    if (!master->Send(ChannelKind::kTask, msg)) break;
    auto reply = master->master_queue().Pop();
    if (!reply.has_value()) break;
    const uint64_t us = static_cast<uint64_t>(timer.Seconds() * 1e6);
    // The first round trips pay connection and cache warmup; keep them
    // out of the median.
    if (i >= iterations / 10) samples.push_back(us);
  }

  worker->task_queue(0).Close();
  echo.join();

  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  return samples[(samples.size() - 1) / 2];
}

/// One chaos-guard batch: push `msgs` 64 B task messages through
/// `via` into worker 0's queue on `net` and return the wall
/// milliseconds for the sends alone. Single-threaded on purpose — a
/// concurrent drain thread adds producer/consumer scheduling variance
/// that dwarfs the one predicted branch under test; the queue is
/// drained untimed afterwards.
double ChaosGuardBatch(Transport* via, InProcessTransport* net, int msgs) {
  const std::string payload(64, 'x');
  WallTimer timer;
  for (int i = 0; i < msgs; ++i) {
    Message msg;
    msg.src = kMasterRank;
    msg.dst = 0;
    msg.type = 1;
    msg.payload = payload;
    if (!via->Send(ChannelKind::kTask, msg)) break;
  }
  const double ms = timer.Seconds() * 1e3;
  while (net->task_queue(0).TryPop().has_value()) {
  }
  return ms;
}

struct TcpPair {
  std::unique_ptr<TcpTransport> master;
  std::unique_ptr<TcpTransport> worker;

  TcpPair() {
    TcpTransportOptions o;
    o.num_workers = 1;
    o.local_rank = kMasterRank;
    master = std::make_unique<TcpTransport>(o);
    o.local_rank = 0;
    worker = std::make_unique<TcpTransport>(o);
    const std::vector<std::string> peers = {
        "127.0.0.1:" + std::to_string(worker->local_port()),
        "127.0.0.1:" + std::to_string(master->local_port())};
    if (!master->ConnectPeers(peers).ok() ||
        !worker->ConnectPeers(peers).ok() || !master->WaitForPeers(10000) ||
        !worker->WaitForPeers(10000)) {
      std::fprintf(stderr, "chaos_overhead: TCP pair failed to connect\n");
      std::exit(1);
    }
  }

  ~TcpPair() {
    worker->Shutdown();
    master->Shutdown();
  }
};

/// Two measurements:
///
/// 1. The injector's absolute per-send cost: interleaved bare vs
///    empty-schedule-wrapped in-process floods, median batch per side.
///    Short alternating batches cancel machine drift (a 100 ms
///    monolithic run drifts several percent on a shared box) and the
///    median sheds interrupt outliers. The healthy cost is one
///    predicted branch plus a Message move and a second virtual
///    dispatch — low tens of ns.
/// 2. The cost of what the injector fronts in deployment: the bare
///    loopback-TCP round trip (chaos wraps TcpTransport in
///    treeserver_node).
///
/// The gate is (1) as a fraction of (2): the injector must stay under
/// 1% of the message's real transport cost. Gating against the
/// in-process queue push instead would demand < ~2 ns — below even an
/// extra virtual call — while letting the regressions this guard
/// exists for (a lock, an RNG roll, an allocation on the inactive
/// path) cost hundreds of ns is what actually moves this ratio.
int RunChaosOverheadGuard() {
  constexpr int kBatchMsgs = 20000;
  constexpr int kBatches = 80;
  double bare_ms = 0.0;
  double wrapped_ms = 0.0;
  {
    InProcessTransport bare_net(1, /*bandwidth_mbps=*/0.0);
    InProcessTransport wrapped_net(1, /*bandwidth_mbps=*/0.0);
    FaultInjectingTransport chaos(&wrapped_net, FaultSchedule{});

    // Warmup: allocator arenas, page faults, branch predictors.
    ChaosGuardBatch(&bare_net, &bare_net, kBatchMsgs);
    ChaosGuardBatch(&chaos, &wrapped_net, kBatchMsgs);

    std::vector<double> bare_runs, wrapped_runs;
    bare_runs.reserve(kBatches);
    wrapped_runs.reserve(kBatches);
    for (int i = 0; i < kBatches; ++i) {
      bare_runs.push_back(ChaosGuardBatch(&bare_net, &bare_net, kBatchMsgs));
      wrapped_runs.push_back(
          ChaosGuardBatch(&chaos, &wrapped_net, kBatchMsgs));
    }
    chaos.Stop();

    auto median = [](std::vector<double>* v) {
      std::sort(v->begin(), v->end());
      return (*v)[v->size() / 2];
    };
    bare_ms = median(&bare_runs);
    wrapped_ms = median(&wrapped_runs);
  }
  const double bare_ns = bare_ms * 1e6 / kBatchMsgs;
  const double wrapped_ns = wrapped_ms * 1e6 / kBatchMsgs;
  const double added_ns = std::max(0.0, wrapped_ns - bare_ns);
  std::printf("chaos-overhead: %d batches x %d msgs, per-send "
              "bare=%.0fns wrapped=%.0fns added=%.0fns\n",
              kBatches, kBatchMsgs, bare_ns, wrapped_ns, added_ns);

  uint64_t tcp_rtt_p50_us = 0;
  {
    TcpPair pair;
    tcp_rtt_p50_us = MedianRttUs(pair.master.get(), pair.worker.get(),
                                 /*iterations=*/2000, /*payload_bytes=*/64);
  }
  std::printf("chaos-overhead: bare loopback-tcp rtt p50=%lluus\n",
              static_cast<unsigned long long>(tcp_rtt_p50_us));

  const double rtt_ns = static_cast<double>(tcp_rtt_p50_us) * 1e3;
  const double overhead_pct = rtt_ns > 0 ? added_ns / rtt_ns * 100.0 : 100.0;
  constexpr double kBudgetPct = 1.0;
  char json[256];
  std::snprintf(json, sizeof(json),
                "{\"bench\":\"rpc-chaos\",\"send_bare_ns\":%.0f,"
                "\"send_wrapped_ns\":%.0f,\"added_ns\":%.0f,"
                "\"tcp_rtt_p50_us\":%llu,\"overhead_pct\":%.3f,"
                "\"budget_pct\":%.1f}\n",
                bare_ns, wrapped_ns, added_ns,
                static_cast<unsigned long long>(tcp_rtt_p50_us), overhead_pct,
                kBudgetPct);
  std::printf("%s", json);
  if (std::FILE* f = std::fopen("BENCH_rpc_chaos.json", "w")) {
    std::fputs(json, f);
    std::fclose(f);
  }
  if (overhead_pct > kBudgetPct) {
    std::fprintf(stderr,
                 "FAIL: empty-schedule injector adds %.0fns per send "
                 "(%.3f%% of the TCP round trip), budget %.1f%%\n",
                 added_ns, overhead_pct, kBudgetPct);
    return 1;
  }
  std::printf("PASS: empty-schedule injector adds %.0fns per send — "
              "%.3f%% of the TCP round trip (budget %.1f%%)\n",
              added_ns, overhead_pct, kBudgetPct);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: %s (takes no arguments)\n", argv[0]);
    return 2;
  }
  return RunChaosOverheadGuard();
}
