#ifndef TREESERVER_RPC_FAULT_INJECTION_H_
#define TREESERVER_RPC_FAULT_INJECTION_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics_registry.h"
#include "common/rng.h"
#include "rpc/transport.h"

namespace treeserver {

/// Declarative fault plan for one FaultInjectingTransport, driven by a
/// seeded RNG so a chaos run is reproducible from (profile, seed).
///
/// Two kinds of faults:
///  - probabilistic, per channel: every Send() rolls drop / duplicate /
///    delay / reorder / corrupt dice (evaluated in that order; at most
///    one fires per message);
///  - timed windows, relative to the injector's construction: link
///    partitions (all traffic between two ranks dropped while the
///    window is open), rank stalls (outbound traffic held until the
///    window closes) and rank crashes (SetCrashed fired once at the
///    given instant).
///
/// Self-sends (src == dst, e.g. the master's own crash notices) are
/// never touched: they do not cross the reliable-delivery layer, so an
/// injected fault there would be unrecoverable by design.
struct FaultSchedule {
  /// Per-channel probabilities, all in [0, 1].
  struct ChannelFaults {
    double drop = 0.0;
    double duplicate = 0.0;
    double delay = 0.0;
    double reorder = 0.0;  // like delay, but with a longer hold so a
                           // later message overtakes this one
    double corrupt = 0.0;  // flip one payload byte
    int delay_min_ms = 1;
    int delay_max_ms = 10;
  };
  /// Traffic between ranks `a` and `b` (either direction) is dropped
  /// while start_ms <= t < end_ms. Ranks may be kMasterRank.
  struct Partition {
    int a = 0;
    int b = 0;
    int64_t start_ms = 0;
    int64_t end_ms = 0;
  };
  /// Outbound messages from `rank` are held (not dropped) until
  /// end_ms — a frozen process that later thaws.
  struct Stall {
    int rank = 0;
    int64_t start_ms = 0;
    int64_t end_ms = 0;
  };
  /// SetCrashed(rank) is invoked once at `at_ms`. Not used by the
  /// parity profiles (a crash changes the recovery path, and with it
  /// potentially the replication-dependent forest).
  struct Crash {
    int rank = 0;
    int64_t at_ms = 0;
  };

  uint64_t seed = 1;
  ChannelFaults channels[kNumChannelKinds];
  std::vector<Partition> partitions;
  std::vector<Stall> stalls;
  std::vector<Crash> crashes;

  /// True when nothing can ever fire — the injector then takes a
  /// zero-overhead pass-through path.
  bool Empty() const;

  /// Named profiles for the chaos soak matrix: "drop-heavy",
  /// "duplicate-storm", "partition-heal", "mixed" (and "none" for the
  /// empty schedule). Returns false on an unknown name.
  static bool Profile(const std::string& name, uint64_t seed,
                      FaultSchedule* out);
  static const char* ProfileNames();
};

/// Transport decorator that injects the faults of a FaultSchedule
/// between the engine and any inner Transport (in-process or TCP).
///
/// Each injected fault increments a process-global registry counter
/// (chaos.drops, chaos.dups, chaos.delays, chaos.reorders,
/// chaos.corruptions, chaos.partitions, chaos.stalls, chaos.crashes),
/// so /metrics and the stats reporter show exactly what the run was
/// subjected to.
///
/// With an Empty() schedule Send() forwards directly to the inner
/// transport — the only cost is one predictable branch (guarded by the
/// bench/chaos_overhead gate).
///
/// The decorator does not own the inner transport. Stop() (or the
/// destructor) joins the delayed-delivery thread and must run before
/// the inner transport is destroyed.
class FaultInjectingTransport : public Transport {
 public:
  FaultInjectingTransport(Transport* inner, FaultSchedule schedule);
  ~FaultInjectingTransport() override;

  bool Send(ChannelKind channel, Message msg) override;

  BlockingQueue<Message>& task_queue(int worker) override {
    return inner_->task_queue(worker);
  }
  BlockingQueue<Message>& data_queue(int worker) override {
    return inner_->data_queue(worker);
  }
  BlockingQueue<Message>& master_queue() override {
    return inner_->master_queue();
  }

  /// Mirrors the crash locally (so IsCrashed() on the decorator stays
  /// truthful) and forwards to the inner transport.
  void SetCrashed(int worker) override;
  void CloseAll() override { inner_->CloseAll(); }

  /// Counters live on the inner transport (it does the real
  /// accounting); forward both snapshot and reset.
  NetworkStats GetStats() const override { return inner_->GetStats(); }
  void ResetCounters() override { inner_->ResetCounters(); }

  /// Flushes held messages (stalled/delayed ones are delivered
  /// immediately) and joins the delivery thread. Idempotent. After
  /// Stop() the injector is a pure pass-through.
  void Stop();

  Transport* inner() const { return inner_; }
  const FaultSchedule& schedule() const { return schedule_; }

 private:
  struct Held {
    int64_t due_ms = 0;
    uint64_t order = 0;  // FIFO tie-break among equal deadlines
    ChannelKind channel = ChannelKind::kTask;
    Message msg;
  };

  int64_t ElapsedMs() const;
  bool InPartition(int a, int b, int64_t now_ms) const;
  /// Queues a message for delivery at now + hold_ms on the delivery
  /// thread.
  void HoldMessage(ChannelKind channel, Message msg, int64_t hold_ms);
  void DeliveryLoop();
  void FireDueCrashes(int64_t now_ms);

  Transport* const inner_;
  const FaultSchedule schedule_;
  const bool active_;
  const std::chrono::steady_clock::time_point epoch_;

  Counter* const drops_;
  Counter* const dups_;
  Counter* const delays_;
  Counter* const reorders_;
  Counter* const corruptions_;
  Counter* const partition_drops_;
  Counter* const stall_holds_;
  Counter* const crashes_fired_;

  std::mutex mu_;
  std::condition_variable cv_;
  Rng rng_;                   // guarded by mu_
  std::vector<Held> held_;    // unordered; the loop scans for due ones
  uint64_t next_order_ = 0;   // guarded by mu_
  std::vector<bool> crash_fired_;  // parallel to schedule_.crashes
  bool stopped_ = false;
  std::thread delivery_;
};

}  // namespace treeserver

#endif  // TREESERVER_RPC_FAULT_INJECTION_H_
