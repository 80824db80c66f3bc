#ifndef TREESERVER_RPC_TCP_TRANSPORT_H_
#define TREESERVER_RPC_TCP_TRANSPORT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock_sync.h"
#include "common/metrics_registry.h"
#include "common/status.h"
#include "rpc/transport.h"

namespace treeserver {

struct TcpTransportOptions {
  int num_workers = 1;
  /// The single rank this process hosts (kMasterRank or a worker id).
  int local_rank = kMasterRank;
  std::string listen_host = "127.0.0.1";
  /// 0 = pick an ephemeral port (read it back via local_port()).
  uint16_t listen_port = 0;
  /// Heartbeat cadence; a peer is declared dead after
  /// heartbeat_miss_limit consecutive silent periods.
  int64_t heartbeat_period_ms = 50;
  int heartbeat_miss_limit = 20;
  /// Fencing epoch stamped into every outgoing frame (rpc/frame.h). A
  /// restarted process announces a bumped value; receivers drop frames
  /// carrying an older generation ("zombies" from the previous
  /// incarnation surfacing after a partition heals).
  uint16_t generation = 0;
};

/// Real-socket Transport: one process per rank, length-prefixed CRC'd
/// frames (rpc/frame.h) over TCP.
///
/// Threads: one listener (accepts), one reader per inbound connection,
/// one sender per remote peer (owns dialing, handshake and backoff),
/// and one heartbeat monitor. Each ordered pair of ranks uses one
/// socket, established by the sending side; the first frame on every
/// connection is a kCtrlHello naming the dialer's rank, and every
/// later frame must carry that rank as src.
///
/// Liveness: any frame (data or heartbeat) refreshes the peer's
/// last-heard clock; after `heartbeat_miss_limit` consecutive silent
/// periods the peer is declared dead — its send buffer is dropped,
/// blocked Send() calls return false, and the dead-peer callback fires
/// exactly once (the master wires it to Master::OnWorkerCrash).
///
/// Lifecycle: construct (binds the listen socket), SetPeerDeadCallback,
/// ConnectPeers (starts all threads), WaitForPeers, ... run ...,
/// Shutdown (flushes send buffers, closes sockets, joins threads).
class TcpTransport : public Transport {
 public:
  explicit TcpTransport(const TcpTransportOptions& options);
  ~TcpTransport() override;

  /// The port the listen socket is bound to (useful with port 0).
  uint16_t local_port() const { return listen_port_; }
  int local_rank() const { return local_rank_; }

  /// Invoked (from the heartbeat thread, once per peer) when a peer is
  /// declared dead. Must be set before ConnectPeers.
  void SetPeerDeadCallback(std::function<void(int rank)> callback) {
    on_peer_dead_ = std::move(callback);
  }

  /// Starts the cluster threads. `peers` holds "host:port" addresses,
  /// indexed workers 0..n-1 followed by the master; the local rank's
  /// own entry is ignored.
  Status ConnectPeers(const std::vector<std::string>& peers);

  /// Blocks until every live remote peer is connected both ways (our
  /// dial succeeded and its hello arrived). Returns false on timeout.
  bool WaitForPeers(int64_t timeout_ms);

  /// Flushes pending sends, closes every socket and joins all threads.
  /// Idempotent; also invoked by the destructor.
  void Shutdown();

  bool Send(ChannelKind channel, Message msg) override;

  BlockingQueue<Message>& task_queue(int worker) override;
  BlockingQueue<Message>& data_queue(int worker) override;
  BlockingQueue<Message>& master_queue() override;

  void SetCrashed(int worker) override;
  void CloseAll() override;

  NetworkStats GetStats() const override;

  /// NTP-style clock-offset estimate for a remote peer, derived from
  /// heartbeat RTTs: `offset_ns` receives (peer trace clock - local
  /// trace clock) of the minimum-RTT sample, `rtt_ns` that RTT.
  /// Returns false while no sample exists (peer never heartbeated, or
  /// it speaks the pre-offset heartbeat format).
  bool PeerClockOffset(int rank, int64_t* offset_ns,
                       int64_t* rtt_ns = nullptr) const;

 private:
  struct OutFrame {
    std::string bytes;
    bool control = false;
  };

  /// Per-remote-peer connection state. The sender thread owns dialing
  /// and writing; out_fd transitions are made under `mu` so the
  /// monitor can safely ::shutdown() a socket the sender is blocked
  /// on.
  struct Peer {
    int rank = 0;
    std::string host;
    uint16_t port = 0;

    std::mutex mu;
    std::condition_variable cv;
    std::deque<OutFrame> sendq;
    /// Low-priority lane (trace snapshots): drained only when sendq is
    /// empty, so observability traffic never delays engine messages.
    std::deque<OutFrame> sendq_low;
    size_t sendq_bytes = 0;  // covers both lanes (one shared bound)
    uint64_t sendq_hwm = 0;
    int out_fd = -1;               // guarded by mu
    bool ever_connected_out = false;  // guarded by mu

    std::atomic<uint64_t> reconnects{0};
    std::atomic<bool> ever_connected_in{false};
    std::atomic<int64_t> last_heard_ms{0};
    std::atomic<uint64_t> heartbeat_misses{0};
    int consecutive_misses = 0;  // heartbeat thread only
    std::atomic<bool> dead{false};
    /// Highest fencing epoch seen from this peer; frames announcing an
    /// older one are counted and dropped (see ReadLoop).
    std::atomic<uint16_t> generation{0};

    /// Clock-sync state. The reader thread stamps the peer's last
    /// heartbeat (its t_send, and our trace clock at arrival) for the
    /// echo in our next outbound heartbeat, and publishes the
    /// min-RTT offset estimate; estimator itself is reader-thread-only.
    std::atomic<uint64_t> last_hb_peer_ts{0};
    std::atomic<uint64_t> last_hb_rx_ns{0};
    std::atomic<bool> has_clock_offset{false};
    std::atomic<int64_t> clock_offset_ns{0};
    std::atomic<int64_t> clock_min_rtt_ns{0};
    ClockOffsetEstimator clock_estimator;  // reader thread only

    std::thread sender;
  };

  /// One accepted inbound connection; fds stay open (shut down but not
  /// closed) until Shutdown so a racing ::shutdown can never hit a
  /// recycled descriptor.
  struct Conn {
    int fd = -1;
    std::atomic<int> rank{kNoRank};  // set once the hello arrives
    std::thread reader;
  };

  static constexpr int kNoRank = -2;

  Peer* PeerFor(int rank) { return peers_[Index(rank)].get(); }
  bool ValidRemoteRank(int rank) const;

  void SenderLoop(Peer* peer);
  void ListenLoop();
  void ReadLoop(Conn* conn);
  void HeartbeatLoop();

  /// Appends a frame to the peer's send buffer. Bounded pushes block
  /// until space frees up; returns false if the peer died or the
  /// transport shut down first. `wait_micros` (optional) receives the
  /// backpressure stall.
  bool EnqueueFrame(Peer* peer, std::string bytes, bool control, bool bounded,
                    bool low_priority, uint64_t* wait_micros);
  /// Marks a peer dead: drops its send buffer (counted), wakes blocked
  /// senders, tears the sockets down, and optionally fires the
  /// dead-peer callback.
  void DeclareDead(Peer* peer, bool notify);
  void RouteInbound(Message msg, uint8_t wire_channel);

  const TcpTransportOptions opts_;
  const int local_rank_;
  /// "engine.fenced_msgs": frames dropped because their sender was
  /// already declared dead or announced a stale fencing epoch.
  Counter* const fenced_msgs_;
  uint16_t listen_port_ = 0;
  int listen_fd_ = -1;

  std::function<void(int)> on_peer_dead_;
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> started_{false};

  /// Indexed like the endpoint counters (workers 0..n-1, master last);
  /// the local rank's slot is null.
  std::vector<std::unique_ptr<Peer>> peers_;

  std::mutex conns_mu_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::thread listener_;

  std::mutex hb_mu_;
  std::condition_variable hb_cv_;
  std::thread heartbeat_;

  // Local mailboxes (only the local rank's are ever handed out).
  BlockingQueue<Message> local_task_;
  BlockingQueue<Message> local_data_;
  BlockingQueue<Message> local_master_;
};

}  // namespace treeserver

#endif  // TREESERVER_RPC_TCP_TRANSPORT_H_
