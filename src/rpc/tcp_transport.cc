#include "rpc/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <random>

#include "common/logging.h"
#include "common/serial.h"
#include "common/trace.h"
#include "rpc/frame.h"

namespace treeserver {

namespace {

/// Reconnect backoff (exponential, with jitter).
constexpr int64_t kConnectBackoffInitialMs = 20;
constexpr int64_t kConnectBackoffMaxMs = 1000;
/// Bound on each peer's outbound buffer; Send() blocks when it is full
/// (backpressure) instead of growing the heap without limit.
constexpr size_t kSendBufferLimitBytes = 64u << 20;

uint8_t WireChannelFor(ChannelKind channel) {
  switch (channel) {
    case ChannelKind::kTask:
      return kWireChannelTask;
    case ChannelKind::kData:
      return kWireChannelData;
    case ChannelKind::kTrace:
      return kWireChannelTrace;
  }
  return kWireChannelTask;
}

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Writes the whole buffer; returns false on any socket error.
bool SendAll(int fd, const std::string& buf) {
  size_t off = 0;
  while (off < buf.size()) {
    ssize_t n = ::send(fd, buf.data() + off, buf.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Reads exactly `len` bytes; returns false on EOF or error.
bool RecvAll(int fd, char* out, size_t len) {
  size_t off = 0;
  while (off < len) {
    ssize_t n = ::recv(fd, out + off, len - off, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // peer closed
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Blocking connect; returns the fd or -1.
int Dial(const std::string& host, uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool ParseHostPort(const std::string& addr, std::string* host,
                   uint16_t* port) {
  size_t colon = addr.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= addr.size()) {
    return false;
  }
  *host = addr.substr(0, colon);
  long p = 0;
  for (size_t i = colon + 1; i < addr.size(); ++i) {
    if (addr[i] < '0' || addr[i] > '9') return false;
    p = p * 10 + (addr[i] - '0');
    if (p > 65535) return false;
  }
  if (p == 0) return false;
  *port = static_cast<uint16_t>(p);
  return true;
}

}  // namespace

TcpTransport::TcpTransport(const TcpTransportOptions& options)
    : Transport(options.num_workers),
      opts_(options),
      local_rank_(options.local_rank),
      fenced_msgs_(MetricsRegistry::Global().GetCounter("engine.fenced_msgs")) {
  TS_CHECK(local_rank_ == kMasterRank ||
           (local_rank_ >= 0 && local_rank_ < num_workers_))
      << "bad local rank " << local_rank_;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  TS_CHECK(listen_fd_ >= 0) << "socket(): " << std::strerror(errno);
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.listen_port);
  TS_CHECK(::inet_pton(AF_INET, opts_.listen_host.c_str(), &addr.sin_addr) ==
           1)
      << "bad listen host " << opts_.listen_host;
  TS_CHECK(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) == 0)
      << "bind(" << opts_.listen_host << ":" << opts_.listen_port
      << "): " << std::strerror(errno);
  TS_CHECK(::listen(listen_fd_, 128) == 0)
      << "listen(): " << std::strerror(errno);
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  TS_CHECK(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                         &len) == 0);
  listen_port_ = ntohs(bound.sin_port);
}

TcpTransport::~TcpTransport() { Shutdown(); }

bool TcpTransport::ValidRemoteRank(int rank) const {
  return (rank == kMasterRank || (rank >= 0 && rank < num_workers_)) &&
         rank != local_rank_;
}

Status TcpTransport::ConnectPeers(const std::vector<std::string>& peers) {
  TS_CHECK(!started_.load()) << "ConnectPeers called twice";
  if (peers.size() != static_cast<size_t>(num_workers_) + 1) {
    return Status::InvalidArgument("peer list must have one address per "
                                   "worker plus the master");
  }
  peers_.resize(num_workers_ + 1);
  for (int i = 0; i <= num_workers_; ++i) {
    int rank = i == num_workers_ ? kMasterRank : i;
    if (rank == local_rank_) continue;
    auto peer = std::make_unique<Peer>();
    peer->rank = rank;
    if (!ParseHostPort(peers[i], &peer->host, &peer->port)) {
      return Status::InvalidArgument("bad peer address: " + peers[i]);
    }
    peers_[i] = std::move(peer);
  }
  started_.store(true);
  for (auto& peer : peers_) {
    if (peer != nullptr) {
      peer->sender = std::thread(&TcpTransport::SenderLoop, this, peer.get());
    }
  }
  listener_ = std::thread(&TcpTransport::ListenLoop, this);
  heartbeat_ = std::thread(&TcpTransport::HeartbeatLoop, this);
  return Status::OK();
}

bool TcpTransport::WaitForPeers(int64_t timeout_ms) {
  const int64_t deadline = NowMs() + timeout_ms;
  while (true) {
    bool ready = true;
    for (auto& peer : peers_) {
      if (peer == nullptr || peer->dead.load()) continue;
      bool out_ok;
      {
        std::lock_guard<std::mutex> lock(peer->mu);
        out_ok = peer->out_fd >= 0;
      }
      if (!out_ok || !peer->ever_connected_in.load()) {
        ready = false;
        break;
      }
    }
    if (ready) return true;
    if (NowMs() >= deadline || shutdown_.load()) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

// ---------------------------------------------------------------------
// Send path.
// ---------------------------------------------------------------------

bool TcpTransport::EnqueueFrame(Peer* peer, std::string bytes, bool control,
                                bool bounded, bool low_priority,
                                uint64_t* wait_micros) {
  std::unique_lock<std::mutex> lock(peer->mu);
  if (bounded) {
    const uint64_t start = NowMicros();
    peer->cv.wait(lock, [&] {
      return peer->sendq_bytes + bytes.size() <= kSendBufferLimitBytes ||
             peer->dead.load() || shutdown_.load();
    });
    if (wait_micros != nullptr) *wait_micros = NowMicros() - start;
  }
  if (peer->dead.load() || shutdown_.load()) return false;
  peer->sendq_bytes += bytes.size();
  if (peer->sendq_bytes > peer->sendq_hwm) {
    peer->sendq_hwm = peer->sendq_bytes;
  }
  (low_priority ? peer->sendq_low : peer->sendq)
      .push_back(OutFrame{std::move(bytes), control});
  lock.unlock();
  peer->cv.notify_all();
  return true;
}

bool TcpTransport::Send(ChannelKind channel, Message msg) {
  TS_CHECK(msg.dst == kMasterRank ||
           (msg.dst >= 0 && msg.dst < num_workers_))
      << "bad destination " << msg.dst;
  if (IsCrashed(msg.src)) {
    CountDrop(msg.src);
    return false;
  }
  if (IsCrashed(msg.dst)) {
    CountDrop(msg.dst);
    return false;
  }
  if (msg.dst == local_rank_) {
    // Self-delivery (e.g. the master's own crash notices) is free,
    // mirroring the in-process transport's local fast path.
    RouteInbound(std::move(msg), WireChannelFor(channel));
    return true;
  }
  TS_CHECK(started_.load()) << "Send before ConnectPeers";
  Peer* peer = PeerFor(msg.dst);
  std::string buf;
  buf.reserve(kFrameHeaderBytes + msg.payload.size());
  AppendFrame(WireChannelFor(channel), msg, &buf, opts_.generation);
  uint64_t waited = 0;
  const bool ok =
      EnqueueFrame(peer, std::move(buf), /*control=*/false,
                   /*bounded=*/true,
                   /*low_priority=*/channel == ChannelKind::kTrace, &waited);
  AccountSendMicros(channel, waited);
  if (!ok) {
    CountDrop(msg.dst);
    return false;
  }
  AccountSendLocal(channel, msg.src, msg.payload.size());
  return true;
}

void TcpTransport::SenderLoop(Peer* peer) {
  int64_t backoff = kConnectBackoffInitialMs;
  std::minstd_rand rng(static_cast<unsigned>(peer->port) * 2654435761u +
                       static_cast<unsigned>(peer->rank + 2));
  while (!peer->dead.load()) {
    int fd;
    {
      std::lock_guard<std::mutex> lock(peer->mu);
      if (shutdown_.load() && peer->sendq.empty() && peer->sendq_low.empty()) {
        break;
      }
      fd = peer->out_fd;
    }
    if (fd < 0) {
      if (shutdown_.load()) break;  // no dialing during shutdown
      fd = Dial(peer->host, peer->port);
      if (fd < 0) {
        // Exponential backoff with jitter so a restarted cluster does
        // not reconnect in lockstep.
        int64_t jitter = backoff > 1
                             ? static_cast<int64_t>(rng() % (backoff / 2 + 1))
                             : 0;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(backoff + jitter));
        backoff = std::min(backoff * 2, kConnectBackoffMaxMs);
        continue;
      }
      BinaryWriter hello;
      hello.Write<int32_t>(local_rank_);
      hello.Write<uint32_t>(opts_.generation);
      std::string frame;
      AppendControlFrame(kCtrlHello, local_rank_, peer->rank, hello.buffer(),
                         &frame, opts_.generation);
      if (!SendAll(fd, frame)) {
        ::close(fd);
        continue;
      }
      backoff = kConnectBackoffInitialMs;
      {
        std::lock_guard<std::mutex> lock(peer->mu);
        if (peer->ever_connected_out) peer->reconnects.fetch_add(1);
        peer->ever_connected_out = true;
        peer->out_fd = fd;
      }
    }
    OutFrame frame;
    bool from_low = false;
    {
      std::unique_lock<std::mutex> lock(peer->mu);
      peer->cv.wait(lock, [&] {
        return shutdown_.load() || peer->dead.load() ||
               !peer->sendq.empty() || !peer->sendq_low.empty();
      });
      // Strict priority: the low lane (trace snapshots) only drains
      // when no engine frame is waiting.
      std::deque<OutFrame>* q =
          !peer->sendq.empty() ? &peer->sendq
                               : (!peer->sendq_low.empty() ? &peer->sendq_low
                                                           : nullptr);
      if (q == nullptr) continue;  // shutdown/dead: re-check loop
      from_low = q == &peer->sendq_low;
      frame = std::move(q->front());
      q->pop_front();
      peer->sendq_bytes -= frame.bytes.size();
    }
    peer->cv.notify_all();  // wake producers blocked on the bound
    if (!SendAll(fd, frame.bytes)) {
      // Connection broke: requeue the frame (frames are atomic — the
      // receiver discards the partial tail with the dead socket) and
      // redial.
      std::lock_guard<std::mutex> lock(peer->mu);
      peer->out_fd = -1;
      ::close(fd);
      peer->sendq_bytes += frame.bytes.size();
      (from_low ? peer->sendq_low : peer->sendq).push_front(std::move(frame));
    }
  }
  std::lock_guard<std::mutex> lock(peer->mu);
  if (peer->out_fd >= 0) {
    ::close(peer->out_fd);
    peer->out_fd = -1;
  }
}

// ---------------------------------------------------------------------
// Receive path.
// ---------------------------------------------------------------------

void TcpTransport::ListenLoop() {
  // Local copy: Shutdown() ::shutdown()s the socket to wake accept()
  // but only closes and clears the member after joining this thread.
  const int listen_fd = listen_fd_;
  while (!shutdown_.load()) {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket closed (shutdown)
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (shutdown_.load()) {
      ::close(fd);
      break;
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    Conn* raw = conn.get();
    conn->reader = std::thread(&TcpTransport::ReadLoop, this, raw);
    conns_.push_back(std::move(conn));
  }
}

void TcpTransport::RouteInbound(Message msg, uint8_t wire_channel) {
  // Mirrors the in-process transport: the master has one mailbox for
  // every channel; workers split task and data traffic, with trace
  // requests riding the task queue (θ_main dispatches by MsgType).
  BlockingQueue<Message>* queue;
  if (msg.dst == kMasterRank) {
    queue = &local_master_;
  } else if (wire_channel == kWireChannelData) {
    queue = &local_data_;
  } else {
    queue = &local_task_;
  }
  if (!queue->Push(std::move(msg))) {
    CountDrop(local_rank_);
  }
}

void TcpTransport::ReadLoop(Conn* conn) {
  int src_rank = kNoRank;
  char header[kFrameHeaderBytes];
  std::string payload;
  while (!shutdown_.load()) {
    if (!RecvAll(conn->fd, header, kFrameHeaderBytes)) break;
    FrameHeader h;
    if (Status st = ParseFrameHeader(header, sizeof(header), &h); !st.ok()) {
      // A corrupt header desynchronizes the stream: drop the whole
      // connection (the peer redials) rather than guess at a resync.
      TS_LOG(kError) << "rpc: closing connection: " << st.ToString();
      break;
    }
    payload.resize(h.payload_len);
    if (h.payload_len > 0 && !RecvAll(conn->fd, payload.data(), h.payload_len)) {
      break;
    }
    if (Status st = VerifyFramePayload(h, payload.data(), payload.size());
        !st.ok()) {
      TS_LOG(kError) << "rpc: closing connection: " << st.ToString();
      break;
    }
    if (src_rank == kNoRank) {
      // Handshake: the first frame must be a hello naming the dialer.
      BinaryReader r(payload);
      int32_t rank = 0;
      if (h.channel != kWireChannelControl || h.msg_type != kCtrlHello ||
          !r.Read(&rank).ok() || !ValidRemoteRank(rank)) {
        TS_LOG(kError) << "rpc: connection did not open with a valid hello";
        break;
      }
      src_rank = rank;
      conn->rank.store(rank);
      Peer* peer = PeerFor(rank);
      if (h.src_generation > peer->generation.load(std::memory_order_relaxed)) {
        peer->generation.store(h.src_generation, std::memory_order_relaxed);
      }
      peer->last_heard_ms.store(NowMs());
      peer->ever_connected_in.store(true);
      continue;
    }
    if (h.src != src_rank) {
      TS_LOG(kError) << "rpc: frame src " << h.src
                     << " does not match connection rank " << src_rank;
      break;
    }
    Peer* src_peer = PeerFor(src_rank);
    {
      // Fencing: a frame announcing an older epoch than the highest we
      // have seen is a straggler from the peer's previous incarnation
      // (e.g. surfacing after a partition heals) — drop it without even
      // refreshing liveness, so a zombie cannot keep its rank "alive".
      const uint16_t known = src_peer->generation.load(std::memory_order_relaxed);
      if (h.src_generation > known) {
        src_peer->generation.store(h.src_generation, std::memory_order_relaxed);
      } else if (h.src_generation < known) {
        fenced_msgs_->Inc();
        CountDrop(src_rank);
        continue;
      }
    }
    if (src_peer->dead.load(std::memory_order_relaxed) &&
        h.channel != kWireChannelControl) {
      // The peer was already declared dead (the engine has been told);
      // late engine frames from it must not reach the mailboxes.
      fenced_msgs_->Inc();
      CountDrop(src_rank);
      continue;
    }
    src_peer->last_heard_ms.store(NowMs());
    if (h.channel == kWireChannelControl) {
      if (h.msg_type == kCtrlHeartbeat && payload.size() >= 3 * sizeof(uint64_t)) {
        // Heartbeat with clock-sync payload: remember the peer's send
        // stamp for echoing, and fold the exchange into the NTP-style
        // offset estimate. Empty payloads (old format) just keep-alive.
        Peer* peer = PeerFor(src_rank);
        BinaryReader r(payload);
        uint64_t t_send = 0, echo = 0, echo_elapsed = 0;
        if (r.Read(&t_send).ok() && r.Read(&echo).ok() &&
            r.Read(&echo_elapsed).ok()) {
          const uint64_t now_ns = Tracer::Global().NowNs();
          peer->last_hb_peer_ts.store(t_send, std::memory_order_relaxed);
          peer->last_hb_rx_ns.store(now_ns, std::memory_order_relaxed);
          ClockSample sample;
          if (ComputeClockSample(t_send, echo, echo_elapsed, now_ns,
                                 &sample)) {
            // One inbound connection (and thus one reader) per peer, so
            // the estimator needs no lock; results publish via atomics.
            peer->clock_estimator.AddSample(sample);
            peer->clock_offset_ns.store(peer->clock_estimator.offset_ns(),
                                        std::memory_order_relaxed);
            peer->clock_min_rtt_ns.store(peer->clock_estimator.min_rtt_ns(),
                                         std::memory_order_relaxed);
            peer->has_clock_offset.store(true, std::memory_order_release);
          }
        }
      }
      continue;
    }
    if (h.dst != local_rank_) {
      TS_LOG(kError) << "rpc: dropping misrouted frame for rank " << h.dst;
      continue;
    }
    Message msg;
    msg.src = h.src;
    msg.dst = h.dst;
    msg.type = h.msg_type;
    msg.trace_id = h.trace_id;
    msg.payload = std::move(payload);
    payload.clear();
    AccountRecvLocal(local_rank_, msg.payload.size());
    RouteInbound(std::move(msg), h.channel);
  }
  // The fd is shut down here but closed in Shutdown(), after the
  // thread is joined: nobody can ::shutdown a recycled descriptor.
  ::shutdown(conn->fd, SHUT_RDWR);
}

// ---------------------------------------------------------------------
// Liveness.
// ---------------------------------------------------------------------

void TcpTransport::HeartbeatLoop() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(hb_mu_);
      hb_cv_.wait_for(lock,
                      std::chrono::milliseconds(opts_.heartbeat_period_ms),
                      [&] { return shutdown_.load(); });
    }
    if (shutdown_.load()) return;
    const int64_t now = NowMs();
    for (auto& peer : peers_) {
      if (peer == nullptr || peer->dead.load()) continue;
      // Clock-sync payload: our trace-clock now, the peer's last
      // heartbeat stamp, and how long ago it arrived (both zero until
      // the first one does).
      const uint64_t echo =
          peer->last_hb_peer_ts.load(std::memory_order_relaxed);
      const uint64_t rx_ns =
          peer->last_hb_rx_ns.load(std::memory_order_relaxed);
      const uint64_t now_ns = Tracer::Global().NowNs();
      BinaryWriter hb;
      hb.Write<uint64_t>(now_ns);
      hb.Write<uint64_t>(echo);
      hb.Write<uint64_t>(echo == 0 || now_ns < rx_ns ? 0 : now_ns - rx_ns);
      std::string frame;
      AppendControlFrame(kCtrlHeartbeat, local_rank_, peer->rank, hb.buffer(),
                         &frame, opts_.generation);
      // Heartbeats bypass the send bound: 64 bytes each, and blocking
      // the monitor on a backpressured peer would blind it.
      EnqueueFrame(peer.get(), std::move(frame), /*control=*/true,
                   /*bounded=*/false, /*low_priority=*/false, nullptr);
      if (!peer->ever_connected_in.load()) continue;  // startup grace
      if (now - peer->last_heard_ms.load() > opts_.heartbeat_period_ms) {
        peer->heartbeat_misses.fetch_add(1);
        if (++peer->consecutive_misses >= opts_.heartbeat_miss_limit) {
          TS_LOG(kWarn) << "rpc: peer " << peer->rank << " missed "
                        << peer->consecutive_misses
                        << " heartbeats, declaring dead";
          DeclareDead(peer.get(), /*notify=*/true);
        }
      } else {
        peer->consecutive_misses = 0;
      }
    }
  }
}

void TcpTransport::DeclareDead(Peer* peer, bool notify) {
  if (peer->dead.exchange(true)) return;
  size_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(peer->mu);
    for (const OutFrame& f : peer->sendq) {
      if (!f.control) ++dropped;
    }
    dropped += peer->sendq_low.size();
    peer->sendq.clear();
    peer->sendq_low.clear();
    peer->sendq_bytes = 0;
    if (peer->out_fd >= 0) {
      ::shutdown(peer->out_fd, SHUT_RDWR);  // sender owns the close
    }
  }
  for (size_t i = 0; i < dropped; ++i) CountDrop(peer->rank);
  peer->cv.notify_all();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& conn : conns_) {
      if (conn->rank.load() == peer->rank) {
        ::shutdown(conn->fd, SHUT_RDWR);
      }
    }
  }
  MarkCrashed(peer->rank);
  if (notify && on_peer_dead_) on_peer_dead_(peer->rank);
}

// ---------------------------------------------------------------------
// Queues, crash injection, shutdown.
// ---------------------------------------------------------------------

BlockingQueue<Message>& TcpTransport::task_queue(int worker) {
  TS_CHECK(worker == local_rank_)
      << "rank " << local_rank_ << " asked for worker " << worker
      << "'s task queue";
  return local_task_;
}

BlockingQueue<Message>& TcpTransport::data_queue(int worker) {
  TS_CHECK(worker == local_rank_)
      << "rank " << local_rank_ << " asked for worker " << worker
      << "'s data queue";
  return local_data_;
}

BlockingQueue<Message>& TcpTransport::master_queue() {
  TS_CHECK(local_rank_ == kMasterRank)
      << "rank " << local_rank_ << " asked for the master queue";
  return local_master_;
}

void TcpTransport::SetCrashed(int worker) {
  if (worker == local_rank_) {
    MarkCrashed(worker);
    CloseAll();
    return;
  }
  if (started_.load()) {
    DeclareDead(PeerFor(worker), /*notify=*/false);
  } else {
    MarkCrashed(worker);
  }
}

void TcpTransport::CloseAll() {
  local_task_.Close();
  local_data_.Close();
  local_master_.Close();
}

void TcpTransport::Shutdown() {
  if (shutdown_.exchange(true)) {
    // Second caller (e.g. the destructor) must still not return while
    // threads are alive; joins below are idempotent via joinable().
  }
  hb_cv_.notify_all();
  if (heartbeat_.joinable()) heartbeat_.join();
  // Senders flush whatever is queued on a live connection, then exit.
  for (auto& peer : peers_) {
    if (peer != nullptr) peer->cv.notify_all();
  }
  for (auto& peer : peers_) {
    if (peer != nullptr && peer->sender.joinable()) peer->sender.join();
  }
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);  // wakes the blocked accept()
  }
  if (listener_.joinable()) listener_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& conn : conns_) {
      ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  for (auto& conn : conns_) {
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->fd >= 0) {
      ::close(conn->fd);
      conn->fd = -1;
    }
  }
  CloseAll();
}

bool TcpTransport::PeerClockOffset(int rank, int64_t* offset_ns,
                                   int64_t* rtt_ns) const {
  if (!started_.load() || rank == local_rank_) return false;
  const Peer* peer = peers_[Index(rank)].get();
  if (peer == nullptr ||
      !peer->has_clock_offset.load(std::memory_order_acquire)) {
    return false;
  }
  *offset_ns = peer->clock_offset_ns.load(std::memory_order_relaxed);
  if (rtt_ns != nullptr) {
    *rtt_ns = peer->clock_min_rtt_ns.load(std::memory_order_relaxed);
  }
  return true;
}

NetworkStats TcpTransport::GetStats() const {
  NetworkStats stats = Transport::GetStats();
  for (const auto& peer : peers_) {
    if (peer == nullptr) continue;
    NetworkStats::Endpoint& ep = stats.endpoints[Index(peer->rank)];
    ep.reconnects = peer->reconnects.load();
    ep.heartbeat_misses = peer->heartbeat_misses.load();
    std::lock_guard<std::mutex> lock(peer->mu);
    ep.send_buffer_hwm = peer->sendq_hwm;
  }
  return stats;
}

}  // namespace treeserver
