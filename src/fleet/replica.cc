#include "fleet/replica.h"

#include <algorithm>
#include <future>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "common/trace.h"
#include "engine/messages.h"

namespace treeserver {

FleetReplica::FleetReplica(Transport* transport, FleetReplicaConfig config)
    : transport_(transport),
      config_(config),
      metrics_(config.metrics != nullptr ? *config.metrics
                                         : MetricsRegistry::Global()),
      predicts_(metrics_.GetCounter("fleet.replica.predicts")),
      corrupt_(metrics_.GetCounter("fleet.replica.corrupt")),
      dup_admin_(metrics_.GetCounter("fleet.replica.dup_admin")) {
  InferenceServerConfig serve = config_.serve;
  if (serve.metrics == nullptr) serve.metrics = &metrics_;
  server_ = std::make_unique<InferenceServer>(&registry_, serve);
}

FleetReplica::~FleetReplica() { Stop(); }

void FleetReplica::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_ || stopped_) return;
  started_ = true;
  server_->Start();
  const int handlers = std::max(1, config_.handler_threads);
  handlers_.reserve(handlers);
  for (int i = 0; i < handlers; ++i) {
    handlers_.emplace_back(&FleetReplica::HandlerLoop, this);
  }
}

void FleetReplica::Stop() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  // Closing the mailbox unblocks every handler's Pop.
  transport_->task_queue(config_.rank).Close();
  Wait();
  server_->Stop();
}

void FleetReplica::Wait() {
  for (auto& t : handlers_) {
    if (t.joinable()) t.join();
  }
}

void FleetReplica::HandlerLoop() {
  BlockingQueue<Message>& queue = transport_->task_queue(config_.rank);
  while (true) {
    std::optional<Message> msg = queue.Pop();
    if (!msg.has_value()) return;
    if (!Handle(*msg)) {
      // kShutdown: close the mailbox so sibling handlers exit too.
      queue.Close();
      return;
    }
  }
}

bool FleetReplica::Handle(const Message& msg) {
  switch (static_cast<FleetMsg>(msg.type)) {
    case FleetMsg::kPredict:
      HandlePredict(msg);
      return true;
    case FleetMsg::kPush:
      HandlePush(msg);
      return true;
    case FleetMsg::kRollback:
      HandleRollback(msg);
      return true;
    case FleetMsg::kHealthPing:
      HandleHealthPing(msg);
      return true;
    case FleetMsg::kTraceRequest:
      HandleTraceRequest();
      return true;
    case FleetMsg::kShutdown:
      return false;
    default:
      TS_LOG(kWarn) << "fleet replica " << config_.rank
                       << ": unknown message type " << msg.type;
      return true;
  }
}

void FleetReplica::SendToRouter(ChannelKind channel, uint32_t type,
                                std::string payload) {
  Message out;
  out.src = config_.rank;
  out.dst = kMasterRank;
  out.type = type;
  out.payload = std::move(payload);
  transport_->Send(channel, std::move(out));
}

void FleetReplica::HandlePredict(const Message& msg) {
  FleetPredictMsg req;
  if (Status st = FleetPredictMsg::Decode(msg.payload, &req); !st.ok()) {
    corrupt_->Inc();
    return;  // the router retransmits
  }
  predicts_->Inc();

  FleetPredictReplyMsg reply;
  reply.request_id = req.request_id;
  reply.replica = config_.rank;

  Result<std::shared_ptr<const DataTable>> table = req.ToTable();
  if (!table.ok()) {
    reply.status_code = static_cast<uint8_t>(table.status().code());
    reply.error = table.status().message();
    SendToRouter(ChannelKind::kTask,
                 static_cast<uint32_t>(FleetMsg::kPredictReply),
                 reply.Encode());
    return;
  }

  std::vector<std::future<Result<Prediction>>> futures;
  futures.reserve(req.num_rows);
  for (uint32_t row = 0; row < req.num_rows; ++row) {
    PredictRequest p;
    p.model = req.model;
    p.table = *table;
    p.row = row;
    futures.push_back(server_->Predict(std::move(p)));
  }

  const bool classification =
      static_cast<TaskKind>(req.task_kind) == TaskKind::kClassification;
  for (auto& f : futures) {
    Result<Prediction> pred = f.get();
    if (!pred.ok()) {
      // All-or-nothing: the router retries retryable codes elsewhere.
      reply.status_code = static_cast<uint8_t>(pred.status().code());
      reply.error = pred.status().message();
      reply.labels.clear();
      reply.values.clear();
      break;
    }
    reply.version = pred->model_version;
    if (classification) {
      reply.labels.push_back(pred->label);
    } else {
      reply.values.push_back(pred->value);
    }
  }
  SendToRouter(ChannelKind::kTask,
               static_cast<uint32_t>(FleetMsg::kPredictReply), reply.Encode());
}

void FleetReplica::HandlePush(const Message& msg) {
  FleetPushMsg req;
  if (Status st = FleetPushMsg::Decode(msg.payload, &req); !st.ok()) {
    corrupt_->Inc();
    return;
  }

  {
    std::lock_guard<std::mutex> lock(admin_mu_);
    auto it = admin_replies_.find(req.op_id);
    if (it != admin_replies_.end()) {
      // Retransmitted op: replay the recorded reply, don't re-apply.
      dup_admin_->Inc();
      SendToRouter(ChannelKind::kTask, it->second.first,
                   it->second.second);
      return;
    }
  }

  FleetAdminReplyMsg reply;
  reply.op_id = req.op_id;
  reply.replica = config_.rank;

  ForestModel model;
  BinaryReader r(req.model_bytes);
  Status st = ForestModel::Deserialize(&r, &model);
  if (st.ok()) {
    Result<uint32_t> version = registry_.Publish(req.model, std::move(model));
    if (version.ok()) {
      reply.version = *version;
    } else {
      st = version.status();
    }
  }
  if (!st.ok()) {
    reply.status_code = static_cast<uint8_t>(st.code());
    reply.error = st.message();
  }

  const std::string payload = reply.Encode();
  {
    std::lock_guard<std::mutex> lock(admin_mu_);
    admin_replies_[req.op_id] = {
        static_cast<uint32_t>(FleetMsg::kPushReply), payload};
  }
  SendToRouter(ChannelKind::kTask, static_cast<uint32_t>(FleetMsg::kPushReply),
               payload);
}

void FleetReplica::HandleRollback(const Message& msg) {
  FleetRollbackMsg req;
  if (Status st = FleetRollbackMsg::Decode(msg.payload, &req); !st.ok()) {
    corrupt_->Inc();
    return;
  }

  {
    std::lock_guard<std::mutex> lock(admin_mu_);
    auto it = admin_replies_.find(req.op_id);
    if (it != admin_replies_.end()) {
      dup_admin_->Inc();
      SendToRouter(ChannelKind::kTask, it->second.first, it->second.second);
      return;
    }
  }

  FleetAdminReplyMsg reply;
  reply.op_id = req.op_id;
  reply.replica = config_.rank;
  Result<uint32_t> version = registry_.Rollback(req.model);
  if (version.ok()) {
    reply.version = *version;
  } else {
    reply.status_code = static_cast<uint8_t>(version.status().code());
    reply.error = version.status().message();
  }

  const std::string payload = reply.Encode();
  {
    std::lock_guard<std::mutex> lock(admin_mu_);
    admin_replies_[req.op_id] = {
        static_cast<uint32_t>(FleetMsg::kRollbackReply), payload};
  }
  SendToRouter(ChannelKind::kTask,
               static_cast<uint32_t>(FleetMsg::kRollbackReply), payload);
}

void FleetReplica::HandleHealthPing(const Message& msg) {
  FleetHealthPingMsg ping;
  if (Status st = FleetHealthPingMsg::Decode(msg.payload, &ping); !st.ok()) {
    corrupt_->Inc();
    return;
  }
  FleetHealthPongMsg pong;
  pong.nonce = ping.nonce;
  pong.replica = config_.rank;
  const InferenceServer::Stats stats = server_->GetStats();
  pong.queue_depth = stats.queue_depth;
  pong.requests = stats.requests;
  pong.batches = stats.batches;
  pong.rejected = stats.rejected;
  for (const auto& m : registry_.StatusSnapshot()) {
    FleetHealthPongMsg::ModelVersion mv;
    mv.name = m.name;
    mv.version = m.version;
    mv.num_versions = static_cast<uint32_t>(m.num_versions);
    pong.models.push_back(std::move(mv));
  }
  SendToRouter(ChannelKind::kTask,
               static_cast<uint32_t>(FleetMsg::kHealthPong), pong.Encode());
}

void FleetReplica::HandleTraceRequest() {
  TraceSnapshotMsg snap;
  snap.worker = config_.rank;
  snap.dropped = Tracer::Global().dropped_spans();
  snap.events = Tracer::Global().SnapshotEvents();
  SendToRouter(ChannelKind::kTrace,
               static_cast<uint32_t>(FleetMsg::kTraceReply), snap.Encode());
}

}  // namespace treeserver
