#include "common/trace_merge.h"

#include <algorithm>
#include <chrono>

#include "common/json.h"
#include "common/logging.h"

namespace treeserver {

namespace {

/// Cap mirroring kMaxFramePayload: a corrupt count must fail cleanly,
/// not attempt a giant allocation.
constexpr uint64_t kMaxSnapshotEvents = 64u << 20;

/// Emits the 'M' metadata event naming a process lane.
void AppendProcessNameEvent(int pid, const std::string& label,
                            std::string* out) {
  *out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
  *out += std::to_string(pid);
  *out += ",\"tid\":0,\"args\":{\"name\":";
  AppendJsonString(out, label);
  *out += "}}";
}

}  // namespace

void SerializeTraceEvents(const std::vector<TraceEventCopy>& events,
                          BinaryWriter* w) {
  w->Write<uint64_t>(events.size());
  for (const TraceEventCopy& e : events) {
    w->WriteString(e.name);
    w->Write<uint8_t>(static_cast<uint8_t>(e.cat));
    w->Write<char>(e.phase);
    w->Write<int32_t>(e.tid);
    w->Write<uint64_t>(e.ts_ns);
    w->Write<uint64_t>(e.dur_ns);
    w->Write<uint64_t>(e.id);
    w->WriteString(e.arg_name);
    w->Write<int64_t>(e.arg);
  }
}

Status DeserializeTraceEvents(BinaryReader* r,
                              std::vector<TraceEventCopy>* out) {
  uint64_t n = 0;
  TS_RETURN_IF_ERROR(r->Read(&n));
  if (n > kMaxSnapshotEvents) {
    return Status::Corruption("trace snapshot: absurd event count");
  }
  out->clear();
  out->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    TraceEventCopy e;
    uint8_t cat = 0;
    TS_RETURN_IF_ERROR(r->ReadString(&e.name));
    TS_RETURN_IF_ERROR(r->Read(&cat));
    TS_RETURN_IF_ERROR(r->Read(&e.phase));
    TS_RETURN_IF_ERROR(r->Read(&e.tid));
    TS_RETURN_IF_ERROR(r->Read(&e.ts_ns));
    TS_RETURN_IF_ERROR(r->Read(&e.dur_ns));
    TS_RETURN_IF_ERROR(r->Read(&e.id));
    TS_RETURN_IF_ERROR(r->ReadString(&e.arg_name));
    TS_RETURN_IF_ERROR(r->Read(&e.arg));
    e.cat = static_cast<TraceCat>(cat);
    out->push_back(std::move(e));
  }
  return Status::OK();
}

std::string MergedChromeTraceJson(const std::vector<RankTrace>& ranks) {
  size_t total = 0;
  for (const RankTrace& rt : ranks) total += rt.events.size();
  std::string out;
  out.reserve(total * 128 + ranks.size() * 96 + 64);
  out += "{\"traceEvents\":[";
  bool first = true;
  for (const RankTrace& rt : ranks) {
    const int pid = TracePidForRank(rt.rank);
    if (!first) out += ",";
    first = false;
    AppendProcessNameEvent(pid, rt.label, &out);
    for (const TraceEventCopy& e : rt.events) {
      out += ",";
      // Rebase the remote clock into the merging rank's:
      // local_ts = remote_ts - (remote - local).
      AppendChromeEventJson(e, pid, -rt.clock_offset_ns, &out);
    }
  }
  out += "]}";
  return out;
}

Status TraceCollector::Open(const std::vector<int32_t>& ranks) {
  std::lock_guard<std::mutex> lock(mu_);
  if (open_) {
    return Status::FailedPrecondition("trace collection already running");
  }
  open_ = true;
  expected_ = std::set<int32_t>(ranks.begin(), ranks.end());
  lanes_.clear();
  return Status::OK();
}

void TraceCollector::Add(RankTrace lane) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!open_ || expected_.erase(lane.rank) == 0) return;
  lanes_.push_back(std::move(lane));
  if (expected_.empty()) cv_.notify_all();
}

void TraceCollector::Forget(int32_t rank) {
  std::lock_guard<std::mutex> lock(mu_);
  if (open_ && expected_.erase(rank) > 0 && expected_.empty()) {
    cv_.notify_all();
  }
}

void TraceCollector::Cancel() {
  std::lock_guard<std::mutex> lock(mu_);
  cancelled_ = true;
  cv_.notify_all();
}

std::string TraceCollector::Finish(
    int timeout_ms, const std::function<int64_t(int)>& clock_offset_ns) {
  std::vector<RankTrace> ranks;
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                 [&] { return expected_.empty() || cancelled_; });
    if (!expected_.empty()) {
      TS_LOG(kWarn) << local_label_ << ": trace collection missing "
                    << expected_.size() << " lane(s)";
    }
    ranks = std::move(lanes_);
    lanes_.clear();
    expected_.clear();
    open_ = false;
  }
  for (RankTrace& lane : ranks) {
    lane.clock_offset_ns = clock_offset_ns ? clock_offset_ns(lane.rank) : 0;
  }
  RankTrace local;
  local.rank = local_rank_;
  local.label = local_label_;
  local.dropped_spans = Tracer::Global().dropped_spans();
  local.events = Tracer::Global().SnapshotEvents();
  ranks.push_back(std::move(local));
  std::sort(ranks.begin(), ranks.end(),
            [](const RankTrace& a, const RankTrace& b) {
              return a.rank < b.rank;
            });
  uint64_t dropped = 0;
  for (const RankTrace& rt : ranks) dropped += rt.dropped_spans;
  if (dropped > 0) {
    TS_LOG(kWarn) << "[trace] " << dropped
                  << " spans dropped across ranks; the merged trace is "
                     "incomplete";
  }
  return MergedChromeTraceJson(ranks);
}

}  // namespace treeserver
