#include "common/trace.h"

#include <chrono>
#include <cstdio>

#include "common/file_io.h"
#include "common/json.h"
#include "common/metrics_registry.h"

namespace treeserver {

namespace {

std::atomic<int> g_next_thread_id{0};

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

int CurrentThreadId() {
  thread_local int id = g_next_thread_id.fetch_add(1);
  return id;
}

const char* TraceCategoryName(TraceCat cat) {
  switch (cat) {
    case TraceCat::kPlanInsert:
      return "plan-insert";
    case TraceCat::kWorkerAssign:
      return "worker-assign";
    case TraceCat::kColumnTask:
      return "column-task";
    case TraceCat::kSubtreeTask:
      return "subtree-task";
    case TraceCat::kIndexServe:
      return "index-serve";
    case TraceCat::kNetSend:
      return "net-send";
    case TraceCat::kTreeComplete:
      return "tree-complete";
    case TraceCat::kSplitEval:
      return "split-eval";
    case TraceCat::kServe:
      return "serve";
    case TraceCat::kWatchdog:
      return "watchdog";
  }
  return "?";
}

Tracer::Tracer()
    : epoch_ns_(SteadyNowNs()),
      dropped_counter_(
          MetricsRegistry::Global().GetCounter("trace.dropped_spans")) {}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer;  // leaked: alive for worker threads
  return *tracer;
}

uint64_t Tracer::NowNs() const { return SteadyNowNs() - epoch_ns_; }

Tracer::ThreadBuffer* Tracer::LocalBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [this] {
    auto b = std::make_shared<ThreadBuffer>();
    b->tid = CurrentThreadId();
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(b);
    return b;
  }();
  return buffer.get();
}

void Tracer::Append(TraceEvent event) {
  ThreadBuffer* buffer = LocalBuffer();
  event.tid = buffer->tid;
  const size_t cap = max_events_per_thread_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(buffer->mu);
  if (buffer->events.size() >= cap) {
    // Buffer full: drop loudly (counted) rather than silently
    // overwriting history or growing without bound.
    dropped_.fetch_add(1, std::memory_order_relaxed);
    dropped_counter_->Inc();
    return;
  }
  buffer->events.push_back(event);
}

void Tracer::RecordComplete(TraceCat cat, const char* name, uint64_t start_ns,
                            uint64_t id, const char* arg_name, int64_t arg) {
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.phase = 'X';
  e.ts_ns = start_ns;
  e.dur_ns = NowNs() - start_ns;
  e.id = id;
  e.arg_name = arg_name;
  e.arg = arg;
  Append(e);
}

void Tracer::RecordAsyncBegin(TraceCat cat, const char* name, uint64_t id,
                              const char* arg_name, int64_t arg) {
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.phase = 'b';
  e.ts_ns = NowNs();
  e.id = id;
  e.arg_name = arg_name;
  e.arg = arg;
  Append(e);
}

void Tracer::RecordAsyncEnd(TraceCat cat, const char* name, uint64_t id) {
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.phase = 'e';
  e.ts_ns = NowNs();
  e.id = id;
  Append(e);
}

void Tracer::RecordInstant(TraceCat cat, const char* name, uint64_t id,
                           const char* arg_name, int64_t arg) {
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.phase = 'i';
  e.ts_ns = NowNs();
  e.id = id;
  e.arg_name = arg_name;
  e.arg = arg;
  Append(e);
}

size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& b : buffers_) {
    std::lock_guard<std::mutex> blk(b->mu);
    n += b->events.size();
  }
  return n;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : buffers_) {
    std::lock_guard<std::mutex> blk(b->mu);
    b->events.clear();
  }
  dropped_.store(0, std::memory_order_relaxed);
}

void AppendChromeEventJson(const TraceEventCopy& e, int pid, int64_t shift_ns,
                           std::string* out) {
  char buf[160];
  *out += "{\"name\":";
  AppendJsonString(out, e.name);
  *out += ",\"cat\":";
  AppendJsonString(out, TraceCategoryName(e.cat));
  // Chrome trace timestamps are microseconds (fractional allowed).
  const double ts_us =
      static_cast<double>(static_cast<int64_t>(e.ts_ns) + shift_ns) / 1e3;
  std::snprintf(buf, sizeof(buf),
                ",\"ph\":\"%c\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f", e.phase,
                pid, e.tid, ts_us);
  *out += buf;
  if (e.phase == 'X') {
    std::snprintf(buf, sizeof(buf), ",\"dur\":%.3f",
                  static_cast<double>(e.dur_ns) / 1e3);
    *out += buf;
  }
  if (e.phase == 'b' || e.phase == 'e') {
    std::snprintf(buf, sizeof(buf), ",\"id\":\"0x%llx\"",
                  static_cast<unsigned long long>(e.id));
    *out += buf;
  }
  if (e.phase == 'i') *out += ",\"s\":\"t\"";
  if (e.id != 0 || !e.arg_name.empty()) {
    *out += ",\"args\":{";
    bool first_arg = true;
    if (e.id != 0) {
      std::snprintf(buf, sizeof(buf), "\"id\":%llu",
                    static_cast<unsigned long long>(e.id));
      *out += buf;
      first_arg = false;
    }
    if (!e.arg_name.empty()) {
      if (!first_arg) *out += ",";
      AppendJsonString(out, e.arg_name);
      std::snprintf(buf, sizeof(buf), ":%lld", static_cast<long long>(e.arg));
      *out += buf;
    }
    *out += "}";
  }
  *out += "}";
}

std::vector<TraceEventCopy> Tracer::SnapshotEvents() const {
  std::vector<TraceEventCopy> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : buffers_) {
    std::lock_guard<std::mutex> blk(b->mu);
    for (const TraceEvent& e : b->events) {
      TraceEventCopy c;
      c.name = e.name;
      c.cat = e.cat;
      c.phase = e.phase;
      c.tid = e.tid;
      c.ts_ns = e.ts_ns;
      c.dur_ns = e.dur_ns;
      c.id = e.id;
      if (e.arg_name != nullptr) c.arg_name = e.arg_name;
      c.arg = e.arg;
      out.push_back(std::move(c));
    }
  }
  return out;
}

std::string Tracer::ToChromeJson() const {
  std::vector<TraceEventCopy> events = SnapshotEvents();
  std::string out;
  out.reserve(events.size() * 128 + 64);
  out += "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEventCopy& e : events) {
    if (!first) out += ",";
    first = false;
    AppendChromeEventJson(e, /*pid=*/1, /*shift_ns=*/0, &out);
  }
  out += "]}";
  return out;
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  const uint64_t dropped = dropped_spans();
  if (dropped > 0) {
    std::fprintf(stderr,
                 "[trace] warning: %llu spans dropped (per-thread buffer cap "
                 "%zu reached); the exported trace is incomplete\n",
                 static_cast<unsigned long long>(dropped),
                 max_events_per_thread());
  }
  return WriteFileAtomic(path, ToChromeJson());
}

}  // namespace treeserver
