#ifndef TREESERVER_COMMON_TRACE_MERGE_H_
#define TREESERVER_COMMON_TRACE_MERGE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/serial.h"
#include "common/status.h"
#include "common/trace.h"

namespace treeserver {

/// One rank's contribution to a merged cluster trace: its snapshotted
/// events, its drop count, and the estimated offset of its trace clock
/// relative to the merging rank's (remote - local; 0 for the merging
/// rank itself). Events are rebased with local_ts = ts - clock_offset.
struct RankTrace {
  int32_t rank = 0;  // kMasterRank or worker id
  std::string label;  // process lane name ("master", "worker 3")
  int64_t clock_offset_ns = 0;
  uint64_t dropped_spans = 0;
  std::vector<TraceEventCopy> events;
};

/// Chrome/Perfetto process-lane id for a rank: lanes must be small
/// positive integers, so master (-1) maps to 1 and worker w to w + 2.
inline int TracePidForRank(int32_t rank) { return rank + 2; }

/// Serializes a snapshot of trace events (worker -> master payload).
void SerializeTraceEvents(const std::vector<TraceEventCopy>& events,
                          BinaryWriter* w);
Status DeserializeTraceEvents(BinaryReader* r,
                              std::vector<TraceEventCopy>* out);

/// Merges per-rank traces into one Chrome trace-event JSON document:
/// one process lane per rank (named via process_name metadata), all
/// timestamps rebased into the merging rank's clock.
std::string MergedChromeTraceJson(const std::vector<RankTrace>& ranks);

/// One cross-rank trace collection, shared by the training master and
/// the fleet router. The owner opens a collection over the ranks it
/// asked for a snapshot, feeds each reply to Add() and calls Finish(),
/// which waits for the lanes and merges them with the owner's own.
/// Thread-safe; one collection is open at a time.
class TraceCollector {
 public:
  /// `local_rank` / `local_label` name the owner's own lane.
  TraceCollector(int32_t local_rank, std::string local_label)
      : local_rank_(local_rank), local_label_(std::move(local_label)) {}

  /// Starts expecting one snapshot from each rank in `ranks`.
  /// FailedPrecondition while another collection is open.
  Status Open(const std::vector<int32_t>& ranks);
  /// Takes a remote rank's lane; ignored unless that rank is still
  /// expected (no collection open, a duplicate, or a late reply).
  void Add(RankTrace lane);
  /// Stops expecting `rank` (it died); its lane is simply absent.
  void Forget(int32_t rank);
  /// Waits up to `timeout_ms` for every expected lane, closes the
  /// collection and returns MergedChromeTraceJson over the owner's
  /// tracer lane plus the lanes received, sorted by rank. Each remote
  /// lane is rebased by `clock_offset_ns(rank)` (nullptr: no skew).
  /// Logs a warning for missing lanes and for dropped spans.
  std::string Finish(int timeout_ms,
                     const std::function<int64_t(int)>& clock_offset_ns);
  /// Wakes a waiting Finish and makes later ones return at once
  /// (process shutdown).
  void Cancel();

 private:
  const int32_t local_rank_;
  const std::string local_label_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  bool cancelled_ = false;
  std::set<int32_t> expected_;
  std::vector<RankTrace> lanes_;
};

}  // namespace treeserver

#endif  // TREESERVER_COMMON_TRACE_MERGE_H_
