#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// The benchmark's own arithmetic: percentiles that carry their sample
// count, span self-time attribution, and the max-rate rung rule. Kept
// free of library dependencies so perfbench_selftest can pin it.

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// A percentile read from a sample, with how many samples it rests on
/// and how many lie strictly beyond it. A tail percentile is only
/// trusted when `beyond` >= 10.
struct Quantile {
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;
};

/// Linear interpolation between closest ranks (NumPy's default):
/// rank q * (n - 1) of the sorted sample. Infinite samples (failed
/// requests) sort last, so a tail that reaches them is infinite.
/// An empty sample gives value 0 with samples 0.
Quantile Percentile(std::vector<double> samples, double q);

/// Median of a sample (Percentile at 0.5); 0 for an empty sample.
double Median(std::vector<double> samples);

/// One span the benchmark recorded around a call into a layer. The
/// layer is the part of `name` before the first '.'.
struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int parent = -1;          // index into the span list, -1 = top level
  uint64_t request_id = 0;  // 0 = not part of a request
  int lane = 0;             // recording thread, for the exported trace
};

std::string LayerOf(const std::string& span_name);

/// Splits the wall interval [wall_start_ns, wall_end_ns) among layers.
/// Every instant goes to the deepest span covering it (ties: the one
/// that started last, then the later index), so a parent's self time
/// excludes the union of its children even when they overlap each
/// other, and the layer totals plus `unattributed_s` equal `wall_s`
/// exactly. Spans are clipped to the wall interval.
struct Attribution {
  double wall_s = 0.0;
  double unattributed_s = 0.0;
  std::map<std::string, double> self_s;  // by layer
};
Attribution AttributeSelfTime(const std::vector<Span>& spans,
                              uint64_t wall_start_ns, uint64_t wall_end_ns);

/// Thread-safe in-memory span list. Disabled recorders ignore every
/// call, so the untraced runs pay one branch per call site.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Appends a finished span; returns its index (-1 when disabled).
  int Add(const char* name, uint64_t start_ns, uint64_t end_ns,
          int parent = -1, uint64_t request_id = 0, int lane = 0);
  /// Opens a span ending at End(); returns its index (-1 when
  /// disabled).
  int Begin(const char* name, int parent = -1, uint64_t request_id = 0,
            int lane = 0);
  void End(int index);

  std::vector<Span> spans() const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Chrome trace-event JSON of `spans` ('X' events, one lane per
/// recording thread, span index, parent index and request id as args).
std::string ToChromeJson(const std::vector<Span>& spans);

/// Monotonic nanoseconds (steady clock).
uint64_t NowNs();

/// One rung of the open-loop rate ladder.
struct Rung {
  /// p99 latency from due time with failed/shed requests counted as
  /// infinite (see Percentile).
  double p99_ms = 0.0;
  bool backlog_growing = false;
};

/// Index of the max-rate rung: the highest rung such that it and every
/// rung below it meets `p99_limit_ms` with no growing backlog. Rungs
/// must be in ascending rate order. -1 when even the bottom rung
/// misses.
int SelectMaxRateRung(const std::vector<Rung>& rungs, double p99_limit_ms);

/// A backlog grows when the requests outstanding in the last quarter
/// of a rung's samples average more than twice those of the first
/// quarter plus `slack`. Fewer than 4 samples never count as growing.
bool BacklogGrowing(const std::vector<size_t>& outstanding, double slack);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
