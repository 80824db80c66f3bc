#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared pieces of the four workloads: options, the result record and
// small measurement helpers. Each workload drives the library only
// through its public API and checks every output it times.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "forest/forest.h"
#include "table/datasets.h"
#include "stats.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Everything one run measured. `e2e` holds the gated end-to-end
/// metrics (see BENCHMARK.json), `named` the further figures the
/// workload produces under their own names (printed in the record),
/// and `layer` the per-layer numbers of a traced run.
struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> mismatches;  // output-check failures

  // End-to-end, always measured with tracing off.
  double setup_s = 0.0;
  double rows_per_s = 0.0;
  double peak_rss_mb = 0.0;
  size_t setup_samples = 0;
  std::string rows_desc;  // what rows_per_s counts in this workload
  std::string rss_desc;  // what the peak-RSS window covers

  struct Named {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note;
  };
  std::vector<Named> named;
  std::map<std::string, double> layer;

  // Traced run only.
  std::vector<Span> spans;
  uint64_t wall_start_ns = 0;
  uint64_t wall_end_ns = 0;

  void Mismatch(const std::string& what) { mismatches.push_back(what); }
  void AddNamed(std::string name, double value, std::string unit,
                std::string note = "") {
    named.push_back({std::move(name), value, std::move(unit), std::move(note)});
  }
};

Result RunTrainExactInproc(const Options& options);
Result RunTrainHistTcp(const Options& options);
Result RunServeFleetOnline(const Options& options);
Result RunScoreBulk(const Options& options);

/// Request rates (requests/s) of serve_fleet_online's open-loop
/// ladder, ascending. Each rung reports loadgen.r<rate>.* metrics. On a
/// 4-core host two replicas saturated between 6k and 10k requests/s as
/// host load varied, so 4000 passes with margin and 14000 fails with
/// margin; see README.md.
inline constexpr double kLadderRates[] = {1000, 2000, 4000, 14000, 28000};
inline constexpr size_t kNumLadderRungs =
    sizeof(kLadderRates) / sizeof(kLadderRates[0]);

/// "loadgen.r<rate>", the metric prefix of one ladder rung.
std::string RungName(size_t rung);

// ---- helpers shared by the workloads (bench_util.cc) ----

/// Returns the allocator's cached free memory to the kernel, then
/// resets the kernel's peak-RSS mark for this process (VmHWM) so the
/// next PeakRssMb() covers only what follows. Returns false where the
/// kernel refuses, in which case PeakRssMb() is the lifetime peak.
bool ResetPeakRss();
double PeakRssMb();

std::string SerializeForest(const treeserver::ForestModel& forest);

/// `profile.rows` rows drawn by `seed` from a population of twice that
/// many, generated from `profile` with one fixed seed. The planted
/// concept, and with it the shape of the trees the workload grows, is
/// the same for every seed (as are the job specs' own seeds), so runs
/// differ in their sample, not in how much work the concept or the
/// column sampling happens to ask for.
treeserver::DataTable SampledTable(const treeserver::DatasetProfile& profile,
                                   uint64_t seed);

/// Seconds elapsed since `start_ns`.
inline double SecondsSince(uint64_t start_ns) {
  return (NowNs() - start_ns) * 1e-9;
}

/// Peak RSS covers this many operations from the start of the timed
/// loop (every run makes at least that many), so the mark does not
/// depend on how many operations the host's speed lets a run fit.
inline constexpr size_t kRssOps = 8;

/// Runs `op` at least `min_times` and until `seconds` have elapsed.
template <typename Op>
void RunFor(double seconds, size_t min_times, Op&& op) {
  const uint64_t start = NowNs();
  for (size_t i = 0; i < min_times || SecondsSince(start) < seconds; ++i) op();
}

/// Number of hardware threads the library may use for reference
/// computations outside the timed regions.
int ReferenceThreads();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
