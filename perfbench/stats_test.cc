// Tests of the benchmark's own arithmetic. Run by `ctest` in the
// benchmark's build directory and before every benchmark run.

#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "stats.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                \
  do {                                                              \
    if (!(cond)) {                                                  \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,  \
                   __LINE__, #cond);                                \
      ++failures;                                                   \
    }                                                               \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

constexpr uint64_t kMs = 1000000;  // ns per ms

void PercentileCarriesSampleCount() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  const Quantile p50 = Percentile(v, 0.5);
  EXPECT(Near(p50.value, 50.5));
  EXPECT(p50.samples == 100);
  EXPECT(p50.beyond == 50);
  const Quantile p99 = Percentile(v, 0.99);
  EXPECT(Near(p99.value, 99.01));
  EXPECT(p99.beyond == 1);  // too few beyond to trust a p99 of 100

  const Quantile empty = Percentile({}, 0.5);
  EXPECT(empty.samples == 0 && empty.value == 0.0);
  EXPECT(Near(Median({7.0}), 7.0));
}

void FailedSamplesMakeTheTailInfinite() {
  std::vector<double> v(98, 1.0);
  v.push_back(std::numeric_limits<double>::infinity());
  v.push_back(std::numeric_limits<double>::infinity());
  EXPECT(std::isinf(Percentile(v, 0.99).value));
  EXPECT(Near(Percentile(v, 0.5).value, 1.0));
}

void SelfTimeExcludesOverlappingChildren() {
  // parent [0,10) ms with two children [2,6) and [4,8) that overlap
  // each other: the parent keeps [0,2) + [8,10) = 4 ms, the children's
  // layer gets their union [2,8) = 6 ms.
  std::vector<Span> spans = {
      {"engine.train", 0, 10 * kMs, -1, 0, 0},
      {"net.send", 2 * kMs, 6 * kMs, 0, 0, 0},
      {"net.send", 4 * kMs, 8 * kMs, 0, 0, 1},
  };
  const Attribution a = AttributeSelfTime(spans, 0, 12 * kMs);
  EXPECT(Near(a.wall_s, 0.012));
  EXPECT(Near(a.self_s.at("engine"), 0.004));
  EXPECT(Near(a.self_s.at("net"), 0.006));
  EXPECT(Near(a.unattributed_s, 0.002));
  double sum = a.unattributed_s;
  for (const auto& [layer, s] : a.self_s) sum += s;
  EXPECT(Near(sum, a.wall_s));
}

void SelfTimeGivesOverlapToTheDeepestSpan() {
  // Two top-level requests on different lanes overlap; a grandchild
  // inside the first wins over both parents while it runs.
  std::vector<Span> spans = {
      {"fleet.request", 0, 6 * kMs, -1, 1, 0},
      {"fleet.request", 3 * kMs, 9 * kMs, -1, 2, 1},
      {"serve.predict", 1 * kMs, 5 * kMs, 0, 1, 0},
      {"tree.walk", 2 * kMs, 4 * kMs, 2, 1, 0},
  };
  const Attribution a = AttributeSelfTime(spans, 0, 10 * kMs);
  EXPECT(Near(a.self_s.at("tree"), 0.002));
  EXPECT(Near(a.self_s.at("serve"), 0.002));   // [1,2) + [4,5)
  EXPECT(Near(a.self_s.at("fleet"), 0.005));   // [0,1) + [5,9)
  EXPECT(Near(a.unattributed_s, 0.001));
}

void SelfTimeClipsToTheWall() {
  std::vector<Span> spans = {{"table.bin", 0, 10 * kMs, -1, 0, 0}};
  const Attribution a = AttributeSelfTime(spans, 5 * kMs, 15 * kMs);
  EXPECT(Near(a.self_s.at("table"), 0.005));
  EXPECT(Near(a.unattributed_s, 0.005));
}

void MaxRateIsTheHighestContiguousPassingRung() {
  // Ascending rates; the fourth rung misses 5 ms, and the fifth passing
  // after that miss does not count.
  std::vector<Rung> rungs = {
      {1.0, false}, {2.0, false}, {4.5, false}, {9.0, false}, {3.0, false}};
  EXPECT(SelectMaxRateRung(rungs, 5.0) == 2);
  rungs[1].backlog_growing = true;
  EXPECT(SelectMaxRateRung(rungs, 5.0) == 0);
  rungs[0].p99_ms = std::numeric_limits<double>::infinity();  // failures
  EXPECT(SelectMaxRateRung(rungs, 5.0) == -1);
  EXPECT(SelectMaxRateRung({}, 5.0) == -1);
}

void BacklogGrowthNeedsADoubling() {
  EXPECT(!BacklogGrowing({1, 2, 1, 2, 2, 1, 2, 1}, 4.0));
  EXPECT(BacklogGrowing({1, 2, 4, 8, 16, 32, 64, 128}, 4.0));
  EXPECT(!BacklogGrowing({100, 200}, 4.0));  // too few samples
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  PercentileCarriesSampleCount();
  FailedSamplesMakeTheTailInfinite();
  SelfTimeExcludesOverlappingChildren();
  SelfTimeGivesOverlapToTheDeepestSpan();
  SelfTimeClipsToTheWall();
  MaxRateIsTheHighestContiguousPassingRung();
  BacklogGrowthNeedsADoubling();
  if (failures > 0) {
    std::fprintf(stderr, "perfbench_selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench_selftest: ok\n");
  return 0;
}
