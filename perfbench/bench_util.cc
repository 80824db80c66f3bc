#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <random>
#include <string>
#include <thread>

#include <malloc.h>
#include <sys/resource.h>

#include "bench.h"
#include "common/serial.h"

namespace perfbench {

bool ResetPeakRss() {
#ifdef __GLIBC__
  // Hand the free memory every malloc arena retains back to the kernel
  // first; otherwise the mark starts from whatever earlier operations
  // left cached and creeps up with the number of operations run.
  malloc_trim(0);
#endif
  // "5" resets the peak resident set size (Documentation/filesystems/
  // proc.rst, clear_refs).
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;
}

std::string SerializeForest(const treeserver::ForestModel& forest) {
  treeserver::BinaryWriter w;
  forest.Serialize(&w);
  return w.buffer();
}

treeserver::DataTable SampledTable(const treeserver::DatasetProfile& profile,
                                   uint64_t seed) {
  constexpr uint64_t kPopulationSeed = 20221;
  treeserver::DatasetProfile population = profile;
  population.rows = 2 * profile.rows;
  const treeserver::DataTable all =
      treeserver::GenerateTable(population, kPopulationSeed);
  std::vector<uint32_t> rows(all.num_rows());
  std::iota(rows.begin(), rows.end(), 0u);
  std::mt19937_64 rng(seed);
  std::shuffle(rows.begin(), rows.end(), rng);
  rows.resize(profile.rows);
  std::sort(rows.begin(), rows.end());
  return all.GatherRows(rows);
}

std::string RungName(size_t rung) {
  return "loadgen.r" + std::to_string(static_cast<int>(kLadderRates[rung]));
}

int ReferenceThreads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

}  // namespace perfbench
