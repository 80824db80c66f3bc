// Helpers shared by the TreeServer CLIs: flag parsing, --peers ports
// and the bytes written for --out.

#ifndef TREESERVER_TOOLS_CLI_FLAGS_H_
#define TREESERVER_TOOLS_CLI_FLAGS_H_

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "common/logging.h"
#include "common/serial.h"
#include "forest/forest.h"
#include "rpc/transport.h"

namespace treeserver {

/// Matches `arg` against `--name=value`; on a match stores the value.
inline bool ParseFlag(const std::string& arg, const std::string& name,
                      std::string* value) {
  std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

/// The whole of `value`, the value of `--name`, as a number in
/// [min, max]. Anything else — trailing junk, overflow, a value out of
/// range — is a usage error: prints the flag, then `usage`, and exits 2.
template <typename T>
T NumberFlag(const char* name, const std::string& value, T min,
             void (*usage)(), T max = std::numeric_limits<T>::max()) {
  const char* s = value.c_str();
  char* end = nullptr;
  errno = 0;
  bool in_range = false;
  T v{};
  if constexpr (std::is_floating_point_v<T>) {
    const double d = std::strtod(s, &end);
    in_range = std::isfinite(d) && d >= min && d <= max;
    v = static_cast<T>(d);
  } else if constexpr (std::is_unsigned_v<T>) {
    // strtoull would wrap a leading '-' round to a huge value.
    const unsigned long long u = std::strtoull(s, &end, 10);
    in_range = value.find('-') == std::string::npos && u >= min && u <= max;
    v = static_cast<T>(u);
  } else {
    const long long i = std::strtoll(s, &end, 10);
    in_range = i >= min && i <= max;
    v = static_cast<T>(i);
  }
  if (end == s || *end != '\0' || errno != 0 || !in_range) {
    std::fprintf(stderr, "bad value for --%s: '%s'\n", name, s);
    usage();
    std::exit(2);
  }
  return v;
}

/// Splits a comma-separated list; empty fields are kept.
inline std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

/// The listen port of `rank` in a `--peers` list: entries 0..W-1 are
/// the workers, entry W (= `num_workers`) is the master or router.
inline uint16_t PortOfPeer(const std::vector<std::string>& peers,
                           int num_workers, int rank) {
  size_t idx = rank == kMasterRank ? static_cast<size_t>(num_workers)
                                   : static_cast<size_t>(rank);
  TS_CHECK(idx < peers.size()) << "rank not covered by --peers";
  const std::string& addr = peers[idx];
  size_t colon = addr.rfind(':');
  TS_CHECK(colon != std::string::npos) << "bad peer address " << addr;
  return static_cast<uint16_t>(std::atoi(addr.c_str() + colon + 1));
}

/// The bytes a CLI writes for `--out`: the forest's own serialization.
inline std::string SerializeForest(const ForestModel& model) {
  BinaryWriter w;
  model.Serialize(&w);
  return w.Release();
}

}  // namespace treeserver

#endif  // TREESERVER_TOOLS_CLI_FLAGS_H_
