// Command-line helpers shared by the TreeServer CLIs.

#ifndef TREESERVER_TOOLS_CLI_FLAGS_H_
#define TREESERVER_TOOLS_CLI_FLAGS_H_

#include <string>
#include <vector>

namespace treeserver {

/// Matches `arg` against `--name=value`; on a match stores the value.
inline bool ParseFlag(const std::string& arg, const std::string& name,
                      std::string* value) {
  std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
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

}  // namespace treeserver

#endif  // TREESERVER_TOOLS_CLI_FLAGS_H_
