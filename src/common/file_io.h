#ifndef TREESERVER_COMMON_FILE_IO_H_
#define TREESERVER_COMMON_FILE_IO_H_

#include <string>

#include "common/status.h"

namespace treeserver {

/// Writes `bytes` to `<path>.tmp` and renames it over `path`, so a
/// crash mid-write never leaves a torn file where a reader would find
/// it. A short write or failed rename removes the temp file.
Status WriteFileAtomic(const std::string& path, const std::string& bytes);

/// Reads the whole file at `path` into `out`.
Status ReadFile(const std::string& path, std::string* out);

}  // namespace treeserver

#endif  // TREESERVER_COMMON_FILE_IO_H_
