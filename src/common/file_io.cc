#include "common/file_io.h"

#include <cstdio>

namespace treeserver {

Status WriteFileAtomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open " + tmp + " for writing");
  }
  size_t written =
      bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fclose(f) == 0;
  if (written != bytes.size() || !flushed) {
    std::remove(tmp.c_str());
    return Status::IOError("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

Status ReadFile(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open " + path);
  }
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (size < 0) {
    std::fclose(f);
    return Status::IOError("cannot stat " + path);
  }
  out->resize(static_cast<size_t>(size));
  size_t read = size == 0 ? 0 : std::fread(out->data(), 1, out->size(), f);
  std::fclose(f);
  if (read != out->size()) {
    return Status::IOError("short read from " + path);
  }
  return Status::OK();
}

}  // namespace treeserver
