#include "engine/checkpoint_io.h"

#include "common/file_io.h"
#include "common/serial.h"
#include "rpc/crc32c.h"

namespace treeserver {

Status SaveCheckpoint(const std::string& path, const std::string& snapshot) {
  BinaryWriter w;
  w.Write(kCheckpointMagic);
  w.Write(kCheckpointVersion);
  w.WriteString(snapshot);  // u64 length + bytes
  w.Write(Crc32c(snapshot.data(), snapshot.size()));
  return WriteFileAtomic(path, w.buffer());
}

Status LoadCheckpoint(const std::string& path, std::string* snapshot) {
  std::string bytes;
  TS_RETURN_IF_ERROR(ReadFile(path, &bytes));
  BinaryReader r(bytes);
  uint32_t magic = 0;
  uint32_t version = 0;
  if (!r.Read(&magic).ok() || !r.Read(&version).ok()) {
    return Status::Corruption(path + ": truncated checkpoint header");
  }
  if (magic != kCheckpointMagic) {
    return Status::Corruption(path + ": not a TreeServer checkpoint file");
  }
  if (version == 0 || version > kCheckpointVersion) {
    return Status::InvalidArgument(
        path + ": unsupported checkpoint version " + std::to_string(version));
  }
  std::string payload;
  if (!r.ReadString(&payload).ok()) {
    return Status::Corruption(path + ": truncated checkpoint payload");
  }
  uint32_t stored_crc = 0;
  if (!r.Read(&stored_crc).ok()) {
    return Status::Corruption(path + ": truncated checkpoint trailer");
  }
  if (!r.AtEnd()) {
    return Status::Corruption(path + ": trailing bytes after checkpoint");
  }
  if (Crc32c(payload.data(), payload.size()) != stored_crc) {
    return Status::Corruption(path + ": checkpoint CRC mismatch");
  }
  *snapshot = std::move(payload);
  return Status::OK();
}

}  // namespace treeserver
