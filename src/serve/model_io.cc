#include "serve/model_io.h"

#include "common/file_io.h"
#include "common/serial.h"

namespace treeserver {

const char* ModelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kTree:
      return "tree";
    case ModelKind::kForest:
      return "forest";
    case ModelKind::kDeepForest:
      return "deep-forest";
  }
  return "?";
}

namespace {

template <typename Model>
Status SaveModel(const Model& model, ModelKind kind, const std::string& path) {
  BinaryWriter w;
  w.Write(kModelFileMagic);
  w.Write(kModelFormatVersion);
  w.Write(static_cast<uint8_t>(kind));
  model.Serialize(&w);
  return WriteFileAtomic(path, w.buffer());
}

/// Validates the header; on success leaves `r` positioned at the
/// payload.
Status CheckHeader(const std::string& path, BinaryReader* r,
                   ModelKind expected) {
  uint32_t magic = 0;
  uint32_t version = 0;
  uint8_t kind = 0;
  if (!r->Read(&magic).ok() || !r->Read(&version).ok() ||
      !r->Read(&kind).ok()) {
    return Status::Corruption(path + ": truncated model file header");
  }
  if (magic != kModelFileMagic) {
    return Status::Corruption(path + ": not a TreeServer model file "
                                     "(bad magic)");
  }
  if (version == 0 || version > kModelFormatVersion) {
    return Status::InvalidArgument(
        path + ": unsupported model format version " +
        std::to_string(version) + " (this build reads up to " +
        std::to_string(kModelFormatVersion) + ")");
  }
  if (kind > static_cast<uint8_t>(ModelKind::kDeepForest)) {
    return Status::Corruption(path + ": unknown model kind byte " +
                              std::to_string(kind));
  }
  if (static_cast<ModelKind>(kind) != expected) {
    return Status::InvalidArgument(
        path + ": file holds a " +
        ModelKindName(static_cast<ModelKind>(kind)) + " model, expected " +
        ModelKindName(expected));
  }
  return Status::OK();
}

template <typename Model>
Status LoadModel(const std::string& path, ModelKind kind, Model* out) {
  std::string bytes;
  TS_RETURN_IF_ERROR(ReadFile(path, &bytes));
  BinaryReader r(bytes);
  TS_RETURN_IF_ERROR(CheckHeader(path, &r, kind));
  Status st = Model::Deserialize(&r, out);
  if (!st.ok()) {
    return Status::Corruption(path + ": " + st.message() +
                              " (truncated or corrupt payload)");
  }
  if (!r.AtEnd()) {
    return Status::Corruption(path + ": trailing bytes after model payload");
  }
  return Status::OK();
}

}  // namespace

Status SaveToFile(const TreeModel& model, const std::string& path) {
  return SaveModel(model, ModelKind::kTree, path);
}

Status SaveToFile(const ForestModel& model, const std::string& path) {
  return SaveModel(model, ModelKind::kForest, path);
}

Status SaveToFile(const DeepForestModel& model, const std::string& path) {
  return SaveModel(model, ModelKind::kDeepForest, path);
}

Status LoadFromFile(const std::string& path, TreeModel* out) {
  return LoadModel(path, ModelKind::kTree, out);
}

Status LoadFromFile(const std::string& path, ForestModel* out) {
  return LoadModel(path, ModelKind::kForest, out);
}

Status LoadFromFile(const std::string& path, DeepForestModel* out) {
  return LoadModel(path, ModelKind::kDeepForest, out);
}

Result<ModelKind> ReadModelFileKind(const std::string& path) {
  std::string bytes;
  TS_RETURN_IF_ERROR(ReadFile(path, &bytes));
  BinaryReader r(bytes);
  uint32_t magic = 0;
  uint32_t version = 0;
  uint8_t kind = 0;
  if (!r.Read(&magic).ok() || !r.Read(&version).ok() || !r.Read(&kind).ok()) {
    return Status::Corruption(path + ": truncated model file header");
  }
  if (magic != kModelFileMagic) {
    return Status::Corruption(path + ": not a TreeServer model file");
  }
  if (version == 0 || version > kModelFormatVersion) {
    return Status::InvalidArgument(path + ": unsupported model format version " +
                                   std::to_string(version));
  }
  if (kind > static_cast<uint8_t>(ModelKind::kDeepForest)) {
    return Status::Corruption(path + ": unknown model kind byte " +
                              std::to_string(kind));
  }
  return static_cast<ModelKind>(kind);
}

}  // namespace treeserver
