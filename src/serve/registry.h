#ifndef TREESERVER_SERVE_REGISTRY_H_
#define TREESERVER_SERVE_REGISTRY_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/compiled_model.h"
#include "serve/model_io.h"

namespace treeserver {

/// One immutable published model version: the compiled predictor the
/// server traverses plus the source model it was compiled from (kept
/// for save-to-file and introspection). Shared out as
/// shared_ptr<const ServedModel>; requests in flight keep their
/// version alive across hot-swaps.
struct ServedModel {
  std::string name;
  uint32_t version = 0;
  ModelKind kind = ModelKind::kForest;
  CompiledForest compiled;
  std::shared_ptr<const ForestModel> source;
};

/// Versioned, name-keyed model registry for the inference server.
///
/// Publish() compiles the model outside any lock and installs it as
/// the current version with a single pointer swap under a short
/// per-entry mutex, so a newly trained forest goes live while requests
/// against the previous version are still in flight — in-flight
/// batches keep serving the version they resolved via shared_ptr. All
/// versions stay addressable until retired.
class ModelRegistry {
 public:
  ModelRegistry() = default;
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Compiles and installs `model` as the next version of `name`
  /// (versions start at 1). Returns the new version number.
  Result<uint32_t> Publish(const std::string& name, ForestModel model);
  /// A single decision tree, served with forest-of-one semantics.
  Result<uint32_t> Publish(const std::string& name, TreeModel model);
  /// Loads a tree or forest model file (see serve/model_io.h) and
  /// publishes it. Deep-forest files are rejected: the row server
  /// serves tabular models.
  Result<uint32_t> PublishFromFile(const std::string& name,
                                   const std::string& path);

  /// Current version of a model; nullptr when the name is unknown.
  /// Costs one brief per-entry lock (taken once per batch, not per
  /// row); publishers hold it only for the pointer swap.
  std::shared_ptr<const ServedModel> Current(const std::string& name) const;
  /// A specific pinned version; nullptr if unknown/retired.
  std::shared_ptr<const ServedModel> Version(const std::string& name,
                                             uint32_t version) const;

  /// Writes the current version's source model to `path` with the
  /// model file header.
  Status SaveCurrent(const std::string& name, const std::string& path) const;

  /// Drops pinned versions older than `keep_latest` (the current
  /// version is never dropped). Returns the number retired. In-flight
  /// requests holding a retired version keep it alive via shared_ptr.
  size_t RetireOldVersions(const std::string& name, size_t keep_latest = 1);

  /// Reverts `name` to the newest pinned version older than the
  /// current one and erases the rolled-back version from the history
  /// (in-flight requests holding it keep it alive). Returns the
  /// version now current; FailedPrecondition when there is no older
  /// version to fall back to.
  Result<uint32_t> Rollback(const std::string& name);

  /// One row of the /statusz model-version table.
  struct ModelStatusInfo {
    std::string name;
    uint32_t version = 0;  // current
    size_t num_versions = 0;
    ModelKind kind = ModelKind::kForest;
  };
  /// Current version + history depth for every registered model,
  /// sorted by name.
  std::vector<ModelStatusInfo> StatusSnapshot() const;

  std::vector<std::string> ModelNames() const;
  /// Number of pinned (non-retired) versions; 0 for unknown names.
  size_t NumVersions(const std::string& name) const;

 private:
  struct Entry {
    mutable std::mutex mu;
    /// Hot-swap slot read by the serving path; swapped under `mu`.
    std::shared_ptr<const ServedModel> current;
    /// Publisher-side state: version history and the next number.
    uint32_t next_version = 1;
    std::map<uint32_t, std::shared_ptr<const ServedModel>> versions;
  };

  Entry* GetOrCreateEntry(const std::string& name);
  Entry* FindEntry(const std::string& name) const;

  Result<uint32_t> PublishCompiled(const std::string& name, ModelKind kind,
                                   ForestModel model);

  mutable std::mutex mu_;  // guards the name -> entry map shape
  std::map<std::string, std::unique_ptr<Entry>> entries_;
};

}  // namespace treeserver

#endif  // TREESERVER_SERVE_REGISTRY_H_
