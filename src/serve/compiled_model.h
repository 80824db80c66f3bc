#ifndef TREESERVER_SERVE_COMPILED_MODEL_H_
#define TREESERVER_SERVE_COMPILED_MODEL_H_

#include <cstdint>
#include <vector>

#include <memory>

#include "deepforest/deep_forest.h"
#include "forest/forest.h"
#include "serve/layout.h"
#include "serve/packed_tree.h"
#include "table/binned.h"
#include "table/data_table.h"
#include "table/datasets.h"
#include "tree/model.h"

namespace treeserver {

/// Raw column pointers for one table, resolved once per row block so
/// the traversal inner loop never touches a shared_ptr or a Column
/// accessor. Only the columns a compiled model actually splits on are
/// filled; the rest stay null (gathered subset tables may hold null
/// columns outside the candidate set).
struct RowBlockContext {
  std::vector<const double*> numeric;    // indexed by column id
  std::vector<const int32_t*> category;  // indexed by column id
  // Quantized layout only: one uint16 code array per used column —
  // numeric columns carry their serving-table bin codes, categorical
  // columns their category codes — so the level walker reads every
  // split input through one uniform pointer table. Codes that must
  // stop the walk at the node (numeric missing, categorical missing /
  // out-of-range) are rewritten to the universal kStopCode sentinel at
  // build time, so the walker needs no per-column stop lookup.
  // `ustorage` owns the arrays that had to be widened, sign-filtered
  // or missing-rewritten.
  static constexpr uint16_t kStopCode = 0xFFFF;
  std::vector<const uint16_t*> ucodes;
  std::vector<std::vector<uint16_t>> ustorage;
};

/// A TreeModel flattened into structure-of-arrays node tables for
/// cache-friendly batched traversal.
///
/// Per-node state lives in parallel vectors (split column, threshold,
/// child offsets, depth, prediction outputs); categorical split sets
/// are compiled into bitmask words in a shared pool, turning the
/// per-step binary search of SplitCondition::RouteCategory into a
/// single bit test; leaf/internal PMFs live in one contiguous float
/// pool. Traversal semantics are *exactly* those of
/// TreeModel::Traverse, including the paper's predict-at-any-depth
/// routes (Appendix D): depth cutoff, missing value, and
/// unseen-category all stop at the current node and report its
/// prediction.
class CompiledTree {
 public:
  /// Flattens a trained (non-empty) tree.
  static CompiledTree Compile(const TreeModel& tree);

  TaskKind kind() const { return kind_; }
  int num_classes() const { return num_classes_; }
  size_t num_nodes() const { return col_.size(); }

  /// Column ids this tree splits on (sorted, unique).
  const std::vector<int32_t>& used_columns() const { return used_columns_; }

  /// Batched traversal: resolves the stop node of each row in `rows`
  /// and writes its index to `out_nodes[i]`. `ctx` must have been
  /// built (BuildContext) against the table the rows refer to. Node
  /// ids are in the ACTIVE layout's numbering (see Repack below).
  void RouteRows(const RowBlockContext& ctx, const uint32_t* rows, size_t n,
                 int max_depth, int32_t* out_nodes) const;

  /// Prediction outputs of a stop node (classification PMF pointer is
  /// `num_classes()` floats). `node` is an id RouteRows emitted, i.e.
  /// in the active layout's numbering.
  const float* node_pmf(int32_t node) const {
    return active_pmf_pool() + static_cast<size_t>(node) * num_classes_;
  }
  int32_t node_label(int32_t node) const { return active_labels()[node]; }
  double node_value(int32_t node) const { return active_values()[node]; }

  /// Fills `ctx` with raw pointers for `columns` of `table`.
  static void BuildContext(const DataTable& table,
                           const std::vector<int32_t>& columns,
                           RowBlockContext* ctx);

  /// Single-row convenience (tests / spot checks); returns the stop
  /// node index, matching TreeModel::Traverse on the same row.
  int32_t RouteRow(const DataTable& table, uint32_t row,
                   int max_depth = -1) const;

  /// Re-encodes the node tables into `want` (serve/layout.h) and
  /// returns the layout actually achieved: kQuantized needs `binned`
  /// (the serving table's bin index) and falls back to kSoa when any
  /// numeric threshold is not exactly a bin upper. After a repack,
  /// RouteRows emits node ids of the NEW layout — use the active_*
  /// pools below to read predictions.
  NodeLayout Repack(NodeLayout want, const BinnedTable* binned);
  NodeLayout layout() const { return layout_; }

  /// Prediction pools of the active layout, indexed by the node ids
  /// RouteRows emits.
  const float* active_pmf_pool() const {
    return packed_ ? packed_->pmf_pool() : pmf_pool_.data();
  }
  const int32_t* active_labels() const {
    return packed_ ? packed_->labels() : label_.data();
  }
  const double* active_values() const {
    return packed_ ? packed_->values() : value_.data();
  }

  /// Read-only SoA node tables, for PackedTree::PackQuantized and
  /// white-box tests. Indices are the original (pre-repack) node ids.
  int32_t raw_col(int32_t i) const { return col_[i]; }
  bool raw_is_cat(int32_t i) const { return is_cat_[i] != 0; }
  double raw_threshold(int32_t i) const { return threshold_[i]; }
  int32_t raw_left(int32_t i) const { return left_[i]; }
  int32_t raw_right(int32_t i) const { return right_[i]; }
  uint16_t raw_depth(int32_t i) const { return depth_[i]; }
  int32_t raw_label(int32_t i) const { return label_[i]; }
  double raw_value(int32_t i) const { return value_[i]; }
  const std::vector<float>& raw_pmf_pool() const { return pmf_pool_; }
  const std::vector<uint64_t>& raw_cat_pool() const { return cat_pool_; }
  uint32_t raw_cat_offset(int32_t i) const { return cat_offset_[i]; }
  uint32_t raw_cat_words(int32_t i) const { return cat_words_[i]; }

 private:
  TaskKind kind_ = TaskKind::kClassification;
  int num_classes_ = 0;

  // One entry per node, same indices as the source TreeModel.
  std::vector<int32_t> col_;        // split column; -1 marks a leaf
  std::vector<uint8_t> is_cat_;     // 1 = categorical split
  std::vector<double> threshold_;   // numeric splits
  std::vector<int32_t> left_;
  std::vector<int32_t> right_;
  std::vector<uint16_t> depth_;
  std::vector<int32_t> label_;
  std::vector<double> value_;
  std::vector<float> pmf_pool_;     // num_nodes * num_classes

  // Categorical split sets as bitmasks: node i's left set occupies
  // cat_words_[i] uint64 words at cat_offset_[i], immediately followed
  // by its seen set of the same width. A code beyond the mask is, by
  // construction, unseen.
  std::vector<uint32_t> cat_offset_;
  std::vector<uint32_t> cat_words_;
  std::vector<uint64_t> cat_pool_;

  std::vector<int32_t> used_columns_;

  // Quantized nodes (serve/packed_tree.h); null while layout_ == kSoa.
  NodeLayout layout_ = NodeLayout::kSoa;
  std::shared_ptr<const PackedTree> packed_;
};

/// A ForestModel compiled for batched serving. Predictions are exactly
/// equal (bit-for-bit, same float accumulation order) to the
/// row-at-a-time ForestModel::PredictPmf / PredictLabel / PredictValue.
class CompiledForest {
 public:
  CompiledForest() = default;

  static CompiledForest Compile(const ForestModel& forest);
  /// A single tree served with forest-of-one semantics.
  static CompiledForest Compile(const TreeModel& tree);

  TaskKind kind() const { return kind_; }
  bool is_classification() const { return kind_ == TaskKind::kClassification; }
  int num_classes() const { return num_classes_; }
  size_t num_trees() const { return trees_.size(); }
  const CompiledTree& tree(size_t i) const { return trees_[i]; }

  /// Batched predictions over the rows `rows[0..n)` of `table`.
  /// `out_pmf` is row-major n x num_classes. All three match the
  /// ForestModel results exactly, including depth-cutoff routes.
  void PredictPmf(const DataTable& table, const uint32_t* rows, size_t n,
                  int max_depth, float* out_pmf) const;
  void PredictLabel(const DataTable& table, const uint32_t* rows, size_t n,
                    int max_depth, int32_t* out_labels) const;
  void PredictValue(const DataTable& table, const uint32_t* rows, size_t n,
                    int max_depth, double* out_values) const;

  /// Whole-table conveniences (rows [0, num_rows)), processed in
  /// cache-sized blocks.
  std::vector<int32_t> PredictLabels(const DataTable& table,
                                     int max_depth = -1) const;
  std::vector<double> PredictValues(const DataTable& table,
                                    int max_depth = -1) const;

  /// Single-row conveniences.
  std::vector<float> PredictPmfRow(const DataTable& table, uint32_t row,
                                   int max_depth = -1) const;
  int32_t PredictLabelRow(const DataTable& table, uint32_t row,
                          int max_depth = -1) const;
  double PredictValueRow(const DataTable& table, uint32_t row,
                         int max_depth = -1) const;

  const std::vector<int32_t>& used_columns() const { return used_columns_; }

  /// Re-encodes every tree into `want` and returns the weakest layout
  /// any tree achieved (they diverge only via the per-tree quantized →
  /// soa fallback). kQuantized requires `binned`, built from the very
  /// table rows will be scored against — it is kept and used to feed
  /// bin codes into every RowBlockContext, so quantized forests must
  /// only serve that stationary table (the bulk-scoring path; the
  /// request servers always serve soa). Predictions are byte-identical
  /// across layouts.
  NodeLayout Repack(NodeLayout want,
                    std::shared_ptr<const BinnedTable> binned = nullptr);
  NodeLayout layout() const { return layout_; }

 private:
  void BuildContext(const DataTable& table, RowBlockContext* ctx) const;

  TaskKind kind_ = TaskKind::kClassification;
  int num_classes_ = 0;
  std::vector<CompiledTree> trees_;
  std::vector<int32_t> used_columns_;  // union over trees
  NodeLayout layout_ = NodeLayout::kSoa;
  std::shared_ptr<const BinnedTable> quant_binned_;
};

/// A DeepForestModel (MGS windows + cascade layers) compiled for
/// batched serving: every forest in the pipeline becomes a
/// CompiledForest and re-representation runs through the batched PMF
/// path. Predict() returns exactly the labels of
/// DeepForestModel::Predict on the same images.
class CompiledCascade {
 public:
  static CompiledCascade Compile(const DeepForestModel& model);

  int num_classes() const { return num_classes_; }
  int num_layers() const { return static_cast<int>(cascade_.size()); }

  std::vector<int32_t> Predict(const ImageDataset& images,
                               int num_threads = 1) const;

 private:
  std::vector<int> window_sizes_;
  int stride_ = 2;
  int forests_per_layer_ = 2;
  int num_classes_ = 10;
  std::vector<std::vector<CompiledForest>> mgs_;      // [window][forest]
  std::vector<std::vector<CompiledForest>> cascade_;  // [layer][forest]
};

}  // namespace treeserver

#endif  // TREESERVER_SERVE_COMPILED_MODEL_H_
