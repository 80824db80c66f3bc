#ifndef TREESERVER_SERVE_PACKED_TREE_H_
#define TREESERVER_SERVE_PACKED_TREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "table/binned.h"

namespace treeserver {

class CompiledTree;
struct RowBlockContext;

/// A CompiledTree re-encoded for the quantized bulk-scoring layout
/// (serve/layout.h): bit-packed 16-byte nodes in breadth-first order
/// (after SNIPPETS.md §1's 32-bit Tree_node). Siblings are adjacent
/// with right = left + 1, so one child pointer serves both. Each node
/// is two 64-bit words:
///
///   meta  bits  0..19  split column
///         bit   20     categorical split
///         bits 32..63  left child index; right child = left + 1
///   aux   numeric split: the threshold's bin code
///         categorical split: (route_pool offset << 32) |
///         (table_cap << 16) — see the route-table note below
///
/// Every node is a BRANCHLESS step, so RouteRows sweeps whole row
/// blocks one tree level at a time with no data-dependent branches:
///
///  - categorical splits carry a byte route table instead of bitmask
///    words: route_pool_[off + min(code, cap)] is 0 (go left),
///    1 (go right) or 2 (stop here), with the cap slot itself a stop
///    sentinel so out-of-range and missing codes fall out of the same
///    clamped load;
///  - leaves are self-loops: col points at an arbitrary used column
///    (never dereferenced out of bounds), left at the leaf itself and
///    aux holds code 0xFFFF, so the generic "code <= aux ? left :
///    left + 1" step parks the row on the leaf forever;
///  - rows that stop early (missing value, unseen category, depth
///    cutoff) park the same way: the step computes
///    `route == stop ? self : left + route` with conditional moves.
///
/// A depth-d node is reached after exactly d sweeps (breadth-first
/// property), so running min(tree_depth, max_depth) sweeps implements
/// the predict-at-any-depth cutoff without per-row depth checks.
///
/// Prediction outputs (PMF pool / labels / values) are permuted to the
/// same breadth-first order, so the node ids RouteRows emits index
/// them directly.
///
/// Routing semantics are exactly CompiledTree::RouteRows — leaf, depth
/// cutoff, missing value and unseen category all stop at the current
/// node — with the double compare `v <= threshold` replaced by
/// `code <= threshold_bin` against the row's precomputed bin code.
/// PackQuantized only succeeds when every numeric threshold is EXACTLY
/// the upper bound of its bin in the serving table's BinnedTable (then
/// the two compares agree for every value the table contains — bins
/// partition values monotonically and no serving value exceeds its
/// column's last bin, since the BinnedTable was built from this very
/// table), and missing values carry the dedicated missing code, which
/// stops the walk just like NaN. Byte-identical predictions are
/// fuzz-checked in tests/serve_test.cc.
class PackedTree {
 public:
  static constexpr uint32_t kColMask = 0xFFFFF;  // 20-bit column field

  /// Packs with numeric thresholds quantized to bin codes of `binned`
  /// (the BinnedTable of the table rows will be routed against).
  /// Returns nullptr when any numeric threshold is not exactly a bin
  /// upper of its column, a split column is unbinned, or the tree
  /// exceeds the packed field widths — the caller keeps serving SoA.
  static std::shared_ptr<const PackedTree> PackQuantized(
      const CompiledTree& tree, const BinnedTable& binned);

  /// Same contract as CompiledTree::RouteRows; emits PACKED node ids.
  /// Reads ctx.ucodes, which CompiledForest fills from its serving
  /// BinnedTable.
  void RouteRows(const RowBlockContext& ctx, const uint32_t* rows, size_t n,
                 int max_depth, int32_t* out_nodes) const;

  size_t num_nodes() const { return words_.size() / 2; }

  /// Prediction pools, indexed by packed node id.
  const float* pmf_pool() const { return pmf_pool_.data(); }
  const int32_t* labels() const { return label_.data(); }
  const double* values() const { return value_.data(); }

  /// Node payload bytes (16 per node + route tables + prediction pools).
  size_t ByteSize() const;

 private:
  PackedTree() = default;

  int num_classes_ = 0;
  uint32_t tree_depth_ = 0;  // deepest node; bounds the level sweeps
  // Interleaved node words: node i is {meta, aux} at words_[2i, 2i+1],
  // so one step touches one cache line and a 64-byte line holds two
  // sibling pairs.
  std::vector<uint64_t> words_;
  std::vector<uint8_t> route_pool_;  // categorical route tables
  std::vector<float> pmf_pool_;  // num_nodes * num_classes
  std::vector<int32_t> label_;
  std::vector<double> value_;
};

}  // namespace treeserver

#endif  // TREESERVER_SERVE_PACKED_TREE_H_
