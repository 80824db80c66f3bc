#ifndef TREESERVER_TREE_HIST_H_
#define TREESERVER_TREE_HIST_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "table/binned.h"
#include "tree/split.h"

namespace treeserver {

/// One regression histogram bin: row count plus target sum and sum of
/// squares.
struct HistRegBin {
  int64_t n = 0;
  double sum = 0.0;
  double sum_sq = 0.0;
};

/// Per-node histogram of one binned numeric column: class counts per
/// bin (classification) or (count, sum, sum of squares) per bin
/// (regression), with the missing bin last. Built in one O(n) pass
/// over the bin codes and scanned in O(bins) by BestSplit.
///
/// The scan mirrors the exact kernel's semantics exactly — candidate
/// cuts after each non-empty bin with data to its right, strict-<
/// improvement keeps the earliest cut, score over non-missing rows,
/// threshold = the largest actual column value in the cut bin — so
/// when every distinct value has its own bin (distinct <= max_bins)
/// the outcome reproduces the exact split bit for bit (classification
/// always; regression when target sums carry no rounding, e.g.
/// integer-valued targets).
///
/// Sibling subtraction (the LightGBM trick): `parent - child` equals
/// the direct build of the other child. For classification the counts
/// are integers, so the identity is bit-exact and a derived histogram
/// is interchangeable with a built one. For regression the sums
/// re-associate, so derivation is only used where the choice of which
/// sibling to derive is itself deterministic (inside TrainTree).
///
/// Accumulation is one scalar loop per column. Regression keeps one
/// accumulator per bin fed in row order, so the double sums (and the
/// trees grown from them) are reproducible bit for bit.
class NodeHistogram {
 public:
  NodeHistogram() = default;

  /// One O(n) pass over `rows` (nullptr = all rows [0, n)).
  static NodeHistogram Build(const BinnedColumn& binned, const Column& target,
                             const SplitContext& ctx, const uint32_t* rows,
                             size_t n);

  /// Builds the histograms of several columns of the same node, one
  /// column at a time. `cols[i]` may be nullptr (categorical /
  /// unbinned column): `out[i]` stays empty. `out` must hold
  /// `num_cols` entries. Results are bit-identical to per-column
  /// Build() calls.
  static void BuildMany(const BinnedColumn* const* cols, size_t num_cols,
                        const Column& target, const SplitContext& ctx,
                        const uint32_t* rows, size_t n, NodeHistogram* out);

  /// Derives the sibling: element-wise parent - child.
  static NodeHistogram Subtract(const NodeHistogram& parent,
                                const NodeHistogram& child);

  /// Best split of this column in O(bins); outcome fields and
  /// tie-breaks match FindBestSplit on the binned values.
  SplitOutcome BestSplit(const BinnedColumn& binned, int column_index,
                         const SplitContext& ctx) const;

  /// True when default-constructed (column not binned at this node).
  bool empty() const { return slots_ == 0; }
  /// num_bins + 1: the missing bin is the last slot.
  int slots() const { return slots_; }
  /// Same shape (slot count and task kind), so Subtract is defined.
  bool CompatibleWith(const NodeHistogram& other) const {
    return slots_ == other.slots_ && num_classes_ == other.num_classes_;
  }
  /// Payload bytes, for task memory accounting.
  size_t ByteSize() const;

  /// Raw payloads, for the bit-exact parity tests. Classification: slots() *
  /// num_classes entries, bin-major. Regression: slots() entries.
  const int64_t* cls_data() const { return cls_.data(); }
  size_t cls_size() const { return cls_.size(); }
  const HistRegBin* reg_data() const { return reg_.data(); }
  size_t reg_size() const { return reg_.size(); }

 private:
  int slots_ = 0;        // num_bins + 1 (missing bin last)
  int num_classes_ = 0;  // 0 for regression
  std::vector<int64_t> cls_;    // slots_ * num_classes_, bin-major
  std::vector<HistRegBin> reg_;  // slots_
};

/// A node's histograms, parallel to its candidate-column list; entries
/// for unbinned columns (categorical) stay empty and fall back to the
/// exact kernel.
using NodeHists = std::vector<NodeHistogram>;

}  // namespace treeserver

#endif  // TREESERVER_TREE_HIST_H_
