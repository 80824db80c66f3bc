#ifndef TREESERVER_TABLE_BINNED_H_
#define TREESERVER_TABLE_BINNED_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "table/data_table.h"

namespace treeserver {

/// Quantile-binned view of one numeric column.
///
/// Every non-missing value is mapped to a bin code in [0, num_bins);
/// missing values map to the dedicated missing bin `num_bins`. Bin b
/// covers the value range (upper(b-1), upper(b)], where upper(b) is the
/// largest value of the column that falls into bin b — an actual data
/// value, so histogram split thresholds stay real observations exactly
/// like exact-mode thresholds. When the column has at most `max_bins`
/// distinct values each distinct value gets its own bin and binned
/// split finding degenerates to the exact algorithm.
///
/// Codes are stored as uint8 when num_bins + 1 (the missing bin) fits
/// in a byte, uint16 otherwise. Boundaries are shared (shared_ptr) so a
/// rebinned gathered subset reuses the full-table boundaries.
class BinnedColumn {
 public:
  /// Builds bins + codes from a numeric column. `max_bins` is clamped
  /// to [2, 65535].
  static std::unique_ptr<BinnedColumn> Build(const Column& column,
                                             int max_bins);

  /// Re-codes a gathered subset of the same underlying column against
  /// this column's boundaries: row i of `gathered` receives the same
  /// code the original row had in the full table.
  std::unique_ptr<BinnedColumn> BindGathered(const Column& gathered) const;

  /// Value bins (excluding the missing bin).
  int num_bins() const { return num_bins_; }
  /// Code used for missing values; also the histogram slot count is
  /// missing_code() + 1.
  int missing_code() const { return num_bins_; }
  size_t num_rows() const {
    return wide_ ? codes16_.size() : codes8_.size();
  }
  bool wide() const { return wide_; }

  uint16_t code_at(size_t row) const {
    return wide_ ? codes16_[row] : codes8_[row];
  }

  /// Raw code arrays for the histogram builds and the quantized serving
  /// layout: exactly one is non-null, matching wide().
  const uint8_t* codes8_data() const {
    return wide_ ? nullptr : codes8_.data();
  }
  const uint16_t* codes16_data() const {
    return wide_ ? codes16_.data() : nullptr;
  }

  /// Largest column value in bin b — the split threshold "v <= upper".
  double upper(int bin) const { return (*upper_)[bin]; }

  /// Bin code of a raw value (missing_code() for NaN).
  uint16_t CodeOf(double v) const;

  /// Payload bytes (codes + boundaries), for memory accounting.
  size_t ByteSize() const;

 private:
  BinnedColumn() = default;

  int num_bins_ = 0;
  bool wide_ = false;
  std::shared_ptr<const std::vector<double>> upper_;
  std::vector<uint8_t> codes8_;
  std::vector<uint16_t> codes16_;
};

/// Per-table bin index: one BinnedColumn per numeric feature column,
/// built once at table load and shared read-only across every tree and
/// task in the pool. Categorical columns and the target are not binned
/// (categorical split finding is already a per-category histogram).
class BinnedTable {
 public:
  /// Bins every numeric feature column of `table`. O(n log n) per
  /// column, once per table.
  static std::shared_ptr<const BinnedTable> Build(const DataTable& table,
                                                  int max_bins);

  /// Binned view of a gathered subset (a subtree-task's D_x): columns
  /// in `columns` that are numeric re-code their gathered values
  /// against this table's global boundaries, so a subtree task splits
  /// on exactly the bins the full-table view would.
  static std::shared_ptr<const BinnedTable> BindGathered(
      const BinnedTable& global, const DataTable& gathered,
      const std::vector<int>& columns);

  /// The binned view of column `i`, or nullptr when the column is not
  /// binned (categorical, target, or absent from a gathered subset).
  const BinnedColumn* column(int i) const {
    return i >= 0 && i < static_cast<int>(columns_.size())
               ? columns_[i].get()
               : nullptr;
  }

  int max_bins() const { return max_bins_; }
  size_t ByteSize() const;

 private:
  BinnedTable() = default;

  int max_bins_ = 0;
  std::vector<std::unique_ptr<BinnedColumn>> columns_;
};

}  // namespace treeserver

#endif  // TREESERVER_TABLE_BINNED_H_
