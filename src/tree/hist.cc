#include "tree/hist.h"

#include "common/logging.h"
#include "common/metrics_registry.h"

namespace treeserver {

namespace {

Counter* BuildsCounter() {
  static Counter* const c =
      MetricsRegistry::Global().GetCounter("split.histogram_builds");
  return c;
}

Counter* SubtractionsCounter() {
  static Counter* const c =
      MetricsRegistry::Global().GetCounter("split.sibling_subtractions");
  return c;
}

/// Adds one column's rows into caller-zeroed class counts (slots * c,
/// bin-major). `rows` == nullptr means the identity mapping [0, n);
/// codes and labels are indexed by row id, not by position in `rows`.
template <typename Code>
void AccumulateCls(const Code* codes, const int32_t* labels,
                   const uint32_t* rows, size_t n, int c, int64_t* counts) {
  if (rows == nullptr) {
    for (size_t i = 0; i < n; ++i) {
      counts[static_cast<size_t>(codes[i]) * c + labels[i]]++;
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      const uint32_t row = rows[i];
      counts[static_cast<size_t>(codes[row]) * c + labels[row]]++;
    }
  }
}

/// Regression twin: one accumulator per bin, fed in ascending position
/// order, so the double sums are reproducible bit for bit.
template <typename Code>
void AccumulateReg(const Code* codes, const double* y, const uint32_t* rows,
                   size_t n, RegStats* bins) {
  for (size_t i = 0; i < n; ++i) {
    const uint32_t row = rows ? rows[i] : static_cast<uint32_t>(i);
    bins[codes[row]].Add(y[row]);
  }
}

}  // namespace

NodeHistogram NodeHistogram::Build(const BinnedColumn& binned,
                                   const Column& target,
                                   const SplitContext& ctx,
                                   const uint32_t* rows, size_t n) {
  NodeHistogram h;
  const BinnedColumn* col = &binned;
  BuildMany(&col, 1, target, ctx, rows, n, &h);
  return h;
}

void NodeHistogram::BuildMany(const BinnedColumn* const* cols, size_t num_cols,
                              const Column& target, const SplitContext& ctx,
                              const uint32_t* rows, size_t n,
                              NodeHistogram* out) {
  const bool cls = ctx.kind == TaskKind::kClassification;
  const int c = cls ? ctx.num_classes : 0;
  const int32_t* labels = cls ? target.categorical_codes().data() : nullptr;
  const double* y = cls ? nullptr : target.numeric_values().data();

  for (size_t i = 0; i < num_cols; ++i) {
    out[i] = NodeHistogram();
    const BinnedColumn* bc = cols[i];
    if (bc == nullptr) continue;
    BuildsCounter()->Inc();
    NodeHistogram& h = out[i];
    h.slots_ = bc->missing_code() + 1;
    if (cls) {
      h.num_classes_ = c;
      h.cls_.assign(static_cast<size_t>(h.slots_) * c, 0);
      if (bc->wide()) {
        AccumulateCls(bc->codes16_data(), labels, rows, n, c, h.cls_.data());
      } else {
        AccumulateCls(bc->codes8_data(), labels, rows, n, c, h.cls_.data());
      }
    } else {
      h.reg_.assign(h.slots_, RegStats());
      if (bc->wide()) {
        AccumulateReg(bc->codes16_data(), y, rows, n, h.reg_.data());
      } else {
        AccumulateReg(bc->codes8_data(), y, rows, n, h.reg_.data());
      }
    }
  }
}

NodeHistogram NodeHistogram::Subtract(const NodeHistogram& parent,
                                      const NodeHistogram& child) {
  TS_CHECK(parent.CompatibleWith(child)) << "histogram shape mismatch";
  SubtractionsCounter()->Inc();
  NodeHistogram h;
  h.slots_ = parent.slots_;
  h.num_classes_ = parent.num_classes_;
  if (!parent.cls_.empty()) {
    h.cls_.resize(parent.cls_.size());
    for (size_t i = 0; i < parent.cls_.size(); ++i) {
      h.cls_[i] = parent.cls_[i] - child.cls_[i];
    }
  }
  h.reg_ = parent.reg_;
  for (size_t i = 0; i < h.reg_.size(); ++i) h.reg_[i].Subtract(child.reg_[i]);
  return h;
}

size_t NodeHistogram::ByteSize() const {
  return cls_.size() * sizeof(int64_t) + reg_.size() * sizeof(RegStats);
}

SplitOutcome NodeHistogram::BestSplit(const BinnedColumn& binned,
                                      int column_index,
                                      const SplitContext& ctx) const {
  TS_DCHECK(slots_ == binned.missing_code() + 1);
  SplitOutcome out;
  TargetStats missing;
  // One step per value bin; the missing bin (last) is not scanned.
  const size_t num_value_bins = static_cast<size_t>(slots_) - 1;
  size_t best = num_value_bins;
  if (ctx.kind == TaskKind::kClassification) {
    const int c = num_classes_;
    auto bin = [&](size_t b) { return &cls_[b * c]; };
    missing = TargetStats::Classification(c);
    for (int j = 0; j < c; ++j) missing.cls.Add(j, bin(num_value_bins)[j]);
    CutScan<ClassStats>& scan = ThreadCutScan<ClassStats>();
    scan.total.Reset(c);
    for (size_t b = 0; b < num_value_bins; ++b) {
      for (int j = 0; j < c; ++j) scan.total.Add(j, bin(b)[j]);
    }
    auto step = [&](size_t b, ClassStats* left, ClassStats* right) {
      int64_t moved = 0;
      for (int j = 0; j < c; ++j) {
        left->Add(j, bin(b)[j]);
        right->Remove(j, bin(b)[j]);
        moved += bin(b)[j];
      }
      return moved;
    };
    best = ScanCuts(ctx, num_value_bins, step, &scan, &out);
  } else {
    missing = TargetStats::Of(reg_[num_value_bins]);
    CutScan<RegStats>& scan = ThreadCutScan<RegStats>();
    scan.total = RegStats();
    for (size_t b = 0; b < num_value_bins; ++b) scan.total.Merge(reg_[b]);
    // An empty bin moves nothing, not even the rounding residue a bin
    // derived by Subtract can hold.
    auto step = [&](size_t b, RegStats* left, RegStats* right) -> int64_t {
      if (reg_[b].n == 0) return 0;
      left->Merge(reg_[b]);
      right->Subtract(reg_[b]);
      return reg_[b].n;
    };
    best = ScanCuts(ctx, num_value_bins, step, &scan, &out);
  }
  if (best == num_value_bins) return out;  // all rows in one bin
  out.condition.column = column_index;
  out.condition.type = DataType::kNumeric;
  out.condition.threshold = binned.upper(static_cast<int>(best));
  FinishSplitOutcome(ctx, missing, &out);
  return out;
}

}  // namespace treeserver
