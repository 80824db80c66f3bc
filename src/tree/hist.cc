#include "tree/hist.h"

#include <limits>

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
                   size_t n, HistRegBin* bins) {
  for (size_t i = 0; i < n; ++i) {
    const uint32_t row = rows ? rows[i] : static_cast<uint32_t>(i);
    HistRegBin& rb = bins[codes[row]];
    const double v = y[row];
    ++rb.n;
    rb.sum += v;
    rb.sum_sq += v * v;
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
      h.reg_.assign(h.slots_, HistRegBin{});
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
  if (!parent.reg_.empty()) {
    h.reg_.resize(parent.reg_.size());
    for (size_t i = 0; i < parent.reg_.size(); ++i) {
      h.reg_[i].n = parent.reg_[i].n - child.reg_[i].n;
      h.reg_[i].sum = parent.reg_[i].sum - child.reg_[i].sum;
      h.reg_[i].sum_sq = parent.reg_[i].sum_sq - child.reg_[i].sum_sq;
    }
  }
  return h;
}

size_t NodeHistogram::ByteSize() const {
  return cls_.size() * sizeof(int64_t) + reg_.size() * sizeof(HistRegBin);
}

SplitOutcome NodeHistogram::BestSplit(const BinnedColumn& binned,
                                      int column_index,
                                      const SplitContext& ctx) const {
  TS_DCHECK(slots_ == binned.missing_code() + 1);
  SplitOutcome out;
  const int num_value_bins = slots_ - 1;

  if (ctx.kind == TaskKind::kClassification) {
    const int c = num_classes_;
    TargetStats missing = TargetStats::Classification(c);
    for (int j = 0; j < c; ++j) {
      int64_t cnt = cls_[static_cast<size_t>(num_value_bins) * c + j];
      missing.cls.counts[j] = cnt;
      missing.cls.n += cnt;
    }
    ClassStats total(c);
    for (int b = 0; b < num_value_bins; ++b) {
      for (int j = 0; j < c; ++j) {
        int64_t cnt = cls_[static_cast<size_t>(b) * c + j];
        total.counts[j] += cnt;
        total.n += cnt;
      }
    }
    if (total.n < 2) return out;

    ClassStats left(c);
    ClassStats right = total;
    ClassStats best_left(c);
    double best_score = std::numeric_limits<double>::infinity();
    int best_bin = -1;
    const double kd = static_cast<double>(total.n);
    for (int b = 0; b < num_value_bins; ++b) {
      int64_t bn = 0;
      for (int j = 0; j < c; ++j) {
        int64_t cnt = cls_[static_cast<size_t>(b) * c + j];
        left.counts[j] += cnt;
        right.counts[j] -= cnt;
        bn += cnt;
      }
      if (bn == 0) continue;  // empty bin: not a distinct-value boundary
      left.n += bn;
      right.n -= bn;
      if (right.n == 0) break;  // no data to the right: not a cut
      double score = (static_cast<double>(left.n) *
                          left.ImpurityValue(ctx.impurity) +
                      static_cast<double>(right.n) *
                          right.ImpurityValue(ctx.impurity)) /
                     kd;
      if (score < best_score) {
        best_score = score;
        best_bin = b;
        best_left = left;
      }
    }
    if (best_bin < 0) return out;  // all rows in one bin

    out.left_stats = TargetStats::Classification(c);
    out.left_stats.cls = best_left;
    out.right_stats = TargetStats::Classification(c);
    out.right_stats.cls = total;
    for (int j = 0; j < c; ++j) {
      out.right_stats.cls.counts[j] -= best_left.counts[j];
    }
    out.right_stats.cls.n -= best_left.n;
    out.condition.column = column_index;
    out.condition.type = DataType::kNumeric;
    out.condition.threshold = binned.upper(best_bin);
    FinishSplitOutcome(ctx, missing, &out);
    return out;
  }

  TargetStats missing = TargetStats::Regression();
  missing.reg.n = reg_[num_value_bins].n;
  missing.reg.sum = reg_[num_value_bins].sum;
  missing.reg.sum_sq = reg_[num_value_bins].sum_sq;
  RegStats total;
  for (int b = 0; b < num_value_bins; ++b) {
    total.n += reg_[b].n;
    total.sum += reg_[b].sum;
    total.sum_sq += reg_[b].sum_sq;
  }
  if (total.n < 2) return out;

  RegStats left;
  RegStats right = total;
  RegStats best_left;
  double best_score = std::numeric_limits<double>::infinity();
  int best_bin = -1;
  const double kd = static_cast<double>(total.n);
  for (int b = 0; b < num_value_bins; ++b) {
    const HistRegBin& rb = reg_[b];
    if (rb.n == 0) continue;
    left.n += rb.n;
    left.sum += rb.sum;
    left.sum_sq += rb.sum_sq;
    right.n -= rb.n;
    right.sum -= rb.sum;
    right.sum_sq -= rb.sum_sq;
    if (right.n == 0) break;
    double score = (static_cast<double>(left.n) * left.Variance() +
                    static_cast<double>(right.n) * right.Variance()) /
                   kd;
    if (score < best_score) {
      best_score = score;
      best_bin = b;
      best_left = left;
    }
  }
  if (best_bin < 0) return out;

  out.left_stats = TargetStats::Regression();
  out.left_stats.reg = best_left;
  out.right_stats = TargetStats::Regression();
  out.right_stats.reg.n = total.n - best_left.n;
  out.right_stats.reg.sum = total.sum - best_left.sum;
  out.right_stats.reg.sum_sq = total.sum_sq - best_left.sum_sq;
  out.condition.column = column_index;
  out.condition.type = DataType::kNumeric;
  out.condition.threshold = binned.upper(best_bin);
  FinishSplitOutcome(ctx, missing, &out);
  return out;
}

}  // namespace treeserver
