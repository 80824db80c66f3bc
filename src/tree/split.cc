#include "tree/split.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>

#include "common/logging.h"
#include "common/metrics_registry.h"

namespace treeserver {

namespace {

bool ContainsSorted(const std::vector<int32_t>& v, int32_t x) {
  return std::binary_search(v.begin(), v.end(), x);
}

}  // namespace

SplitCondition::Route SplitCondition::RouteNumeric(double v) const {
  if (IsMissingNumeric(v)) return Route::kStop;
  return v <= threshold ? Route::kLeft : Route::kRight;
}

SplitCondition::Route SplitCondition::RouteCategory(int32_t code) const {
  if (code == kMissingCategory) return Route::kStop;
  if (ContainsSorted(left_categories, code)) return Route::kLeft;
  if (ContainsSorted(seen_categories, code)) return Route::kRight;
  return Route::kStop;  // value unseen during training (Appendix D)
}

bool SplitCondition::TrainRoutesLeftCategory(int32_t code) const {
  if (code == kMissingCategory) return missing_to_left;
  return ContainsSorted(left_categories, code);
}

void SplitCondition::Serialize(BinaryWriter* w) const {
  w->Write(column);
  w->Write(static_cast<uint8_t>(type));
  w->Write(threshold);
  w->WriteVector(left_categories);
  w->WriteVector(seen_categories);
  w->Write(static_cast<uint8_t>(missing_to_left ? 1 : 0));
}

Status SplitCondition::Deserialize(BinaryReader* r, SplitCondition* out) {
  TS_RETURN_IF_ERROR(r->Read(&out->column));
  uint8_t type;
  TS_RETURN_IF_ERROR(r->Read(&type));
  out->type = static_cast<DataType>(type);
  TS_RETURN_IF_ERROR(r->Read(&out->threshold));
  TS_RETURN_IF_ERROR(r->ReadVector(&out->left_categories));
  TS_RETURN_IF_ERROR(r->ReadVector(&out->seen_categories));
  uint8_t missing;
  TS_RETURN_IF_ERROR(r->Read(&missing));
  out->missing_to_left = missing != 0;
  return Status::OK();
}

bool SplitCondition::operator==(const SplitCondition& other) const {
  return column == other.column && type == other.type &&
         threshold == other.threshold &&
         left_categories == other.left_categories &&
         seen_categories == other.seen_categories &&
         missing_to_left == other.missing_to_left;
}

void TargetStats::Serialize(BinaryWriter* w) const {
  w->Write(static_cast<uint8_t>(kind));
  if (kind == TaskKind::kClassification) {
    w->WriteVector(cls.counts);
    w->Write(cls.n);
  } else {
    w->Write(reg.n);
    w->Write(reg.sum);
    w->Write(reg.sum_sq);
  }
}

Status TargetStats::Deserialize(BinaryReader* r, TargetStats* out) {
  uint8_t kind;
  TS_RETURN_IF_ERROR(r->Read(&kind));
  out->kind = static_cast<TaskKind>(kind);
  if (out->kind == TaskKind::kClassification) {
    TS_RETURN_IF_ERROR(r->ReadVector(&out->cls.counts));
    TS_RETURN_IF_ERROR(r->Read(&out->cls.n));
  } else {
    TS_RETURN_IF_ERROR(r->Read(&out->reg.n));
    TS_RETURN_IF_ERROR(r->Read(&out->reg.sum));
    TS_RETURN_IF_ERROR(r->Read(&out->reg.sum_sq));
  }
  return Status::OK();
}

void SplitOutcome::Serialize(BinaryWriter* w) const {
  w->Write(static_cast<uint8_t>(valid ? 1 : 0));
  if (!valid) return;
  condition.Serialize(w);
  w->Write(gain);
  left_stats.Serialize(w);
  right_stats.Serialize(w);
}

Status SplitOutcome::Deserialize(BinaryReader* r, SplitOutcome* out) {
  uint8_t valid;
  TS_RETURN_IF_ERROR(r->Read(&valid));
  out->valid = valid != 0;
  if (!out->valid) return Status::OK();
  TS_RETURN_IF_ERROR(SplitCondition::Deserialize(r, &out->condition));
  TS_RETURN_IF_ERROR(r->Read(&out->gain));
  TS_RETURN_IF_ERROR(TargetStats::Deserialize(r, &out->left_stats));
  TS_RETURN_IF_ERROR(TargetStats::Deserialize(r, &out->right_stats));
  return Status::OK();
}

const char* SplitMethodName(SplitMethod method) {
  return method == SplitMethod::kHistogram ? "histogram" : "exact";
}

namespace {

TargetStats MakeStats(const SplitContext& ctx) {
  return ctx.kind == TaskKind::kClassification
             ? TargetStats::Classification(ctx.num_classes)
             : TargetStats::Regression();
}

void AddRow(TargetStats* stats, const Column& target, uint32_t row) {
  if (stats->kind == TaskKind::kClassification) {
    stats->cls.Add(target.category_at(row));
  } else {
    stats->reg.Add(target.numeric_at(row));
  }
}

}  // namespace

void FinishSplitOutcome(const SplitContext& ctx, const TargetStats& missing,
                        SplitOutcome* out) {
  out->condition.missing_to_left =
      out->left_stats.Count() >= out->right_stats.Count();
  if (missing.Count() > 0) {
    if (out->condition.missing_to_left) {
      out->left_stats.Merge(missing);
    } else {
      out->right_stats.Merge(missing);
    }
  }
  TargetStats parent = out->left_stats;
  parent.Merge(out->right_stats);
  const double n = static_cast<double>(parent.Count());
  const double nl = static_cast<double>(out->left_stats.Count());
  const double nr = static_cast<double>(out->right_stats.Count());
  double child =
      (nl * out->left_stats.ImpurityValue(ctx.impurity) +
       nr * out->right_stats.ImpurityValue(ctx.impurity)) /
      n;
  out->gain = parent.ImpurityValue(ctx.impurity) - child;
  out->valid = true;
}

namespace {

// ---------------------------------------------------------------------
// Case 1 (Appendix B): ordinal attribute, any target. Sort the
// non-missing (value, y) pairs and scan once; each step is one run of
// tied values, so a cut never separates equal values.
// ---------------------------------------------------------------------

template <typename Stats>
struct NumericPair {
  double v;
  typename Stats::Value y;
};

// Thread-local scratch arena for the exact kernels, one per stats type:
// the pair buffer and per-category stat tables are reused across calls,
// so steady-state split evaluation performs no heap allocation
// proportional to the node size. Each comper thread owns one arena;
// kernels never nest.
template <typename Stats>
struct ExactScratch {
  std::vector<NumericPair<Stats>> pairs;
  std::vector<Stats> per_cat;
  std::vector<int32_t> seen;
  std::vector<int32_t> order;
  Stats total;  // CategoricalClassification's one-vs-rest sums
  Stats rest;
};

template <typename Stats>
ExactScratch<Stats>& Scratch() {
  static thread_local ExactScratch<Stats> s;
  return s;
}

template <typename Stats>
typename Stats::Value TargetAt(const Column& target, uint32_t row) {
  if constexpr (std::is_same_v<Stats, ClassStats>) {
    return target.category_at(row);
  } else {
    return target.numeric_at(row);
  }
}

Counter* ExactSortsCounter() {
  static Counter* const c =
      MetricsRegistry::Global().GetCounter("split.exact_sorts");
  return c;
}

template <typename Stats>
SplitOutcome NumericBest(const Column& feature, int column_index,
                         const Column& target, const SplitContext& ctx,
                         const uint32_t* rows, size_t n) {
  SplitOutcome out;
  std::vector<NumericPair<Stats>>& pairs = Scratch<Stats>().pairs;
  pairs.clear();
  pairs.reserve(n);
  TargetStats missing = MakeStats(ctx);
  for (size_t i = 0; i < n; ++i) {
    uint32_t row = rows ? rows[i] : static_cast<uint32_t>(i);
    double v = feature.numeric_at(row);
    if (IsMissingNumeric(v)) {
      AddRow(&missing, target, row);
    } else {
      pairs.push_back({v, TargetAt<Stats>(target, row)});
    }
  }
  const size_t k = pairs.size();
  if (k < 2) return out;
  std::sort(pairs.begin(), pairs.end(),
            [](const NumericPair<Stats>& a, const NumericPair<Stats>& b) {
              return a.v < b.v;
            });
  ExactSortsCounter()->Inc();

  CutScan<Stats>& scan = ThreadCutScan<Stats>();
  scan.total.Reset(ctx.num_classes);
  for (const NumericPair<Stats>& p : pairs) scan.total.Add(p.y);
  // Step i ends at pair i: empty inside a run of ties, else it moves
  // the run's rows one at a time.
  size_t run_start = 0;
  auto step = [&](size_t i, Stats* left, Stats* right) -> int64_t {
    if (i + 1 < k && pairs[i].v == pairs[i + 1].v) return 0;
    for (size_t j = run_start; j <= i; ++j) {
      left->Add(pairs[j].y);
      right->Remove(pairs[j].y);
    }
    const int64_t moved = static_cast<int64_t>(i + 1 - run_start);
    run_start = i + 1;
    return moved;
  };
  const size_t best = ScanCuts(ctx, k, step, &scan, &out);
  if (best == k) return out;  // all values identical
  out.condition.column = column_index;
  out.condition.type = DataType::kNumeric;
  out.condition.threshold = pairs[best].v;
  FinishSplitOutcome(ctx, missing, &out);
  return out;
}

// ---------------------------------------------------------------------
// Case 3 (Appendix B): categorical attribute, categorical target.
// Restrict |S_l| = 1 and enumerate the O(|S_i|) one-vs-rest splits.
// ---------------------------------------------------------------------

SplitOutcome CategoricalClassification(const Column& feature, int column_index,
                                       const Column& target,
                                       const SplitContext& ctx,
                                       const uint32_t* rows, size_t n) {
  SplitOutcome out;
  ExactScratch<ClassStats>& s = Scratch<ClassStats>();
  const int32_t card = feature.cardinality();
  std::vector<ClassStats>& per_cat = s.per_cat;
  if (per_cat.size() < static_cast<size_t>(card)) per_cat.resize(card);
  for (int32_t c = 0; c < card; ++c) per_cat[c].Reset(ctx.num_classes);
  ClassStats& total = s.total;
  total.Reset(ctx.num_classes);
  TargetStats missing = MakeStats(ctx);
  for (size_t i = 0; i < n; ++i) {
    uint32_t row = rows ? rows[i] : static_cast<uint32_t>(i);
    int32_t c = feature.category_at(row);
    if (c == kMissingCategory) {
      AddRow(&missing, target, row);
    } else {
      per_cat[c].Add(target.category_at(row));
      total.Add(target.category_at(row));
    }
  }
  if (total.n < 2) return out;

  std::vector<int32_t>& seen = s.seen;
  seen.clear();
  for (int32_t c = 0; c < card; ++c) {
    if (per_cat[c].n > 0) seen.push_back(c);
  }
  if (seen.size() < 2) return out;  // only one category present

  double best_score = std::numeric_limits<double>::infinity();
  int32_t best_cat = -1;
  const double total_n = static_cast<double>(total.n);
  ClassStats& rest = s.rest;
  for (int32_t c : seen) {
    rest = total;
    rest.Subtract(per_cat[c]);
    double score = WeightedImpurity(per_cat[c], rest, ctx.impurity, total_n);
    if (score < best_score) {
      best_score = score;
      best_cat = c;
    }
  }
  TS_DCHECK(best_cat >= 0);

  out.left_stats = TargetStats::Of(per_cat[best_cat]);
  out.right_stats = TargetStats::Of(total);
  out.right_stats.cls.Subtract(per_cat[best_cat]);
  out.condition.column = column_index;
  out.condition.type = DataType::kCategorical;
  out.condition.left_categories = {best_cat};
  out.condition.seen_categories.assign(seen.begin(), seen.end());
  FinishSplitOutcome(ctx, missing, &out);
  return out;
}

// ---------------------------------------------------------------------
// Case 2 (Appendix B, Breiman et al.): categorical attribute, numeric
// target. Sort categories by mean target value; the optimal subset
// split is a prefix of that order, so one pass over groups suffices.
// ---------------------------------------------------------------------

SplitOutcome CategoricalRegression(const Column& feature, int column_index,
                                   const Column& target,
                                   const SplitContext& ctx,
                                   const uint32_t* rows, size_t n) {
  SplitOutcome out;
  ExactScratch<RegStats>& s = Scratch<RegStats>();
  const int32_t card = feature.cardinality();
  std::vector<RegStats>& per_cat = s.per_cat;
  per_cat.assign(card, RegStats());
  TargetStats missing = MakeStats(ctx);
  for (size_t i = 0; i < n; ++i) {
    uint32_t row = rows ? rows[i] : static_cast<uint32_t>(i);
    int32_t c = feature.category_at(row);
    if (c == kMissingCategory) {
      AddRow(&missing, target, row);
    } else {
      per_cat[c].Add(target.numeric_at(row));
    }
  }

  std::vector<int32_t>& seen = s.seen;
  seen.clear();
  for (int32_t c = 0; c < card; ++c) {
    if (per_cat[c].n > 0) seen.push_back(c);
  }
  if (seen.size() < 2) return out;

  std::vector<int32_t>& order = s.order;
  order.assign(seen.begin(), seen.end());
  std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    return per_cat[a].Mean() < per_cat[b].Mean();
  });

  CutScan<RegStats>& scan = ThreadCutScan<RegStats>();
  scan.total = RegStats();
  for (int32_t c : seen) scan.total.Merge(per_cat[c]);
  auto step = [&](size_t i, RegStats* left, RegStats* right) {
    const RegStats& cat = per_cat[order[i]];
    left->Merge(cat);
    right->Subtract(cat);
    return cat.n;
  };
  const size_t best = ScanCuts(ctx, order.size(), step, &scan, &out);
  if (best == order.size()) return out;

  // The right child is the merge of its own categories, not total -
  // left: that rounds differently and would move regression forests.
  out.right_stats.reg = RegStats();
  for (size_t i = best + 1; i < order.size(); ++i) {
    out.right_stats.reg.Merge(per_cat[order[i]]);
  }
  std::vector<int32_t> left_cats(order.begin(), order.begin() + best + 1);
  std::sort(left_cats.begin(), left_cats.end());
  out.condition.column = column_index;
  out.condition.type = DataType::kCategorical;
  out.condition.left_categories = std::move(left_cats);
  out.condition.seen_categories.assign(seen.begin(), seen.end());
  FinishSplitOutcome(ctx, missing, &out);
  return out;
}

}  // namespace

TargetStats ComputeTargetStats(const Column& target, const SplitContext& ctx,
                               const uint32_t* rows, size_t n) {
  TargetStats stats = MakeStats(ctx);
  for (size_t i = 0; i < n; ++i) {
    uint32_t row = rows ? rows[i] : static_cast<uint32_t>(i);
    AddRow(&stats, target, row);
  }
  return stats;
}

SplitOutcome FindBestSplit(const Column& feature, int column_index,
                           const Column& target, const SplitContext& ctx,
                           const uint32_t* rows, size_t n) {
  if (feature.type() == DataType::kNumeric) {
    return ctx.kind == TaskKind::kClassification
               ? NumericBest<ClassStats>(feature, column_index, target, ctx,
                                         rows, n)
               : NumericBest<RegStats>(feature, column_index, target, ctx,
                                       rows, n);
  }
  return ctx.kind == TaskKind::kClassification
             ? CategoricalClassification(feature, column_index, target, ctx,
                                         rows, n)
             : CategoricalRegression(feature, column_index, target, ctx, rows,
                                     n);
}

SplitOutcome FindRandomSplit(const Column& feature, int column_index,
                             const Column& target, const SplitContext& ctx,
                             const uint32_t* rows, size_t n, Rng* rng) {
  SplitOutcome out;
  TargetStats missing = MakeStats(ctx);
  if (feature.type() == DataType::kNumeric) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < n; ++i) {
      uint32_t row = rows ? rows[i] : static_cast<uint32_t>(i);
      double v = feature.numeric_at(row);
      if (IsMissingNumeric(v)) continue;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    if (!(lo < hi)) return out;  // constant or all-missing column
    double threshold = rng->UniformDouble(lo, hi);
    out.left_stats = MakeStats(ctx);
    out.right_stats = MakeStats(ctx);
    for (size_t i = 0; i < n; ++i) {
      uint32_t row = rows ? rows[i] : static_cast<uint32_t>(i);
      double v = feature.numeric_at(row);
      if (IsMissingNumeric(v)) {
        AddRow(&missing, target, row);
      } else if (v <= threshold) {
        AddRow(&out.left_stats, target, row);
      } else {
        AddRow(&out.right_stats, target, row);
      }
    }
    out.condition.column = column_index;
    out.condition.type = DataType::kNumeric;
    out.condition.threshold = threshold;
    FinishSplitOutcome(ctx, missing, &out);
    return out;
  }

  // Categorical: pick a random nonempty proper subset of the seen
  // categories as S_l.
  const int32_t card = feature.cardinality();
  std::vector<int64_t> cat_count(card, 0);
  for (size_t i = 0; i < n; ++i) {
    uint32_t row = rows ? rows[i] : static_cast<uint32_t>(i);
    int32_t c = feature.category_at(row);
    if (c != kMissingCategory) ++cat_count[c];
  }
  std::vector<int32_t> seen;
  for (int32_t c = 0; c < card; ++c) {
    if (cat_count[c] > 0) seen.push_back(c);
  }
  if (seen.size() < 2) return out;

  std::vector<int32_t> left_cats;
  for (int attempt = 0; attempt < 8 && (left_cats.empty() ||
                                        left_cats.size() == seen.size());
       ++attempt) {
    left_cats.clear();
    for (int32_t c : seen) {
      if (rng->Bernoulli(0.5)) left_cats.push_back(c);
    }
  }
  if (left_cats.empty() || left_cats.size() == seen.size()) {
    left_cats = {seen[rng->Uniform(seen.size())]};
    if (left_cats.size() == seen.size()) return out;
  }
  std::sort(left_cats.begin(), left_cats.end());

  out.left_stats = MakeStats(ctx);
  out.right_stats = MakeStats(ctx);
  for (size_t i = 0; i < n; ++i) {
    uint32_t row = rows ? rows[i] : static_cast<uint32_t>(i);
    int32_t c = feature.category_at(row);
    if (c == kMissingCategory) {
      AddRow(&missing, target, row);
    } else if (ContainsSorted(left_cats, c)) {
      AddRow(&out.left_stats, target, row);
    } else {
      AddRow(&out.right_stats, target, row);
    }
  }
  out.condition.column = column_index;
  out.condition.type = DataType::kCategorical;
  out.condition.left_categories = std::move(left_cats);
  out.condition.seen_categories = std::move(seen);
  FinishSplitOutcome(ctx, missing, &out);
  return out;
}

}  // namespace treeserver
