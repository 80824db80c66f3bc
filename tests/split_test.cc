#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "tree/split.h"
#include "tree/trainer.h"

namespace treeserver {
namespace {

SplitContext ClsCtx(int classes, Impurity imp = Impurity::kGini) {
  return SplitContext{TaskKind::kClassification, imp, classes};
}
SplitContext RegCtx() {
  return SplitContext{TaskKind::kRegression, Impurity::kVariance, 0};
}

double ChildScore(const SplitOutcome& o, const SplitContext& ctx) {
  double nl = static_cast<double>(o.n_left());
  double nr = static_cast<double>(o.n_right());
  return (nl * o.left_stats.ImpurityValue(ctx.impurity) +
          nr * o.right_stats.ImpurityValue(ctx.impurity)) /
         (nl + nr);
}

TEST(ImpurityTest, GiniAndEntropyValues) {
  ClassStats s(2);
  s.Add(0, 5);
  s.Add(1, 5);
  EXPECT_DOUBLE_EQ(s.Gini(), 0.5);
  EXPECT_DOUBLE_EQ(s.Entropy(), 1.0);

  ClassStats pure(3);
  pure.Add(2, 7);
  EXPECT_DOUBLE_EQ(pure.Gini(), 0.0);
  EXPECT_DOUBLE_EQ(pure.Entropy(), 0.0);
  EXPECT_TRUE(pure.IsPure());
  EXPECT_EQ(pure.Majority(), 2);
}

TEST(ImpurityTest, PmfSumsToOne) {
  ClassStats s(3);
  s.Add(0, 1);
  s.Add(1, 3);
  auto p = s.Pmf();
  EXPECT_FLOAT_EQ(p[0] + p[1] + p[2], 1.0f);
  EXPECT_FLOAT_EQ(p[1], 0.75f);
}

TEST(ImpurityTest, RegressionVariance) {
  RegStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.Add(v);
  EXPECT_DOUBLE_EQ(s.Mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.Variance(), 1.25);
  s.Remove(4.0);
  EXPECT_DOUBLE_EQ(s.Mean(), 2.0);
  RegStats pure;
  pure.Add(3.0);
  pure.Add(3.0);
  EXPECT_TRUE(pure.IsPure());
}

TEST(SplitTest, NumericClassificationPerfectSplit) {
  auto x = Column::Numeric("x", {1, 2, 3, 10, 11, 12});
  auto y = Column::Categorical("y", {0, 0, 0, 1, 1, 1}, 2);
  SplitOutcome o = FindBestSplit(*x, 0, *y, ClsCtx(2), nullptr, 6);
  ASSERT_TRUE(o.valid);
  EXPECT_EQ(o.condition.column, 0);
  EXPECT_EQ(o.condition.type, DataType::kNumeric);
  EXPECT_DOUBLE_EQ(o.condition.threshold, 3.0);
  EXPECT_EQ(o.n_left(), 3);
  EXPECT_EQ(o.n_right(), 3);
  EXPECT_NEAR(o.gain, 0.5, 1e-12);  // parent gini 0.5, children pure
}

TEST(SplitTest, ConstantColumnIsInvalid) {
  auto x = Column::Numeric("x", {5, 5, 5, 5});
  auto y = Column::Categorical("y", {0, 1, 0, 1}, 2);
  EXPECT_FALSE(FindBestSplit(*x, 0, *y, ClsCtx(2), nullptr, 4).valid);
}

TEST(SplitTest, SingleRowIsInvalid) {
  auto x = Column::Numeric("x", {5});
  auto y = Column::Categorical("y", {0}, 2);
  EXPECT_FALSE(FindBestSplit(*x, 0, *y, ClsCtx(2), nullptr, 1).valid);
}

TEST(SplitTest, RowSubsetIsRespected) {
  auto x = Column::Numeric("x", {1, 100, 2, 200, 3, 300});
  auto y = Column::Categorical("y", {0, 1, 0, 1, 0, 1}, 2);
  std::vector<uint32_t> rows = {0, 2, 4};  // only label-0 rows
  SplitOutcome o =
      FindBestSplit(*x, 0, *y, ClsCtx(2), rows.data(), rows.size());
  // Pure subset: any split has zero gain, trainer would reject; the
  // finder may still report a candidate but with gain 0.
  if (o.valid) {
    EXPECT_NEAR(o.gain, 0.0, 1e-12);
  }
}

TEST(SplitTest, NumericRegressionFindsCut) {
  auto x = Column::Numeric("x", {1, 2, 3, 4, 5, 6});
  auto y = Column::Numeric("y", {10, 10, 10, 50, 50, 50});
  SplitOutcome o = FindBestSplit(*x, 0, *y, RegCtx(), nullptr, 6);
  ASSERT_TRUE(o.valid);
  EXPECT_DOUBLE_EQ(o.condition.threshold, 3.0);
  EXPECT_DOUBLE_EQ(o.left_stats.reg.Mean(), 10.0);
  EXPECT_DOUBLE_EQ(o.right_stats.reg.Mean(), 50.0);
  EXPECT_GT(o.gain, 0.0);
}

TEST(SplitTest, CategoricalClassificationOneVsRest) {
  // Category 1 is perfectly predictive of class 1.
  auto x = Column::Categorical("x", {0, 1, 2, 1, 0, 2, 1}, 3);
  auto y = Column::Categorical("y", {0, 1, 0, 1, 0, 0, 1}, 2);
  SplitOutcome o = FindBestSplit(*x, 3, *y, ClsCtx(2), nullptr, 7);
  ASSERT_TRUE(o.valid);
  EXPECT_EQ(o.condition.left_categories, (std::vector<int32_t>{1}));
  EXPECT_EQ(o.condition.seen_categories, (std::vector<int32_t>{0, 1, 2}));
  EXPECT_EQ(o.n_left(), 3);
  EXPECT_NEAR(ChildScore(o, ClsCtx(2)), 0.0, 1e-12);
}

TEST(SplitTest, CategoricalSingleSeenCategoryInvalid) {
  auto x = Column::Categorical("x", {2, 2, 2}, 5);
  auto y = Column::Categorical("y", {0, 1, 0}, 2);
  EXPECT_FALSE(FindBestSplit(*x, 0, *y, ClsCtx(2), nullptr, 3).valid);
}

TEST(SplitTest, CategoricalRegressionBreimanPrefixIsOptimal) {
  // 4 categories with means 1, 5, 9, 13; brute force over all subsets
  // must not beat the prefix cut Breiman's method returns.
  std::vector<int32_t> xv;
  std::vector<double> yv;
  Rng rng(99);
  for (int c = 0; c < 4; ++c) {
    for (int i = 0; i < 8; ++i) {
      xv.push_back(c);
      yv.push_back(1.0 + 4.0 * c + 0.2 * rng.Normal());
    }
  }
  auto x = Column::Categorical("x", xv, 4);
  auto y = Column::Numeric("y", yv);
  SplitOutcome o = FindBestSplit(*x, 0, *y, RegCtx(), nullptr, xv.size());
  ASSERT_TRUE(o.valid);
  double best_score = ChildScore(o, RegCtx());

  // Brute force all 2^4 - 2 nonempty proper subsets.
  double brute = std::numeric_limits<double>::infinity();
  for (int mask = 1; mask < 15; ++mask) {
    RegStats l, r;
    for (size_t i = 0; i < xv.size(); ++i) {
      if ((mask >> xv[i]) & 1) {
        l.Add(yv[i]);
      } else {
        r.Add(yv[i]);
      }
    }
    if (l.n == 0 || r.n == 0) continue;
    double score = (static_cast<double>(l.n) * l.Variance() +
                    static_cast<double>(r.n) * r.Variance()) /
                   static_cast<double>(xv.size());
    brute = std::min(brute, score);
  }
  EXPECT_NEAR(best_score, brute, 1e-9);
}

TEST(SplitTest, MissingRoutedToLargerChild) {
  auto x = Column::Numeric(
      "x", {1, 2, 3, 10, 11, MissingNumeric(), MissingNumeric()});
  auto y = Column::Categorical("y", {0, 0, 0, 1, 1, 0, 1}, 2);
  SplitOutcome o = FindBestSplit(*x, 0, *y, ClsCtx(2), nullptr, 7);
  ASSERT_TRUE(o.valid);
  // Non-missing split: 3 left vs 2 right -> missing goes left.
  EXPECT_TRUE(o.condition.missing_to_left);
  EXPECT_EQ(o.n_left(), 5);
  EXPECT_EQ(o.n_right(), 2);
  // Total row count preserved.
  EXPECT_EQ(o.n_left() + o.n_right(), 7);
}

TEST(SplitTest, AllMissingColumnInvalid) {
  auto x = Column::Numeric(
      "x", {MissingNumeric(), MissingNumeric(), MissingNumeric()});
  auto y = Column::Categorical("y", {0, 1, 0}, 2);
  EXPECT_FALSE(FindBestSplit(*x, 0, *y, ClsCtx(2), nullptr, 3).valid);
}

TEST(SplitTest, RoutePredictSemantics) {
  SplitCondition cond;
  cond.column = 0;
  cond.type = DataType::kNumeric;
  cond.threshold = 5.0;
  EXPECT_EQ(cond.RouteNumeric(5.0), SplitCondition::Route::kLeft);
  EXPECT_EQ(cond.RouteNumeric(5.1), SplitCondition::Route::kRight);
  EXPECT_EQ(cond.RouteNumeric(MissingNumeric()),
            SplitCondition::Route::kStop);

  SplitCondition cat;
  cat.column = 1;
  cat.type = DataType::kCategorical;
  cat.left_categories = {1, 3};
  cat.seen_categories = {0, 1, 2, 3};
  EXPECT_EQ(cat.RouteCategory(3), SplitCondition::Route::kLeft);
  EXPECT_EQ(cat.RouteCategory(0), SplitCondition::Route::kRight);
  EXPECT_EQ(cat.RouteCategory(7), SplitCondition::Route::kStop);  // unseen
  EXPECT_EQ(cat.RouteCategory(kMissingCategory),
            SplitCondition::Route::kStop);
}

TEST(SplitTest, TrainRouteSendsMissingToMajoritySide) {
  SplitCondition cond;
  cond.column = 0;
  cond.type = DataType::kNumeric;
  cond.threshold = 5.0;
  cond.missing_to_left = false;
  EXPECT_FALSE(cond.TrainRoutesLeftNumeric(MissingNumeric()));
  cond.missing_to_left = true;
  EXPECT_TRUE(cond.TrainRoutesLeftNumeric(MissingNumeric()));
  EXPECT_TRUE(cond.TrainRoutesLeftNumeric(4.0));

  SplitCondition cat;
  cat.type = DataType::kCategorical;
  cat.left_categories = {2};
  cat.missing_to_left = false;
  EXPECT_TRUE(cat.TrainRoutesLeftCategory(2));
  EXPECT_FALSE(cat.TrainRoutesLeftCategory(kMissingCategory));
}

TEST(SplitTest, OutcomeSerializationRoundTrip) {
  auto x = Column::Numeric("x", {1, 2, 3, 10, 11, 12});
  auto y = Column::Categorical("y", {0, 0, 0, 1, 1, 1}, 2);
  SplitOutcome o = FindBestSplit(*x, 2, *y, ClsCtx(2), nullptr, 6);
  ASSERT_TRUE(o.valid);

  BinaryWriter w;
  o.Serialize(&w);
  BinaryReader r(w.buffer());
  SplitOutcome back;
  ASSERT_TRUE(SplitOutcome::Deserialize(&r, &back).ok());
  EXPECT_TRUE(back.valid);
  EXPECT_TRUE(back.condition == o.condition);
  EXPECT_DOUBLE_EQ(back.gain, o.gain);
  EXPECT_EQ(back.left_stats.cls.counts, o.left_stats.cls.counts);
  EXPECT_EQ(back.n_right(), o.n_right());
}

TEST(SplitTest, InvalidOutcomeSerializes) {
  SplitOutcome o;
  BinaryWriter w;
  o.Serialize(&w);
  BinaryReader r(w.buffer());
  SplitOutcome back;
  ASSERT_TRUE(SplitOutcome::Deserialize(&r, &back).ok());
  EXPECT_FALSE(back.valid);
}

TEST(SplitTest, RandomSplitNumericBothSidesNonEmpty) {
  auto x = Column::Numeric("x", {1, 2, 3, 4, 5, 6, 7, 8});
  auto y = Column::Categorical("y", {0, 1, 0, 1, 0, 1, 0, 1}, 2);
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    SplitOutcome o = FindRandomSplit(*x, 0, *y, ClsCtx(2), nullptr, 8, &rng);
    ASSERT_TRUE(o.valid);
    EXPECT_GT(o.n_left(), 0);
    EXPECT_GT(o.n_right(), 0);
    EXPECT_GE(o.condition.threshold, 1.0);
    EXPECT_LE(o.condition.threshold, 8.0);
  }
}

TEST(SplitTest, RandomSplitCategoricalProperSubset) {
  auto x = Column::Categorical("x", {0, 1, 2, 3, 0, 1, 2, 3}, 4);
  auto y = Column::Categorical("y", {0, 1, 0, 1, 0, 1, 0, 1}, 2);
  Rng rng(6);
  for (int i = 0; i < 50; ++i) {
    SplitOutcome o = FindRandomSplit(*x, 0, *y, ClsCtx(2), nullptr, 8, &rng);
    ASSERT_TRUE(o.valid);
    EXPECT_GE(o.condition.left_categories.size(), 1u);
    EXPECT_LT(o.condition.left_categories.size(), 4u);
  }
}

TEST(SplitTest, RandomSplitConstantColumnInvalid) {
  auto x = Column::Numeric("x", {3, 3, 3});
  auto y = Column::Categorical("y", {0, 1, 0}, 2);
  Rng rng(1);
  EXPECT_FALSE(FindRandomSplit(*x, 0, *y, ClsCtx(2), nullptr, 3, &rng).valid);
}

TEST(SplitTest, ComputeTargetStatsClassification) {
  auto y = Column::Categorical("y", {0, 1, 1, 2, 1}, 3);
  TargetStats s = ComputeTargetStats(*y, ClsCtx(3), nullptr, 5);
  EXPECT_EQ(s.Count(), 5);
  EXPECT_EQ(s.cls.counts, (std::vector<int64_t>{1, 3, 1}));
  EXPECT_EQ(s.cls.Majority(), 1);
}

TEST(SplitTest, SplitBeatsTieBreaksOnColumn) {
  SplitOutcome a, b;
  a.valid = b.valid = true;
  a.gain = b.gain = 0.25;
  a.condition.column = 2;
  b.condition.column = 5;
  EXPECT_TRUE(SplitBeats(a, b));
  EXPECT_FALSE(SplitBeats(b, a));
  b.gain = 0.3;
  EXPECT_TRUE(SplitBeats(b, a));
  SplitOutcome invalid;
  EXPECT_TRUE(SplitBeats(a, invalid));
  EXPECT_FALSE(SplitBeats(invalid, a));
}

// ------------------------------------------------------------------
// Property sweep: the one-pass exact finder must match a brute-force
// enumeration of every distinct threshold, for random data, across
// impurities and dataset shapes.
// ------------------------------------------------------------------

class NumericExactnessTest
    : public ::testing::TestWithParam<std::tuple<Impurity, int, int>> {};

TEST_P(NumericExactnessTest, MatchesBruteForce) {
  auto [impurity, n, distinct] = GetParam();
  Rng rng(static_cast<uint64_t>(n) * 7919 + distinct);
  std::vector<double> xv(n);
  std::vector<int32_t> yv(n);
  for (int i = 0; i < n; ++i) {
    xv[i] = static_cast<double>(rng.Uniform(distinct));
    yv[i] = static_cast<int32_t>(rng.Uniform(3));
  }
  auto x = Column::Numeric("x", xv);
  auto y = Column::Categorical("y", yv, 3);
  SplitContext ctx = ClsCtx(3, impurity);
  SplitOutcome o = FindBestSplit(*x, 0, *y, ctx, nullptr, n);

  // Brute force over all distinct values as thresholds.
  std::vector<double> candidates(xv.begin(), xv.end());
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  double brute = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c + 1 < candidates.size(); ++c) {
    ClassStats l(3), r(3);
    for (int i = 0; i < n; ++i) {
      if (xv[i] <= candidates[c]) {
        l.Add(yv[i]);
      } else {
        r.Add(yv[i]);
      }
    }
    double score = (static_cast<double>(l.n) * l.ImpurityValue(impurity) +
                    static_cast<double>(r.n) * r.ImpurityValue(impurity)) /
                   n;
    brute = std::min(brute, score);
  }

  if (candidates.size() < 2) {
    EXPECT_FALSE(o.valid);
  } else {
    ASSERT_TRUE(o.valid);
    EXPECT_NEAR(ChildScore(o, ctx), brute, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NumericExactnessTest,
    ::testing::Combine(::testing::Values(Impurity::kGini, Impurity::kEntropy),
                       ::testing::Values(2, 10, 64, 257),
                       ::testing::Values(1, 2, 5, 40)));

class RegressionExactnessTest : public ::testing::TestWithParam<int> {};

TEST_P(RegressionExactnessTest, MatchesBruteForce) {
  int n = GetParam();
  Rng rng(static_cast<uint64_t>(n) * 104729);
  std::vector<double> xv(n), yv(n);
  for (int i = 0; i < n; ++i) {
    xv[i] = static_cast<double>(rng.Uniform(10));
    yv[i] = rng.UniformDouble(0, 100);
  }
  auto x = Column::Numeric("x", xv);
  auto y = Column::Numeric("y", yv);
  SplitOutcome o = FindBestSplit(*x, 0, *y, RegCtx(), nullptr, n);

  std::vector<double> candidates(xv.begin(), xv.end());
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  double brute = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c + 1 < candidates.size(); ++c) {
    RegStats l, r;
    for (int i = 0; i < n; ++i) {
      if (xv[i] <= candidates[c]) {
        l.Add(yv[i]);
      } else {
        r.Add(yv[i]);
      }
    }
    double score = (static_cast<double>(l.n) * l.Variance() +
                    static_cast<double>(r.n) * r.Variance()) /
                   n;
    brute = std::min(brute, score);
  }
  ASSERT_TRUE(o.valid);
  EXPECT_NEAR(ChildScore(o, RegCtx()), brute, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RegressionExactnessTest,
                         ::testing::Values(5, 32, 100, 333));

}  // namespace
}  // namespace treeserver
