#ifndef TREESERVER_TREE_IMPURITY_H_
#define TREESERVER_TREE_IMPURITY_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace treeserver {

/// Impurity functions the user can pick per job (Fig. 2 shows jobs
/// selecting Gini vs entropy; regression uses variance).
enum class Impurity : uint8_t {
  kGini = 0,
  kEntropy = 1,
  kVariance = 2,
};

const char* ImpurityName(Impurity impurity);

/// Per-class counts of a row set; the sufficient statistic for
/// classification impurity.
struct ClassStats {
  using Value = int32_t;  // what Add/Remove take: a class label

  std::vector<int64_t> counts;
  int64_t n = 0;

  explicit ClassStats(int num_classes = 0) : counts(num_classes, 0) {}

  /// Zero counts for `num_classes` classes, reusing the storage.
  void Reset(int num_classes) {
    counts.assign(num_classes, 0);
    n = 0;
  }

  void Add(int32_t label, int64_t weight = 1) {
    counts[label] += weight;
    n += weight;
  }
  void Remove(int32_t label, int64_t weight = 1) {
    counts[label] -= weight;
    n -= weight;
  }
  void Merge(const ClassStats& other) {
    for (size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
    n += other.n;
  }
  void Subtract(const ClassStats& other) {
    for (size_t i = 0; i < counts.size(); ++i) counts[i] -= other.counts[i];
    n -= other.n;
  }

  bool IsPure() const {
    for (int64_t c : counts) {
      if (c == n) return true;
    }
    return n <= 1;
  }

  /// Index of the most frequent class (ties -> lowest index).
  int32_t Majority() const {
    int32_t best = 0;
    for (size_t i = 1; i < counts.size(); ++i) {
      if (counts[i] > counts[best]) best = static_cast<int32_t>(i);
    }
    return best;
  }

  /// Probability mass function over classes.
  std::vector<float> Pmf() const {
    std::vector<float> p(counts.size(), 0.0f);
    if (n == 0) return p;
    for (size_t i = 0; i < counts.size(); ++i) {
      p[i] = static_cast<float>(static_cast<double>(counts[i]) /
                                static_cast<double>(n));
    }
    return p;
  }

  double Gini() const {
    if (n == 0) return 0.0;
    double s = 0.0;
    for (int64_t c : counts) {
      double p = static_cast<double>(c) / static_cast<double>(n);
      s += p * p;
    }
    return 1.0 - s;
  }

  double Entropy() const {
    if (n == 0) return 0.0;
    double h = 0.0;
    for (int64_t c : counts) {
      if (c == 0) continue;
      double p = static_cast<double>(c) / static_cast<double>(n);
      h -= p * std::log2(p);
    }
    return h;
  }

  double ImpurityValue(Impurity impurity) const {
    return impurity == Impurity::kEntropy ? Entropy() : Gini();
  }
};

/// Sum/sum-of-squares of a row set; the sufficient statistic for
/// regression (variance) impurity. Also one regression histogram bin.
struct RegStats {
  using Value = double;  // what Add/Remove take: a target value

  int64_t n = 0;
  double sum = 0.0;
  double sum_sq = 0.0;

  /// Zero; the class count is unused (same call as ClassStats::Reset).
  void Reset(int /*num_classes*/) { *this = RegStats(); }

  void Add(double y) {
    ++n;
    sum += y;
    sum_sq += y * y;
  }
  void Remove(double y) {
    --n;
    sum -= y;
    sum_sq -= y * y;
  }
  void Merge(const RegStats& other) {
    n += other.n;
    sum += other.sum;
    sum_sq += other.sum_sq;
  }
  void Subtract(const RegStats& other) {
    n -= other.n;
    sum -= other.sum;
    sum_sq -= other.sum_sq;
  }

  double Mean() const {
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  }

  /// Population variance; clamped at 0 against rounding.
  double Variance() const {
    if (n == 0) return 0.0;
    double mean = Mean();
    double v = sum_sq / static_cast<double>(n) - mean * mean;
    return v > 0.0 ? v : 0.0;
  }

  double ImpurityValue(Impurity /*variance*/) const { return Variance(); }

  bool IsPure() const { return n <= 1 || Variance() <= 1e-12; }
};

/// Weighted impurity of the two sides of a cut of `n` rows: the score
/// every split kernel minimises.
template <typename Stats>
double WeightedImpurity(const Stats& left, const Stats& right,
                        Impurity impurity, double n) {
  return (static_cast<double>(left.n) * left.ImpurityValue(impurity) +
          static_cast<double>(right.n) * right.ImpurityValue(impurity)) /
         n;
}

}  // namespace treeserver

#endif  // TREESERVER_TREE_IMPURITY_H_
