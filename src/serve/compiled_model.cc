#include "serve/compiled_model.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <set>
#include <thread>

#include "common/logging.h"

namespace treeserver {

namespace {

/// Bitmask words needed to hold the (sorted) category codes.
uint32_t WordsFor(const std::vector<int32_t>& sorted_codes) {
  if (sorted_codes.empty()) return 0;
  return static_cast<uint32_t>(sorted_codes.back() / 64) + 1;
}

void SetBits(const std::vector<int32_t>& codes, uint64_t* words) {
  for (int32_t c : codes) words[c >> 6] |= uint64_t{1} << (c & 63);
}

/// Chunked parallel-for over [0, n) in blocks of `chunk`.
void ParallelChunks(size_t n, size_t chunk, int num_threads,
                    const std::function<void(size_t, size_t)>& fn) {
  const size_t num_chunks = (n + chunk - 1) / chunk;
  if (num_threads <= 1 || num_chunks <= 1) {
    for (size_t c = 0; c < num_chunks; ++c) {
      fn(c * chunk, std::min(n, (c + 1) * chunk));
    }
    return;
  }
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  int workers = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(num_threads), num_chunks));
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (size_t c = next.fetch_add(1); c < num_chunks;
           c = next.fetch_add(1)) {
        fn(c * chunk, std::min(n, (c + 1) * chunk));
      }
    });
  }
  for (std::thread& th : pool) th.join();
}

}  // namespace

CompiledTree CompiledTree::Compile(const TreeModel& tree) {
  TS_CHECK(!tree.empty()) << "cannot compile an empty tree";
  CompiledTree out;
  out.kind_ = tree.kind();
  out.num_classes_ = tree.num_classes();

  const size_t n = tree.num_nodes();
  out.col_.resize(n);
  out.is_cat_.resize(n);
  out.threshold_.resize(n);
  out.left_.resize(n);
  out.right_.resize(n);
  out.depth_.resize(n);
  out.label_.resize(n);
  out.value_.resize(n);
  out.cat_offset_.resize(n, 0);
  out.cat_words_.resize(n, 0);
  if (out.kind_ == TaskKind::kClassification) {
    out.pmf_pool_.assign(n * static_cast<size_t>(out.num_classes_), 0.0f);
  }

  std::set<int32_t> used;
  for (size_t i = 0; i < n; ++i) {
    const TreeModel::Node& node = tree.node(static_cast<int32_t>(i));
    const SplitCondition& cond = node.condition;
    out.col_[i] = node.is_leaf() ? -1 : cond.column;
    out.left_[i] = node.left;
    out.right_[i] = node.right;
    out.depth_[i] = node.depth;
    out.label_[i] = node.label;
    out.value_[i] = node.value;
    if (out.kind_ == TaskKind::kClassification) {
      // Every node carries its PMF (predict-at-any-depth): copy into
      // the contiguous pool, padding short vectors with zeros.
      float* dst = out.pmf_pool_.data() + i * out.num_classes_;
      size_t copy = std::min<size_t>(node.pmf.size(), out.num_classes_);
      std::copy_n(node.pmf.data(), copy, dst);
    }
    if (node.is_leaf()) continue;
    used.insert(cond.column);
    if (cond.type == DataType::kCategorical) {
      out.is_cat_[i] = 1;
      uint32_t words =
          std::max(WordsFor(cond.left_categories), WordsFor(cond.seen_categories));
      out.cat_offset_[i] = static_cast<uint32_t>(out.cat_pool_.size());
      out.cat_words_[i] = words;
      out.cat_pool_.resize(out.cat_pool_.size() + 2 * words, 0);
      uint64_t* base = out.cat_pool_.data() + out.cat_offset_[i];
      SetBits(cond.left_categories, base);
      SetBits(cond.seen_categories, base + words);
    } else {
      out.threshold_[i] = cond.threshold;
    }
  }
  out.used_columns_.assign(used.begin(), used.end());
  return out;
}

NodeLayout CompiledTree::Repack(NodeLayout want, const BinnedTable* binned) {
  packed_ = nullptr;
  layout_ = NodeLayout::kSoa;
  if (want == NodeLayout::kQuantized) {
    TS_CHECK(binned != nullptr) << "quantized layout needs a BinnedTable";
    // nullptr (thresholds off the bin grid) keeps this tree on soa.
    packed_ = PackedTree::PackQuantized(*this, *binned);
    if (packed_ != nullptr) layout_ = NodeLayout::kQuantized;
  }
  return layout_;
}

void CompiledTree::BuildContext(const DataTable& table,
                                const std::vector<int32_t>& columns,
                                RowBlockContext* ctx) {
  ctx->numeric.assign(table.num_columns(), nullptr);
  ctx->category.assign(table.num_columns(), nullptr);
  ctx->ucodes.clear();
  ctx->ustorage.clear();
  for (int32_t id : columns) {
    const ColumnPtr& col = table.column(id);
    TS_CHECK(col != nullptr) << "serving table misses split column " << id;
    if (col->type() == DataType::kNumeric) {
      ctx->numeric[id] = col->numeric_values().data();
    } else {
      ctx->category[id] = col->categorical_codes().data();
    }
  }
}

void CompiledTree::RouteRows(const RowBlockContext& ctx, const uint32_t* rows,
                             size_t n, int max_depth,
                             int32_t* out_nodes) const {
  if (packed_ != nullptr) {
    packed_->RouteRows(ctx, rows, n, max_depth, out_nodes);
    return;
  }
  const int32_t* col = col_.data();
  const uint8_t* is_cat = is_cat_.data();
  const double* threshold = threshold_.data();
  const int32_t* left = left_.data();
  const int32_t* right = right_.data();
  const uint16_t* depth = depth_.data();
  for (size_t i = 0; i < n; ++i) {
    const uint32_t row = rows[i];
    int32_t id = 0;
    while (true) {
      const int32_t c = col[id];
      if (c < 0) break;  // leaf
      if (max_depth >= 0 && depth[id] >= max_depth) break;
      if (!is_cat[id]) {
        const double v = ctx.numeric[c][row];
        if (std::isnan(v)) break;  // missing: stop here (Appendix D)
        id = v <= threshold[id] ? left[id] : right[id];
      } else {
        const int32_t code = ctx.category[c][row];
        if (code < 0) break;  // missing
        const uint32_t words = cat_words_[id];
        const uint32_t word = static_cast<uint32_t>(code) >> 6;
        if (word >= words) break;  // beyond the mask: unseen in training
        const uint64_t* masks = cat_pool_.data() + cat_offset_[id];
        const uint64_t bit = uint64_t{1} << (code & 63);
        if (masks[word] & bit) {
          id = left[id];
        } else if (masks[words + word] & bit) {
          id = right[id];
        } else {
          break;  // unseen category: stop here
        }
      }
    }
    out_nodes[i] = id;
  }
}

int32_t CompiledTree::RouteRow(const DataTable& table, uint32_t row,
                               int max_depth) const {
  TS_CHECK(layout_ != NodeLayout::kQuantized)
      << "RouteRow has no bin codes; quantized trees are bulk-scoring only";
  RowBlockContext ctx;
  BuildContext(table, used_columns_, &ctx);
  int32_t node = 0;
  RouteRows(ctx, &row, 1, max_depth, &node);
  return node;
}

CompiledForest CompiledForest::Compile(const ForestModel& forest) {
  CompiledForest out;
  out.kind_ = forest.kind();
  out.num_classes_ = forest.num_classes();
  std::set<int32_t> used;
  out.trees_.reserve(forest.num_trees());
  for (size_t i = 0; i < forest.num_trees(); ++i) {
    out.trees_.push_back(CompiledTree::Compile(forest.tree(i)));
    const std::vector<int32_t>& cols = out.trees_.back().used_columns();
    used.insert(cols.begin(), cols.end());
  }
  out.used_columns_.assign(used.begin(), used.end());
  return out;
}

CompiledForest CompiledForest::Compile(const TreeModel& tree) {
  ForestModel forest(tree.kind(), tree.num_classes());
  forest.AddTree(tree);
  return Compile(forest);
}

NodeLayout CompiledForest::Repack(NodeLayout want,
                                  std::shared_ptr<const BinnedTable> binned) {
  quant_binned_ = want == NodeLayout::kQuantized ? std::move(binned) : nullptr;
  NodeLayout achieved = want;
  bool any_quant = false;
  for (CompiledTree& tree : trees_) {
    achieved = std::min(achieved, tree.Repack(want, quant_binned_.get()));
    any_quant = any_quant || tree.layout() == NodeLayout::kQuantized;
  }
  // If no tree quantized, future contexts don't need bin codes.
  if (!any_quant) quant_binned_ = nullptr;
  layout_ = achieved;
  return achieved;
}

void CompiledForest::BuildContext(const DataTable& table,
                                  RowBlockContext* ctx) const {
  CompiledTree::BuildContext(table, used_columns_, ctx);
  if (quant_binned_ == nullptr) return;
  // Quantized trees route on precomputed bin codes of the stationary
  // serving table; the BinnedTable was built from that very table.
  // Every used column gets a uniform uint16 code array with the
  // per-column missing code rewritten to the universal kStopCode, so
  // the level walker tests missingness against one constant instead of
  // loading a per-column stop code every step. The rewrite forces a
  // copy into ctx->ustorage (except when the column's missing code
  // already IS kStopCode) — a linear pass that is noise next to the
  // traversal it feeds.
  const size_t n = table.num_rows();
  ctx->ucodes.assign(table.num_columns(), nullptr);
  for (int32_t id : used_columns_) {
    const BinnedColumn* bc = quant_binned_->column(id);
    if (bc != nullptr) {
      TS_CHECK(bc->num_rows() == table.num_rows())
          << "quantized layout: BinnedTable does not match the serving table";
      const uint16_t miss = static_cast<uint16_t>(bc->missing_code());
      if (bc->codes16_data() != nullptr) {
        const uint16_t* src = bc->codes16_data();
        if (miss == RowBlockContext::kStopCode) {
          ctx->ucodes[id] = src;
        } else {
          std::vector<uint16_t>& dst = ctx->ustorage.emplace_back(n);
          for (size_t i = 0; i < n; ++i) {
            dst[i] = src[i] == miss ? RowBlockContext::kStopCode : src[i];
          }
          ctx->ucodes[id] = dst.data();
        }
      } else {
        const uint8_t* src = bc->codes8_data();
        const uint8_t miss8 = static_cast<uint8_t>(miss);
        std::vector<uint16_t>& dst = ctx->ustorage.emplace_back(n);
        for (size_t i = 0; i < n; ++i) {
          dst[i] = src[i] == miss8 ? RowBlockContext::kStopCode : src[i];
        }
        ctx->ucodes[id] = dst.data();
      }
    } else {
      const int32_t* src = ctx->category[id];
      TS_CHECK(src != nullptr) << "serving table misses split column " << id;
      std::vector<uint16_t>& dst = ctx->ustorage.emplace_back(n);
      for (size_t i = 0; i < n; ++i) {
        const int32_t c = src[i];
        dst[i] = c < 0 || c >= RowBlockContext::kStopCode
                     ? RowBlockContext::kStopCode
                     : static_cast<uint16_t>(c);
      }
      ctx->ucodes[id] = dst.data();
    }
  }
}

void CompiledForest::PredictPmf(const DataTable& table, const uint32_t* rows,
                                size_t n, int max_depth,
                                float* out_pmf) const {
  const size_t k = static_cast<size_t>(num_classes_);
  std::fill(out_pmf, out_pmf + n * k, 0.0f);
  if (trees_.empty()) return;
  RowBlockContext ctx;
  BuildContext(table, &ctx);
  std::vector<int32_t> nodes(n);
  // Accumulate per-tree PMFs in tree order, then scale — the same
  // float operations, in the same order, as ForestModel::PredictPmf.
  for (const CompiledTree& tree : trees_) {
    tree.RouteRows(ctx, rows, n, max_depth, nodes.data());
    const float* pool = tree.active_pmf_pool();
    for (size_t i = 0; i < n; ++i) {
      const float* p = pool + static_cast<size_t>(nodes[i]) * k;
      float* o = out_pmf + i * k;
      for (size_t c = 0; c < k; ++c) o[c] += p[c];
    }
  }
  const float inv = 1.0f / static_cast<float>(trees_.size());
  for (size_t i = 0; i < n * k; ++i) out_pmf[i] *= inv;
}

void CompiledForest::PredictLabel(const DataTable& table, const uint32_t* rows,
                                  size_t n, int max_depth,
                                  int32_t* out_labels) const {
  const size_t k = static_cast<size_t>(num_classes_);
  std::vector<float> pmf(n * k);
  PredictPmf(table, rows, n, max_depth, pmf.data());
  for (size_t i = 0; i < n; ++i) {
    const float* p = pmf.data() + i * k;
    // First-max argmax, matching std::max_element in
    // ForestModel::PredictLabel.
    size_t best = 0;
    for (size_t c = 1; c < k; ++c) {
      if (p[c] > p[best]) best = c;
    }
    out_labels[i] = static_cast<int32_t>(best);
  }
}

void CompiledForest::PredictValue(const DataTable& table, const uint32_t* rows,
                                  size_t n, int max_depth,
                                  double* out_values) const {
  std::fill(out_values, out_values + n, 0.0);
  if (trees_.empty()) return;
  RowBlockContext ctx;
  BuildContext(table, &ctx);
  std::vector<int32_t> nodes(n);
  for (const CompiledTree& tree : trees_) {
    tree.RouteRows(ctx, rows, n, max_depth, nodes.data());
    const double* pool = tree.active_values();
    for (size_t i = 0; i < n; ++i) out_values[i] += pool[nodes[i]];
  }
  const double count = static_cast<double>(trees_.size());
  // Divide (not multiply by a reciprocal): ForestModel::PredictValue
  // divides, and the results must be bit-identical.
  for (size_t i = 0; i < n; ++i) out_values[i] /= count;
}

namespace {
constexpr size_t kRowBlock = 1024;
}  // namespace

std::vector<int32_t> CompiledForest::PredictLabels(const DataTable& table,
                                                   int max_depth) const {
  const size_t n = table.num_rows();
  std::vector<int32_t> out(n);
  std::vector<uint32_t> rows(std::min(n, kRowBlock));
  for (size_t begin = 0; begin < n; begin += kRowBlock) {
    const size_t m = std::min(kRowBlock, n - begin);
    for (size_t i = 0; i < m; ++i) rows[i] = static_cast<uint32_t>(begin + i);
    PredictLabel(table, rows.data(), m, max_depth, out.data() + begin);
  }
  return out;
}

std::vector<double> CompiledForest::PredictValues(const DataTable& table,
                                                  int max_depth) const {
  const size_t n = table.num_rows();
  std::vector<double> out(n);
  std::vector<uint32_t> rows(std::min(n, kRowBlock));
  for (size_t begin = 0; begin < n; begin += kRowBlock) {
    const size_t m = std::min(kRowBlock, n - begin);
    for (size_t i = 0; i < m; ++i) rows[i] = static_cast<uint32_t>(begin + i);
    PredictValue(table, rows.data(), m, max_depth, out.data() + begin);
  }
  return out;
}

std::vector<float> CompiledForest::PredictPmfRow(const DataTable& table,
                                                 uint32_t row,
                                                 int max_depth) const {
  std::vector<float> pmf(num_classes_);
  PredictPmf(table, &row, 1, max_depth, pmf.data());
  return pmf;
}

int32_t CompiledForest::PredictLabelRow(const DataTable& table, uint32_t row,
                                        int max_depth) const {
  int32_t label = 0;
  PredictLabel(table, &row, 1, max_depth, &label);
  return label;
}

double CompiledForest::PredictValueRow(const DataTable& table, uint32_t row,
                                       int max_depth) const {
  double value = 0.0;
  PredictValue(table, &row, 1, max_depth, &value);
  return value;
}

CompiledCascade CompiledCascade::Compile(const DeepForestModel& model) {
  CompiledCascade out;
  out.window_sizes_ = model.mgs_config().window_sizes;
  out.stride_ = model.mgs_config().stride;
  out.forests_per_layer_ = model.cascade_config().forests_per_layer;
  out.num_classes_ = model.num_classes();
  for (const std::vector<ForestModel>& group : model.mgs_forests()) {
    std::vector<CompiledForest> compiled;
    compiled.reserve(group.size());
    for (const ForestModel& f : group) compiled.push_back(CompiledForest::Compile(f));
    out.mgs_.push_back(std::move(compiled));
  }
  for (const std::vector<ForestModel>& group : model.cascade_layers()) {
    std::vector<CompiledForest> compiled;
    compiled.reserve(group.size());
    for (const ForestModel& f : group) compiled.push_back(CompiledForest::Compile(f));
    out.cascade_.push_back(std::move(compiled));
  }
  return out;
}

std::vector<int32_t> CompiledCascade::Predict(const ImageDataset& images,
                                              int num_threads) const {
  // MGS re-representation, batched: one PMF buffer per forest over the
  // whole window table, assembled per image in the same
  // position-major, forest-minor order as ExtractWindowFeatures.
  std::vector<std::vector<std::vector<float>>> rep;  // [window][image]
  for (size_t wi = 0; wi < window_sizes_.size(); ++wi) {
    DataTable window_table =
        BuildWindowTable(images, window_sizes_[wi], stride_, num_threads);
    const size_t rows = window_table.num_rows();
    const size_t positions = rows / images.size();
    std::vector<std::vector<float>> buffers(mgs_[wi].size());
    for (size_t f = 0; f < mgs_[wi].size(); ++f) {
      const size_t k = static_cast<size_t>(mgs_[wi][f].num_classes());
      buffers[f].resize(rows * k);
      const CompiledForest& forest = mgs_[wi][f];
      float* out = buffers[f].data();
      ParallelChunks(rows, 1024, num_threads,
                     [&forest, &window_table, out, k](size_t begin,
                                                      size_t end) {
                       std::vector<uint32_t> idx(end - begin);
                       for (size_t i = begin; i < end; ++i) {
                         idx[i - begin] = static_cast<uint32_t>(i);
                       }
                       forest.PredictPmf(window_table, idx.data(), idx.size(),
                                         -1, out + begin * k);
                     });
    }
    std::vector<std::vector<float>> features(images.size());
    const size_t k = static_cast<size_t>(num_classes_);
    for (size_t img = 0; img < images.size(); ++img) {
      std::vector<float>& feat = features[img];
      feat.reserve(positions * mgs_[wi].size() * k);
      for (size_t p = 0; p < positions; ++p) {
        const size_t row = img * positions + p;
        for (size_t f = 0; f < mgs_[wi].size(); ++f) {
          const float* pmf = buffers[f].data() + row * k;
          feat.insert(feat.end(), pmf, pmf + k);
        }
      }
    }
    rep.push_back(std::move(features));
  }

  // Cascade, layer by layer; layer l consumes window (l mod #windows).
  std::vector<std::vector<float>> prev;
  for (size_t layer = 0; layer < cascade_.size(); ++layer) {
    const size_t wi = layer % window_sizes_.size();
    std::vector<std::vector<float>> in =
        layer == 0 ? rep[wi] : ConcatPerImageFeatures(prev, rep[wi]);
    DataTable table = BuildFeatureTable(
        in, std::vector<int32_t>(images.size(), 0), num_classes_);
    const size_t rows = table.num_rows();
    const size_t k = static_cast<size_t>(num_classes_);
    std::vector<std::vector<float>> buffers(cascade_[layer].size());
    for (size_t f = 0; f < cascade_[layer].size(); ++f) {
      buffers[f].resize(rows * k);
      const CompiledForest& forest = cascade_[layer][f];
      float* out = buffers[f].data();
      ParallelChunks(rows, 1024, num_threads,
                     [&forest, &table, out, k](size_t begin, size_t end) {
                       std::vector<uint32_t> idx(end - begin);
                       for (size_t i = begin; i < end; ++i) {
                         idx[i - begin] = static_cast<uint32_t>(i);
                       }
                       forest.PredictPmf(table, idx.data(), idx.size(), -1,
                                         out + begin * k);
                     });
    }
    prev.assign(rows, {});
    for (size_t img = 0; img < rows; ++img) {
      std::vector<float>& feat = prev[img];
      feat.reserve(cascade_[layer].size() * k);
      for (size_t f = 0; f < cascade_[layer].size(); ++f) {
        const float* pmf = buffers[f].data() + img * k;
        feat.insert(feat.end(), pmf, pmf + k);
      }
    }
  }
  return ArgmaxAveragedLabels(prev, num_classes_, forests_per_layer_);
}

}  // namespace treeserver
