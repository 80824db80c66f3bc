#include "serve/packed_tree.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "serve/compiled_model.h"

namespace treeserver {

namespace {
constexpr uint64_t kCatBit = uint64_t{1} << 20;
}  // namespace

std::shared_ptr<const PackedTree> PackedTree::PackQuantized(
    const CompiledTree& tree, const BinnedTable& binned) {
  const size_t n = tree.num_nodes();
  if (n == 0 || n >= 0xFFFFFFFFull) return nullptr;

  // Breadth-first order; enqueueing both children together makes
  // right = left + 1 hold by construction.
  std::vector<int32_t> order;
  std::vector<int32_t> newid(n, -1);
  order.reserve(n);
  order.push_back(0);
  newid[0] = 0;
  for (size_t q = 0; q < order.size(); ++q) {
    const int32_t old = order[q];
    if (tree.raw_col(old) < 0) continue;  // leaf
    const int32_t l = tree.raw_left(old);
    const int32_t r = tree.raw_right(old);
    newid[l] = static_cast<int32_t>(order.size());
    order.push_back(l);
    newid[r] = static_cast<int32_t>(order.size());
    order.push_back(r);
  }

  std::shared_ptr<PackedTree> out(new PackedTree());
  // Dummy byte at route offset 0: numeric nodes' unconditional (then
  // discarded) route-table load lands here.
  out->route_pool_.push_back(0);
  out->num_classes_ = tree.num_classes();
  const size_t m = order.size();
  const size_t k = static_cast<size_t>(out->num_classes_);
  out->words_.reserve(2 * m);
  out->label_.reserve(m);
  out->value_.reserve(m);
  if (tree.kind() == TaskKind::kClassification) out->pmf_pool_.reserve(m * k);

  // Leaves must carry a dereferenceable column id for the branchless
  // walker; any used column works (every used column has a ucodes
  // array). A single-leaf tree has none, but also depth 0, so the
  // walker never reads a node there.
  const uint32_t safe_col =
      tree.used_columns().empty()
          ? 0
          : static_cast<uint32_t>(tree.used_columns().front());

  for (size_t q = 0; q < m; ++q) {
    const int32_t old = order[q];
    const int32_t col = tree.raw_col(old);
    out->tree_depth_ =
        std::max(out->tree_depth_, uint32_t{tree.raw_depth(old)});
    uint64_t meta = 0;
    uint64_t aux = 0;
    if (col < 0) {
      // Self-loop: code <= 0xFFFF always routes "left", i.e. back
      // here, and the stop route parks here too.
      meta = safe_col | (uint64_t{static_cast<uint32_t>(q)} << 32);
      aux = 0xFFFF;
    } else {
      if (col > static_cast<int32_t>(kColMask)) return nullptr;
      const uint32_t left = static_cast<uint32_t>(newid[tree.raw_left(old)]);
      TS_DCHECK(newid[tree.raw_right(old)] ==
                static_cast<int32_t>(left) + 1);
      meta = static_cast<uint32_t>(col) | (uint64_t{left} << 32);
      if (tree.raw_is_cat(old)) {
        meta |= kCatBit;
        // Byte route table: 0 = left mask, 1 = right mask, 2 = stop
        // (unseen), with a stop sentinel at slot `cap` so clamped
        // out-of-range / missing codes land on it. Context codes are
        // uint16, so caps beyond the code space cannot quantize. cap
        // sits in aux bits 16..31 and the table offset in bits 32..63;
        // numeric nodes leave both zero, so their clamped route load
        // harmlessly hits the dummy byte at offset 0.
        const uint32_t words = tree.raw_cat_words(old);
        const uint64_t* src =
            tree.raw_cat_pool().data() + tree.raw_cat_offset(old);
        const uint32_t cap = words * 64;
        if (cap > RowBlockContext::kStopCode) return nullptr;
        const uint32_t off = static_cast<uint32_t>(out->route_pool_.size());
        out->route_pool_.resize(off + cap + 1, 2);
        for (uint32_t c = 0; c < cap; ++c) {
          const uint64_t bit = uint64_t{1} << (c & 63);
          if (src[c >> 6] & bit) {
            out->route_pool_[off + c] = 0;
          } else if (src[words + (c >> 6)] & bit) {
            out->route_pool_[off + c] = 1;
          }
        }
        aux = (uint64_t{off} << 32) | (uint64_t{cap} << 16);
      } else {
        // Quantization is only exact when the threshold IS a bin
        // upper of the serving table: then `v <= thr` and
        // `code(v) <= code(thr)` agree for every value in the table.
        const BinnedColumn* bc = binned.column(col);
        if (bc == nullptr) return nullptr;
        const double thr = tree.raw_threshold(old);
        if (std::isnan(thr)) return nullptr;
        const uint16_t code = bc->CodeOf(thr);
        if (code >= bc->num_bins() || bc->upper(code) != thr) return nullptr;
        aux = code;
      }
    }
    out->words_.push_back(meta);
    out->words_.push_back(aux);
    out->label_.push_back(tree.raw_label(old));
    out->value_.push_back(tree.raw_value(old));
    if (tree.kind() == TaskKind::kClassification) {
      const float* pmf = tree.raw_pmf_pool().data() + old * k;
      out->pmf_pool_.insert(out->pmf_pool_.end(), pmf, pmf + k);
    }
  }
  return out;
}

void PackedTree::RouteRows(const RowBlockContext& ctx, const uint32_t* rows,
                           size_t n, int max_depth,
                           int32_t* out_nodes) const {
  const uint32_t depth_limit =
      max_depth < 0 ? tree_depth_
                    : std::min(tree_depth_, static_cast<uint32_t>(max_depth));
  if (depth_limit == 0 || n == 0) {
    for (size_t i = 0; i < n; ++i) out_nodes[i] = 0;
    return;
  }
  const uint64_t* words = words_.data();
  const uint8_t* routes = route_pool_.data();
  const uint16_t* const* ucodes = ctx.ucodes.data();

  // One tree level per sweep over a block of rows. Every step is the
  // same few conditional-move instructions — no leaf / depth / missing
  // branches to mispredict — and consecutive rows are independent, so
  // the out-of-order window keeps many code/node loads in flight.
  // Parked rows (leaf, missing, unseen category, depth cutoff) self-
  // loop on L1-resident node words until the sweeps run out.
  constexpr size_t kBlock = 2048;
  int32_t id[kBlock];
  for (size_t begin = 0; begin < n; begin += kBlock) {
    const size_t m = std::min(kBlock, n - begin);
    const uint32_t* brows = rows + begin;
    for (size_t i = 0; i < m; ++i) id[i] = 0;
    for (uint32_t d = 0; d < depth_limit; ++d) {
      for (size_t i = 0; i < m; ++i) {
        const int32_t cur = id[i];
        const uint64_t meta = words[2 * cur];
        const uint64_t aux = words[2 * cur + 1];
        const uint32_t col = static_cast<uint32_t>(meta) & kColMask;
        const int32_t left = static_cast<int32_t>(meta >> 32);
        const uint16_t code = ucodes[col][brows[i]];
        // Leaf / missing / depth handling is folded into the encoding
        // (missing is always kStopCode after BuildContext), so the
        // only data-dependent branch left is the per-node split type,
        // which the predictor learns well on real trees (numeric
        // splits dominate); everything else is conditional moves.
        uint32_t route;
        if ((meta & kCatBit) == 0) {
          route = code <= (static_cast<uint32_t>(aux) & 0xFFFFu) ? 0u : 1u;
          route = code == RowBlockContext::kStopCode ? 2u : route;
        } else {
          const uint32_t cap = static_cast<uint32_t>(aux) >> 16;
          const uint32_t slot = code < cap ? code : cap;
          route = routes[static_cast<uint32_t>(aux >> 32) + slot];
        }
        id[i] = route == 2u ? cur : left + static_cast<int32_t>(route);
      }
    }
    for (size_t i = 0; i < m; ++i) out_nodes[begin + i] = id[i];
  }
}

size_t PackedTree::ByteSize() const {
  return words_.size() * sizeof(uint64_t) + route_pool_.size() +
         pmf_pool_.size() * sizeof(float) + label_.size() * sizeof(int32_t) +
         value_.size() * sizeof(double);
}

}  // namespace treeserver
