#ifndef TREESERVER_SERVE_LAYOUT_H_
#define TREESERVER_SERVE_LAYOUT_H_

#include <cstdint>

namespace treeserver {

/// Node-table layout a compiled model serves from. Every layout routes
/// every row to exactly the same node as TreeModel::Traverse — layouts
/// trade memory footprint for speed, never accuracy.
enum class NodeLayout : uint8_t {
  /// Structure-of-arrays (the original CompiledTree tables). Always
  /// available; the layout every model starts in and the only one the
  /// request servers use.
  kSoa = 0,
  /// Bit-packed breadth-first nodes (serve/packed_tree.h) whose numeric
  /// thresholds are quantized to bin codes of a serving-table
  /// BinnedTable: the double compare becomes a uint16 compare against
  /// the row's precomputed bin code. Only valid for bulk scoring
  /// against the stationary table the BinnedTable was built from;
  /// trees whose thresholds don't all fall on bin uppers fall back to
  /// kSoa tree by tree.
  kQuantized = 1,
};

inline const char* NodeLayoutName(NodeLayout layout) {
  switch (layout) {
    case NodeLayout::kSoa:
      return "soa";
    case NodeLayout::kQuantized:
      return "quantized";
  }
  return "unknown";
}

}  // namespace treeserver

#endif  // TREESERVER_SERVE_LAYOUT_H_
