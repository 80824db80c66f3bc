#ifndef TREESERVER_COMMON_SIMD_H_
#define TREESERVER_COMMON_SIMD_H_

#include <string>

namespace treeserver {

/// `"simd":"scalar","simd_detected":"avx2"` — the /statusz and bench
/// record fragment every rank reports (no surrounding braces). The
/// hot-path kernels are plain scalar loops, so "simd" is always
/// "scalar"; "simd_detected" names the best vector ISA the CPU offers
/// (avx2, neon or scalar), recorded so numbers from different hosts
/// can be told apart.
std::string SimdStatusJson();

}  // namespace treeserver

#endif  // TREESERVER_COMMON_SIMD_H_
