#include "common/simd.h"

namespace treeserver {

namespace {

const char* DetectedIsa() {
#if defined(__x86_64__) || defined(_M_X64)
  if (__builtin_cpu_supports("avx2")) return "avx2";
#elif defined(__aarch64__)
  return "neon";  // AArch64 mandates NEON (Advanced SIMD)
#endif
  return "scalar";
}

}  // namespace

std::string SimdStatusJson() {
  return std::string("\"simd\":\"scalar\",\"simd_detected\":\"") +
         DetectedIsa() + "\"";
}

}  // namespace treeserver
