// Runtime ISA detection for the batched pipeline's SIMD fast paths.
//
// The ISA-specific kernel tables live in their own translation units
// (batched_simd_avx512.cpp / batched_simd_avx2.cpp) compiled with the
// matching -m flags; THIS file is compiled with the project's portable
// flags and decides, once, which table the host can actually execute. That
// split is what keeps one binary correct everywhere: no AVX instruction
// exists outside the guarded TUs, and those are only entered after
// __builtin_cpu_supports says the host has the ISA.
#include "graph/batched_simd.hpp"

namespace plurality::graph::simd {

#if defined(PLURALITY_SIMD_AVX512)
const Ops* avx512_ops();  // defined in batched_simd_avx512.cpp
#endif
#if defined(PLURALITY_SIMD_AVX2)
const Ops* avx2_ops();  // defined in batched_simd_avx2.cpp
#endif

bool host_supports(Level level) {
  switch (level) {
    case Level::Scalar:
      return true;
    case Level::Avx2:
#if (defined(__x86_64__) || defined(_M_X64)) && defined(PLURALITY_SIMD_AVX2)
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case Level::Avx512:
#if (defined(__x86_64__) || defined(_M_X64)) && defined(PLURALITY_SIMD_AVX512)
      return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
             __builtin_cpu_supports("avx512bw") && __builtin_cpu_supports("avx512vl");
#else
      return false;
#endif
  }
  return false;
}

const Ops* detect(Level cap) {
#if defined(PLURALITY_SIMD_AVX512)
  if (cap >= Level::Avx512 && host_supports(Level::Avx512)) return avx512_ops();
#endif
#if defined(PLURALITY_SIMD_AVX2)
  if (cap >= Level::Avx2 && host_supports(Level::Avx2)) return avx2_ops();
#endif
  (void)cap;
  return nullptr;
}

}  // namespace plurality::graph::simd
