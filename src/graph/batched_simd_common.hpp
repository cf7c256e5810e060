// Scalar pieces shared by the ISA-specific batched-SIMD translation units
// (batched_simd_avx512.cpp / batched_simd_avx2.cpp): the fused kernels'
// rule tags and the one-node scalar head/tail fallback. No intrinsics live
// here — a single copy keeps the two ISA TUs from drifting apart on the
// parts the SIMD-vs-scalar bitwise test can only exercise on the host's
// selected table.
#pragma once

#include <type_traits>

#include "graph/batched_simd.hpp"
#include "graph/kernels_batched.hpp"

namespace plurality::graph::simd {

struct MajorityTag {};
struct VoterTag {};
struct UndecidedTag {};

/// One node of a fused kernel, scalar — the byte-state scalar
/// pipeline evaluated via the raw Philox word function (bitwise identical
/// to both the tile pipeline and the vector lanes by construction). Used
/// for the unaligned heads/tails of every SIMD fused kernel.
template <class Tag>
inline void fused_scalar_node(const FusedArgs& args, std::uint64_t i) {
  namespace kb = kernels_batched;
  const auto sample = [&](unsigned s) -> state_t {
    const std::uint64_t w = static_cast<std::uint64_t>(s) * args.n_pad + i;
    const std::uint64_t x =
        rng::Philox4x32::word<kb::kSamplerRounds>(args.key, args.round, w);
    const std::uint32_t idx = kb::scale_word(x, args.bound);
    return args.neighbors == nullptr ? args.nodes8[idx]
                                     : args.nodes8[args.neighbors[i * args.bound + idx]];
  };
  state_t next;
  if constexpr (std::is_same_v<Tag, MajorityTag>) {
    const state_t a = sample(0), b = sample(1), c = sample(2);
    next = kernels::select((b == c) & (a != b), b, a);
  } else if constexpr (std::is_same_v<Tag, VoterTag>) {
    next = sample(0);
  } else {
    const state_t undecided = args.states - 1;
    const state_t own = args.nodes8[i];
    const state_t seen = sample(0);
    const state_t colored =
        kernels::select((seen == own) | (seen == undecided), own, undecided);
    next = kernels::select(own == undecided, seen, colored);
  }
  args.out8[i] = static_cast<std::uint8_t>(next);
}

}  // namespace plurality::graph::simd
