// SIMD fast paths of the batched pipeline — interface only (no intrinsics
// here; implementations live in batched_simd_avx512.cpp /
// batched_simd_avx2.cpp, each compiled with its own ISA flags and selected
// at RUNTIME via __builtin_cpu_supports, so one binary runs correctly on
// any x86-64 host and other architectures fall back to the scalar
// pipeline).
//
// Every function here is bitwise-equivalent to the scalar passes in
// kernels_batched.hpp (same Philox words, same bounded-bias conversion,
// same rule algebra) — pinned by tests/graph/test_graph_batched.cpp, which
// runs the engine capped at every table the host can execute and requires
// states identical to the scalar pipeline's. SIMD availability can therefore never change results, only
// speed.
#pragma once

#include <cstddef>
#include <cstdint>

#include "rng/philox.hpp"
#include "support/types.hpp"

namespace plurality::graph::simd {

/// Arguments of a fused kernel invocation: passes 1-4 for `count` nodes
/// [base, base+count) of one chunk, byte states (k <= 256).
struct FusedArgs {
  rng::Philox4x32::Key key;
  std::uint64_t round;           // Philox counter domain
  std::uint64_t n_pad;           // padded node count of the word layout
  const std::uint32_t* neighbors;  // regular CSR rows; nullptr on the clique
  std::uint64_t bound;           // degree (regular) or n (complete)
  const std::uint8_t* nodes8;    // current states
  std::uint8_t* out8;            // next states (double buffer)
  std::uint64_t base;            // first node (global id)
  std::size_t count;
  state_t states;                // state-space size (undecided rule uses k-1)
};

/// One ISA's kernel table. Null entries mean "no fused variant — use the
/// scalar pipeline for that stage/rule".
struct Ops {
  const char* name;  // "avx512" / "avx2" (diagnostics)
  /// Pass-1 block fill (R = kernels_batched::kSamplerRounds), bitwise equal
  /// to Philox4x32::fill_words<kSamplerRounds>.
  void (*fill_words)(rng::Philox4x32::Key key, std::uint64_t domain,
                     std::uint64_t word_lo, std::size_t count, std::uint64_t* out);
  // Fused generate+convert+gather+apply, degree-uniform CSR topology.
  void (*fused_regular_majority)(const FusedArgs& args);
  void (*fused_regular_voter)(const FusedArgs& args);
  void (*fused_regular_undecided)(const FusedArgs& args);
  // Fused variants on the implicit complete graph.
  void (*fused_complete_majority)(const FusedArgs& args);
  void (*fused_complete_voter)(const FusedArgs& args);
  void (*fused_complete_undecided)(const FusedArgs& args);
  /// Per-class byte count (k <= 16): local[j] += |{i in [lo,hi): data[i]==j}|.
  void (*count_u8)(const std::uint8_t* data, std::size_t lo, std::size_t hi,
                   state_t k, count_t* local);
};

/// The kernel tables, weakest first. Scalar has no table: the portable
/// pipeline in kernels_batched.hpp.
enum class Level : std::uint8_t { Scalar, Avx2, Avx512 };

/// True when the host can execute `level`'s table and the library was
/// built with it (always true for Scalar).
bool host_supports(Level level);

/// The best kernel table at or below `cap` that this host supports, or
/// nullptr (scalar cap, non-x86, old CPU, or the library was built without
/// the ISA TUs).
const Ops* detect(Level cap = Level::Avx512);

}  // namespace plurality::graph::simd
