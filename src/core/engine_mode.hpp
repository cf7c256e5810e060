// The engine-mode axis of the experiment grid: which stepping pipeline the
// graph driver runs. The enum lives in core so the trial options and the
// scenario layer can name it without depending on graph/:
//
//  * Strict  — fused kernels on per-(round, chunk) xoshiro streams.
//    Bitwise-pinned against the frozen reference stepper; the default, and
//    what every golden trajectory is recorded against.
//  * Batched — the counter-based (rng::Philox4x32) pipeline: stage-split
//    SIMD kernels addressed by (seed, round, node, draw). Distributionally
//    equivalent to Strict, not bitwise (different generator): pinned by
//    the chi-square law battery and cross-mode consensus-time tests.
//
// The count driver has one engine, the trial's xoshiro stream
// (docs/performance.md, "One count engine", has the measurement behind
// that): run_trials rejects Batched, and the scenario resolver echoes
// engine=strict on the count backend.
#pragma once

#include <cstdint>

namespace plurality {

enum class EngineMode : std::uint8_t { Strict, Batched };

}  // namespace plurality
