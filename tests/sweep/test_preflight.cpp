// Preflight memory estimates (sweep/preflight.hpp).
//
// The load-bearing regression: estimate_cell_memory_bytes once computed
// clique edge counts as (n*(n-1))/2 in plain u64, which WRAPS for
// n >~ 6.07e9 — a cell that cannot possibly fit sailed through the budget
// check and OOM-killed the sweep. All estimate arithmetic now saturates;
// these tests pin the wrap case, the implicit-cell state-array model
// (gossip at n = 1e9 must fit a laptop budget, not be billed a clique
// arena), and the coarse ordering the orchestrator relies on.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "scenario/spec.hpp"
#include "support/check.hpp"
#include "sweep/preflight.hpp"

namespace plurality::sweep {
namespace {

scenario::ScenarioSpec spec_of(const std::string& text) {
  return scenario::ScenarioSpec::parse(text);
}

TEST(Preflight, HugeCliqueFallbackSaturatesInsteadOfWrapping) {
  // n = 7e9: (n*(n-1))/2 ≈ 2.45e19 > 2^64 wraps to ~5.8e18... actually
  // the killer case is the WRAPPED value landing small. Pin the estimate
  // to "astronomically large" for a topology that falls back to the
  // clique edge bound: an unreadable edge-list file. (A literal clique
  // now resolves to the implicit backend and is billed state-only, which
  // is the fix's other half — see GossipBillionFitsSmallBudget.)
  scenario::ScenarioSpec spec;
  spec.topology = "edges:/nonexistent/preflight_wrap_regression.txt";
  spec.n = 7'000'000'000ULL;
  spec.k = 2;
  const std::uint64_t estimate = estimate_cell_memory_bytes(spec);
  EXPECT_GE(estimate, std::uint64_t{1} << 60)
      << "a ~2.4e19-edge fallback estimate must not wrap into 'fits'";
}

TEST(Preflight, ArenaEdgeArithmeticSaturates) {
  // Forced-arena estimates at absurd n must clamp, not wrap. (The spec
  // would fail validation — preflight estimates are deliberately usable
  // on unvalidated specs so refusal messages can name the real number.)
  scenario::ScenarioSpec spec;
  spec.topology = "regular:64";
  spec.topology_backend = "arena";
  spec.n = 1'000'000'000'000'000'000ULL;  // 64 * n wraps u64 without saturation
  EXPECT_GE(estimate_cell_memory_bytes(spec), std::uint64_t{1} << 60);
}

TEST(Preflight, GossipBillionFitsSmallBudget) {
  // The whole point of the implicit path: gossip at n = 1e9, k = 2 is two
  // byte arrays (~2 GB), NOT a clique arena (~4e18 edges). The estimate
  // must admit the cell under a 3 GiB budget.
  const auto spec = spec_of("topology=gossip n=1e9 k=2 engine=batched");
  const std::uint64_t estimate = estimate_cell_memory_bytes(spec);
  EXPECT_LT(estimate, std::uint64_t{3} << 30);
  EXPECT_GT(estimate, std::uint64_t{1} << 30);  // ~2n bytes of state is real
}

TEST(Preflight, ImplicitRingBillionFitsSmallBudget) {
  const auto spec = spec_of("topology=ring n=1e9 k=3");
  EXPECT_LT(estimate_cell_memory_bytes(spec), std::uint64_t{3} << 30);
}

TEST(Preflight, ImplicitIsCheaperThanArenaForSameTopology) {
  // Below the auto threshold ring resolves to arena (CSR billed); forcing
  // implicit must strictly shrink the estimate. Same n, same k.
  const auto arena = spec_of("topology=ring n=1e6 topology_backend=arena");
  const auto implicit = spec_of("topology=ring n=1e6 topology_backend=implicit");
  EXPECT_LT(estimate_cell_memory_bytes(implicit), estimate_cell_memory_bytes(arena));
}

TEST(Preflight, CoarseOrderingAcrossBackends) {
  // count << per-agent clique <= arena graph at the same n: the ranking
  // the serial-phase decision depends on.
  const auto count = spec_of("topology=clique dynamics=3-majority n=1e6 backend=count");
  const auto clique = spec_of("topology=clique dynamics=3-majority n=1e6 backend=graph");
  const auto graph = spec_of("topology=regular:8 n=1e6");
  EXPECT_LT(estimate_cell_memory_bytes(count), std::uint64_t{1} << 22);
  EXPECT_LT(estimate_cell_memory_bytes(count), estimate_cell_memory_bytes(clique));
  EXPECT_LE(estimate_cell_memory_bytes(clique), estimate_cell_memory_bytes(graph));
}

TEST(Preflight, NoExactLawCliqueIsBilledAsImplicitGraphCell) {
  // 20-plurality has no exact law at k = 16, so auto runs it per agent on
  // the graph engine's implicit clique: one byte double buffer (2 B/node
  // at k <= 256) plus the per-chunk partials — the same bill as any other
  // implicit graph cell of that n and k.
  const std::uint64_t n = std::uint64_t{1} << 24;
  const auto spec = spec_of("dynamics=20-plurality topology=clique n=16777216 k=16 trials=1");
  ASSERT_EQ(spec.resolved_backend(), "graph");
  const std::uint64_t clique = estimate_cell_memory_bytes(spec);
  EXPECT_GE(clique, 2 * n);
  EXPECT_LT(clique, 3 * n);
  EXPECT_EQ(clique, estimate_cell_memory_bytes(spec_of(
                        "dynamics=20-plurality topology=gossip n=16777216 k=16 trials=1")));
  // The spec's old explicit form is refused by validation, naming the
  // removal.
  try {
    spec_of("dynamics=20-plurality topology=clique n=16777216 k=16 backend=agent").validate();
    FAIL() << "backend=agent must be rejected";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("backend 'agent' was removed"), std::string::npos)
        << e.what();
  }
}

TEST(Preflight, ByteStateCellsAreBilledTwoBytesPerNode) {
  // k <= 256 graph cells hold one byte double buffer: ~2n state bytes at
  // any n, where the old u32 + byte-mirror layout billed 10n.
  const std::uint64_t n = std::uint64_t{1} << 24;
  const std::uint64_t gossip = estimate_cell_memory_bytes(
      spec_of("topology=gossip n=16777216 k=8 trials=1 engine=batched"));
  EXPECT_GE(gossip, 2 * n);
  EXPECT_LT(gossip, 3 * n);
  // Above 256 states the double buffer is two u32 arrays: 8n.
  const std::uint64_t wide = estimate_cell_memory_bytes(
      spec_of("topology=gossip n=16777216 k=300 trials=1 engine=batched"));
  EXPECT_GE(wide, 8 * n);
  EXPECT_LT(wide, 9 * n);
  // The undecided state counts: 256 colors are 257 states, billed wide.
  const std::uint64_t undecided = estimate_cell_memory_bytes(
      spec_of("dynamics=undecided topology=gossip n=16777216 k=256 trials=1 "
              "engine=batched"));
  EXPECT_GE(undecided, 8 * n);
}

TEST(Preflight, FormatBytesIsHumanReadable) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(std::uint64_t{3} << 30), "3.0 GiB");
}

}  // namespace
}  // namespace plurality::sweep
