// The topology_backend axis of ScenarioSpec (spec.hpp) and the u32
// node-id ceiling it unlocks.
//
// Before the implicit engine, n > 2^32 - 1 either crashed deep in the CSR
// packer or silently truncated ids. Now the boundary is validated with an
// actionable error at the registry/spec layer, and the implicit families
// are the documented escape hatch. These tests pin: field round-trips
// (string + JSON), the resolver's auto rule (scenario/resolve.hpp: the
// arena while n fits u32 ids and its bill fits the memory budget), the
// arena/implicit validation errors, the u32 boundary itself, and
// compile() echoing the resolved choice.
#include <gtest/gtest.h>

#include "scenario/resolve.hpp"
#include "scenario/scenario.hpp"
#include "scenario/spec.hpp"
#include "support/check.hpp"

namespace plurality::scenario {
namespace {

TEST(TopologyBackend, RoundTripsThroughStringAndJson) {
  ScenarioSpec spec = ScenarioSpec::parse("topology=ring n=1e6 topology_backend=implicit");
  EXPECT_EQ(spec.topology_backend, "implicit");
  EXPECT_EQ(ScenarioSpec::parse(spec.to_spec_string()).topology_backend, "implicit");
  EXPECT_EQ(ScenarioSpec::from_json(spec.to_json()).topology_backend, "implicit");
  // Default stays "auto" and survives the round trip too.
  ScenarioSpec def;
  EXPECT_EQ(def.topology_backend, "auto");
  EXPECT_EQ(ScenarioSpec::parse(def.to_spec_string()).topology_backend, "auto");
}

/// The topology backend `text` resolves to for a 4-thread run under
/// `budget` bytes of memory (0 = the default budget).
std::string topology_backend_of(const std::string& text, std::uint64_t budget = 0) {
  return resolve(ScenarioSpec::parse(text), 4, budget).spec.topology_backend;
}

TEST(TopologyBackend, AutoTakesTheArenaWhileItFitsTheMemoryBudget) {
  // The lattice that ran ~6x slower on the implicit path: its ~240 MB
  // arena fits the default budget.
  EXPECT_EQ(topology_backend_of("dynamics=3-majority topology=lattice:8 n=5e6 k=8 trials=4 "
                                "max_rounds=50 engine=batched"),
            "arena");
  // A 10^9-node ring's ~16 GB arena does not fit 1 GiB.
  EXPECT_EQ(topology_backend_of("topology=ring n=1e9 k=3 trials=1", std::uint64_t{1} << 30),
            "implicit");
  // The budget decides at the arena's exact bill.
  const ScenarioSpec torus = ScenarioSpec::parse("topology=torus n=1e6 k=3 trials=2");
  const Resolution at_arena = resolve(torus, 4);
  ASSERT_EQ(at_arena.spec.topology_backend, "arena");
  const std::uint64_t arena_bill = estimate_cell_memory_bytes(at_arena);
  EXPECT_EQ(resolve(torus, 4, arena_bill).spec.topology_backend, "arena");
  EXPECT_EQ(resolve(torus, 4, arena_bill - 1).spec.topology_backend, "implicit");
  // Past the u32 node ids no budget buys an arena (validate-only: no
  // graph is built).
  ScenarioSpec huge = ScenarioSpec::parse("topology=lattice:4 k=3 trials=1");
  huge.n = 4294967296ULL;
  EXPECT_EQ(resolve(huge, 4, ~std::uint64_t{0}).spec.topology_backend, "implicit");
}

TEST(TopologyBackend, AutoFollowsTheFamilyWhereThereIsNoChoice) {
  // Clique and gossip are implicit by construction, at any budget.
  EXPECT_EQ(topology_backend_of("topology=gossip n=100", ~std::uint64_t{0}), "implicit");
  EXPECT_EQ(topology_backend_of("topology=clique n=100 backend=graph", ~std::uint64_t{0}),
            "implicit");
  // The random families have only an arena form, even over budget (the
  // sweep preflight refuses such a cell instead).
  for (const char* topology : {"regular:8", "er:0.001", "gnm:40000"}) {
    EXPECT_EQ(topology_backend_of(std::string("topology=") + topology + " n=1e4", 1), "arena")
        << topology;
  }
  // Explicit values are identities.
  EXPECT_EQ(topology_backend_of("topology=ring n=1e7 topology_backend=arena", 1), "arena");
  EXPECT_EQ(topology_backend_of("topology=ring n=100 topology_backend=implicit"), "implicit");
  // The count backend builds no graph and keeps the field as given.
  EXPECT_EQ(topology_backend_of("topology=clique n=100"), "auto");
}

TEST(TopologyBackend, ValidationRejectsImpossibleCombinations) {
  // Unknown value.
  EXPECT_THROW(ScenarioSpec::parse("topology_backend=csr").validate(), CheckError);
  // Implicit has no form for the random families.
  EXPECT_THROW(ScenarioSpec::parse("topology=regular:8 topology_backend=implicit").validate(),
               CheckError);
  EXPECT_THROW(ScenarioSpec::parse("topology=er:0.01 topology_backend=implicit").validate(),
               CheckError);
  // Arena has no form for clique/gossip.
  EXPECT_THROW(ScenarioSpec::parse("topology=clique topology_backend=arena").validate(),
               CheckError);
  EXPECT_THROW(ScenarioSpec::parse("topology=gossip topology_backend=arena").validate(),
               CheckError);
}

TEST(TopologyBackend, U32NodeIdBoundaryIsValidatedWithEscapeHatch) {
  constexpr count_t kU32Max = 4294967295ULL;
  // regular:8 at exactly the cap validates (validation is cheap — no graph
  // is built); one past the cap throws, and the message names the escape
  // hatch instead of just refusing.
  ScenarioSpec spec = ScenarioSpec::parse("topology=regular:8");
  spec.n = kU32Max;
  EXPECT_NO_THROW(spec.validate());
  spec.n = kU32Max + 1;
  try {
    spec.validate();
    FAIL() << "n = 2^32 must be rejected on an arena topology";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("4294967295"), std::string::npos) << what;
    EXPECT_NE(what.find("implicit"), std::string::npos) << what;
  }
  // Forced-arena ring hits the same ceiling...
  ScenarioSpec ring = ScenarioSpec::parse("topology=ring topology_backend=arena");
  ring.n = kU32Max + 1;
  EXPECT_THROW(ring.validate(), CheckError);
  // ...while the implicit path sails past it (validate-only: no 4-billion
  // node graph is built here).
  ScenarioSpec implicit_ring = ScenarioSpec::parse("topology=ring");
  implicit_ring.n = kU32Max + 1;
  EXPECT_NO_THROW(implicit_ring.validate());
  EXPECT_EQ(resolve(implicit_ring, 4).spec.topology_backend, "implicit");
  // Clique/gossip keep the 32-bit cap: the batched sampler's bound is n.
  ScenarioSpec gossip = ScenarioSpec::parse("topology=gossip");
  gossip.n = kU32Max + 1;
  EXPECT_THROW(gossip.validate(), CheckError);
}

TEST(TopologyBackend, CompileEchoesResolvedBackendAndBuildsImplicit) {
  // A forced-implicit small ring and a small gossip: the resolved spec
  // must echo the concrete choice, and the graphs must carry no arena.
  const Scenario ring = Scenario::compile(
      ScenarioSpec::parse("topology=ring n=1000 topology_backend=implicit trials=1"));
  EXPECT_EQ(ring.spec().topology_backend, "implicit");
  EXPECT_TRUE(ring.graph().is_implicit());
  EXPECT_EQ(ring.graph().max_degree(), 2u);

  const Scenario gossip =
      Scenario::compile(ScenarioSpec::parse("topology=gossip n=1000 trials=1"));
  EXPECT_EQ(gossip.spec().topology_backend, "implicit");
  EXPECT_TRUE(gossip.graph().is_complete());

  const Scenario arena = Scenario::compile(ScenarioSpec::parse("topology=ring n=1000 trials=1"));
  EXPECT_EQ(arena.spec().topology_backend, "arena");
  EXPECT_FALSE(arena.graph().is_implicit());
}

TEST(TopologyBackend, ImplicitAndArenaCompileToSameResults) {
  // End-to-end through the scenario layer: same spec, both backends, same
  // summary bit for bit (the engine-level pin lives in
  // tests/graph/test_implicit_topology.cpp; this covers the compile path).
  const std::string base = "topology=torus:20x30 n=600 k=3 workload=bias:50 trials=6 "
                           "seed=9 max_rounds=20000";
  for (const char* engine : {"strict", "batched"}) {
    const auto arena = run_scenario(
        ScenarioSpec::parse(base + " engine=" + engine + " topology_backend=arena"));
    const auto implicit = run_scenario(
        ScenarioSpec::parse(base + " engine=" + engine + " topology_backend=implicit"));
    EXPECT_EQ(implicit.summary.round_samples, arena.summary.round_samples) << engine;
    EXPECT_EQ(implicit.summary.consensus_count, arena.summary.consensus_count) << engine;
  }
}

}  // namespace
}  // namespace plurality::scenario
