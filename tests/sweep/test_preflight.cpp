// Memory bills of resolved cells (scenario/resolve.hpp), the numbers the
// sweep preflight (sweep/preflight.hpp) admits and refuses cells by.
//
// The load-bearing regression: estimate_cell_memory_bytes once computed
// clique edge counts as (n*(n-1))/2 in plain u64, which WRAPS for
// n >~ 6.07e9 — a cell that cannot possibly fit sailed through the budget
// check and OOM-killed the sweep. All estimate arithmetic now saturates;
// these tests pin the wrap case, the implicit-cell state-array model
// (gossip at n = 1e9 must fit a laptop budget, not be billed a clique
// arena), and the coarse ordering the orchestrator relies on.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>

#include "core/workloads.hpp"
#include "graph/agent_graph.hpp"
#include "graph/topology_registry.hpp"
#include "scenario/resolve.hpp"
#include "scenario/spec.hpp"
#include "support/check.hpp"
#include "sweep/preflight.hpp"

namespace plurality::sweep {
namespace {

scenario::ScenarioSpec spec_of(const std::string& text) {
  return scenario::ScenarioSpec::parse(text);
}

/// The bill of `spec` as the resolver resolves it for `threads` threads
/// under the default memory budget.
std::uint64_t bill(const scenario::ScenarioSpec& spec, int threads = execution_thread_budget()) {
  return scenario::estimate_cell_memory_bytes(scenario::resolve(spec, threads));
}

/// The bill of a spec that was never resolved (nor validated): its fields
/// as written, under a default plan.
std::uint64_t unresolved_bill(const scenario::ScenarioSpec& spec) {
  return scenario::estimate_cell_memory_bytes({spec, ExecutionPlan{}});
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
  const std::uint64_t estimate = unresolved_bill(spec);
  EXPECT_GE(estimate, std::uint64_t{1} << 60)
      << "a ~2.4e19-edge fallback estimate must not wrap into 'fits'";
}

TEST(Preflight, ArenaEdgeArithmeticSaturates) {
  // Forced-arena estimates at absurd n must clamp, not wrap. (The spec
  // would fail validation — bills are deliberately usable on unresolved
  // specs, which bill the costlier case of each "auto".)
  scenario::ScenarioSpec spec;
  spec.topology = "regular:64";
  spec.topology_backend = "arena";
  spec.n = 1'000'000'000'000'000'000ULL;  // 64 * n wraps u64 without saturation
  EXPECT_GE(unresolved_bill(spec), std::uint64_t{1} << 60);
}

TEST(Preflight, GossipBillionFitsSmallBudget) {
  // The whole point of the implicit path: gossip at n = 1e9, k = 2 is two
  // byte arrays (~2 GB), NOT a clique arena (~4e18 edges). The estimate
  // must admit the cell under a 3 GiB budget.
  const auto spec = spec_of("topology=gossip n=1e9 k=2 trials=1 engine=batched");
  const std::uint64_t estimate = bill(spec);
  EXPECT_LT(estimate, std::uint64_t{3} << 30);
  EXPECT_GT(estimate, std::uint64_t{1} << 30);  // ~2n bytes of state is real
}

TEST(Preflight, ImplicitRingBillionFitsSmallBudget) {
  // Its ~16 GB arena does not fit 3 GiB, so auto resolves the ring to the
  // implicit form, billed for its node states alone.
  const auto spec = spec_of("topology=ring n=1e9 k=3 trials=1");
  constexpr std::uint64_t kBudget = std::uint64_t{3} << 30;
  EXPECT_LT(scenario::estimate_cell_memory_bytes(scenario::resolve(spec, 4, kBudget)), kBudget);
}

TEST(Preflight, ImplicitIsCheaperThanArenaForSameTopology) {
  // Forcing implicit must strictly shrink the estimate against the
  // arena's CSR bill. Same n, same k.
  const auto arena = spec_of("topology=ring n=1e6 topology_backend=arena");
  const auto implicit = spec_of("topology=ring n=1e6 topology_backend=implicit");
  EXPECT_LT(bill(implicit), bill(arena));
}

TEST(Preflight, CoarseOrderingAcrossBackends) {
  // count << per-agent clique <= arena graph at the same n: the ranking
  // the serial-phase decision depends on.
  const auto count = spec_of("topology=clique dynamics=3-majority n=1e6 backend=count");
  const auto clique = spec_of("topology=clique dynamics=3-majority n=1e6 backend=graph");
  const auto graph = spec_of("topology=regular:8 n=1e6");
  EXPECT_LT(bill(count), std::uint64_t{1} << 22);
  EXPECT_LT(bill(count), bill(clique));
  EXPECT_LE(bill(clique), bill(graph));
}

TEST(Preflight, NoExactLawCliqueIsBilledAsImplicitGraphCell) {
  // 20-plurality has no exact law at k = 16, so auto runs it per agent on
  // the graph engine's implicit clique: one byte double buffer (2 B/node
  // at k <= 256) plus the per-chunk partials — the same bill as any other
  // implicit graph cell of that n and k.
  const std::uint64_t n = std::uint64_t{1} << 24;
  const auto spec = spec_of("dynamics=20-plurality topology=clique n=16777216 k=16 trials=1");
  ASSERT_EQ(spec.resolved_backend(), "graph");
  const std::uint64_t clique = bill(spec);
  EXPECT_GE(clique, 2 * n);
  EXPECT_LT(clique, 3 * n);
  EXPECT_EQ(clique, bill(spec_of(
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
  const std::uint64_t gossip = bill(
      spec_of("topology=gossip n=16777216 k=8 trials=1 engine=batched"));
  EXPECT_GE(gossip, 2 * n);
  EXPECT_LT(gossip, 3 * n);
  // Above 256 states the double buffer is two u32 arrays: 8n.
  const std::uint64_t wide = bill(
      spec_of("topology=gossip n=16777216 k=300 trials=1 engine=batched"));
  EXPECT_GE(wide, 8 * n);
  EXPECT_LT(wide, 9 * n);
  // The undecided state counts: 256 colors are 257 states, billed wide.
  const std::uint64_t undecided = bill(
      spec_of("dynamics=undecided topology=gossip n=16777216 k=256 trials=1 "
              "engine=batched"));
  EXPECT_GE(undecided, 8 * n);
}

TEST(Preflight, TrialsPlanBillsOneWorkspacePerThread) {
  // At 4 threads, trials = 1 runs under a `rounds` plan with one step
  // workspace; trials = 4 runs under a `trials` plan, one trial (and one
  // ~2n-byte workspace) per thread at once.
  const std::uint64_t n = std::uint64_t{1} << 24;
  const std::uint64_t one = bill(
      spec_of("topology=gossip n=16777216 k=2 trials=1 engine=batched"), 4);
  const std::uint64_t four = bill(
      spec_of("topology=gossip n=16777216 k=2 trials=4 engine=batched"), 4);
  EXPECT_GE(one, 2 * n);
  EXPECT_LT(one, 3 * n);
  EXPECT_GE(four, 4 * 2 * n);
  EXPECT_LT(four, 4 * 3 * n);
  // More trials than threads: still one workspace per thread.
  EXPECT_EQ(four, bill(
                      spec_of("topology=gossip n=16777216 k=2 trials=20 engine=batched"), 4));
}

/// Peak RSS in bytes of a forked child that runs `body` (wait4's ru_maxrss).
std::uint64_t child_peak_rss(const std::function<void()>& body) {
  const pid_t pid = fork();
  if (pid == 0) {
    try {
      body();
    } catch (...) {
      _exit(1);
    }
    _exit(0);
  }
  int status = 0;
  rusage usage{};
  EXPECT_EQ(wait4(pid, &status, 0, &usage), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

TEST(Preflight, ArenaBuildsStayUnderTheirBill) {
  // Each arena family built at n = 4e6 in a forked child, with one step
  // workspace loaded beside it: the child's peak-RSS growth must stay under
  // the cell's estimate. Growth is measured against a child that only runs
  // the same family at a tiny n, so code pages faulted in by the builder
  // are not counted as the cell's data. (lattice:8 once grew ~580 MiB
  // while billed ~240 MiB: its builder held an edge list and a second CSR
  // beside the arena.)
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "ASan's shadow memory and allocator redzones inflate the child's RSS "
                  "past a bill that models an uninstrumented build; the uninstrumented "
                  "builds enforce this check";
#endif
  const count_t n = 4'000'000;
  const auto temp = std::filesystem::temp_directory_path();
  const std::string pid = std::to_string(getpid());
  const std::filesystem::path big_edges = temp / ("preflight_edges_" + pid + ".txt");
  const std::filesystem::path tiny_edges = temp / ("preflight_tiny_edges_" + pid + ".txt");
  {
    std::FILE* out = std::fopen(big_edges.c_str(), "w");
    ASSERT_NE(out, nullptr);
    for (count_t v = 0; v < n; v += 4) {
      std::fprintf(out, "%llu %llu\n", static_cast<unsigned long long>(v),
                   static_cast<unsigned long long>(v + 1));
    }
    std::fclose(out);
    out = std::fopen(tiny_edges.c_str(), "w");
    ASSERT_NE(out, nullptr);
    std::fprintf(out, "0 1\n1 2\n");
    std::fclose(out);
  }
  struct Case {
    std::string topology, tiny_topology;
    count_t tiny_n;
  };
  const Case cases[] = {{"ring", "ring", 1000},
                        {"torus", "torus", 10000},
                        {"lattice:8", "lattice:8", 1000},
                        {"regular:4", "regular:4", 1000},
                        {"gnm:4000000", "gnm:1000", 1000},
                        {"er:0.0000005", "er:0.01", 1000},
                        {"edges:" + big_edges.string(), "edges:" + tiny_edges.string(), 16}};
  for (const Case& c : cases) {
    const auto build = [](const std::string& topology, count_t nodes) {
      rng::Xoshiro256pp gen(1);
      const graph::AgentGraph graph = graph::make_topology(topology, nodes, gen);
      graph::GraphStepWorkspace ws;
      graph::load_nodes(workloads::balanced(nodes, 8), true, rng::StreamFactory(1), ws);
    };
    const std::uint64_t warm = child_peak_rss([&] { build(c.tiny_topology, c.tiny_n); });
    const std::uint64_t peak = child_peak_rss([&] {
      build(c.tiny_topology, c.tiny_n);
      build(c.topology, n);
    });
    const std::uint64_t estimate = bill(
        spec_of("topology=" + c.topology + " n=4e6 k=8 trials=1 topology_backend=arena"), 1);
    EXPECT_LT(peak - warm, estimate) << c.topology << ": grew " << format_bytes(peak - warm)
                                     << ", billed " << format_bytes(estimate);
  }
  std::filesystem::remove(big_edges);
  std::filesystem::remove(tiny_edges);
}

TEST(Preflight, FormatBytesIsHumanReadable) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(std::uint64_t{3} << 30), "3.0 GiB");
}

}  // namespace
}  // namespace plurality::sweep
