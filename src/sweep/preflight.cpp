#include "sweep/preflight.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>

#include "core/execution_plan.hpp"
#include "core/registry.hpp"
#include "graph/graph_workspace.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace plurality::sweep {

namespace {

// Saturating u64 arithmetic: estimates feed a "fits / cannot fit"
// comparison, so wrapping is the one failure mode preflight must never
// have — a clique at n = 7e9 once wrapped (n*(n-1))/2 to a small number
// and sailed through the budget check. Saturated values compare as
// "cannot fit", which is always the safe answer.
constexpr std::uint64_t kSatMax = ~std::uint64_t{0};

std::uint64_t sat_mul(std::uint64_t a, std::uint64_t b) {
  const auto wide = static_cast<__uint128_t>(a) * b;
  return wide > kSatMax ? kSatMax : static_cast<std::uint64_t>(wide);
}

std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t sum = a + b;
  return sum < a ? kSatMax : sum;
}

std::uint64_t sat_from_double(double v) {
  if (!(v > 0.0)) return 0;
  if (v >= 1.8e19) return kSatMax;  // below kSatMax, above any real estimate
  return static_cast<std::uint64_t>(v);
}

/// Edge-count upper bound for the packed CSR, from the topology grammar
/// (graph/topology_registry.hpp). Unknown/garbled arguments fall back to
/// the clique worst case — preflight must never under-estimate.
std::uint64_t estimate_edges(const std::string& topology, std::uint64_t n) {
  const std::uint64_t clique_edges = sat_mul(n, n > 0 ? n - 1 : 0) / 2;
  const std::size_t colon = topology.find(':');
  const std::string kind = topology.substr(0, colon);
  const std::string arg = colon == std::string::npos ? "" : topology.substr(colon + 1);
  try {
    if (kind == "clique" || kind == "gossip") return clique_edges;
    if (kind == "ring") return n;
    if (kind == "torus") return sat_mul(2, n);
    if (kind == "lattice") return sat_mul(std::stoull(arg), n) / 2;
    if (kind == "regular") return sat_add(sat_mul(std::stoull(arg), n), 1) / 2;
    // Patching isolated vertices adds at most one edge per node.
    if (kind == "gnm") return sat_add(std::stoull(arg), n);
    if (kind == "er") {
      const double p = std::stod(arg);
      // Mean p*C(n,2) plus slack for the binomial tail.
      const double mean = p * 0.5 * static_cast<double>(n) * static_cast<double>(n - 1);
      return sat_add(sat_from_double(mean * 1.25), sat_mul(4, n));
    }
    if (kind == "edges") {
      // Proxy: an edge list line is >= 4 bytes ("a b\n"), so file bytes / 4
      // bounds the edge count from above.
      std::error_code ec;
      const auto size = std::filesystem::file_size(arg, ec);
      if (!ec) return static_cast<std::uint64_t>(size) / 4 + 1;
    }
  } catch (...) {
    // stoull/stod failure: validation will reject the spec; estimate big.
  }
  return clique_edges;
}

/// Per-node state bytes of the graph step workspace: one double buffer at
/// the width graph::byte_states picks — two u8 arrays when the dynamics'
/// state space (colors plus auxiliary states such as "undecided") fits a
/// byte, two u32 arrays otherwise. An unknown dynamics bills the wide case.
std::uint64_t graph_state_bytes_per_node(const scenario::ScenarioSpec& spec) {
  try {
    if (spec.k <= 256 &&
        graph::byte_states(make_dynamics(spec.dynamics)->num_states(spec.k))) {
      return 2;
    }
  } catch (...) {
    // Unknown dynamics: validation will reject the spec; bill the wide case.
  }
  return 2 * 4;
}

}  // namespace

std::uint64_t estimate_cell_memory_bytes(const scenario::ScenarioSpec& spec, int threads) {
  std::string backend;
  try {
    backend = spec.resolved_backend();
  } catch (...) {
    backend = spec.backend == "auto" ? "graph" : spec.backend;
  }
  const std::uint64_t n = spec.n;
  const std::uint64_t k = spec.k;
  constexpr std::uint64_t kFixed = 1ull << 20;  // code, spec, summaries

  if (backend == "count") {
    // Θ(k) counters per engine state; trials reuse one workspace.
    return kFixed + 64 * k * 8;
  }

  // graph backend. Implicit topologies (gossip/clique, and ring/torus/
  // lattice once the auto rule kicks in) build no arena: total state is the
  // step workspace — at n = 1e9 in bytes-only mode that is ~2 GB, which is
  // exactly why preflight must NOT bill such cells for a clique-sized CSR.
  std::string topo_backend;
  try {
    topo_backend = spec.resolved_topology_backend();
  } catch (...) {
    topo_backend = spec.topology_backend;  // "auto" falls to the arena model
  }
  // One step workspace per trial in flight: a `trials` plan gives each
  // thread of the team its own, a `rounds` plan shares one.
  const ExecutionPlan plan =
      plan_execution(spec.trials, TrialDriver::Graph, n, std::max(threads, 1));
  const std::uint64_t in_flight =
      plan.parallelism == Parallelism::Trials
          ? std::min<std::uint64_t>(spec.trials, static_cast<std::uint64_t>(plan.threads))
          : 1;
  const std::uint64_t workspace = sat_mul(
      sat_add(sat_mul(graph_state_bytes_per_node(spec), n), 64 * k * 8), in_flight);
  if (topo_backend == "implicit") {
    return sat_add(kFixed, workspace);
  }
  // Arena build: the CSR (n + 1 u64 offsets, one u32 per arc) plus what
  // its builder holds beside it (graph/builders.cpp): ring/torus/lattice
  // nothing; regular its stubs (one u32 per arc) and row fill counts (u32
  // per node); er/gnm/edges a u32 edge list (8 B per edge, doubled for
  // vector growth), and er/gnm also the duplicate filter before it
  // (an unordered_set of u64: ~32 B per node allocation plus 16 B of
  // buckets per edge).
  const std::uint64_t m = estimate_edges(spec.topology, n);
  const std::uint64_t arcs = sat_mul(2, m);
  const std::uint64_t csr = sat_add(sat_mul(sat_add(n, 2), 8), sat_mul(arcs, 4));
  const std::string kind = spec.topology.substr(0, spec.topology.find(':'));
  std::uint64_t builder = 0;
  if (kind == "regular") {
    builder = sat_add(sat_mul(arcs, 4), sat_mul(n, 4));
  } else if (kind == "er" || kind == "gnm" || kind == "edges") {
    builder = sat_mul(m, 16);
    if (kind != "edges") builder = sat_add(builder, sat_mul(m, 48));
  }
  return sat_add(sat_add(kFixed, sat_add(csr, builder)), workspace);
}

std::uint64_t default_memory_budget_bytes() {
  constexpr std::uint64_t kFallback = 2ull << 30;
#if defined(_SC_PHYS_PAGES) && defined(_SC_PAGESIZE)
  const long pages = sysconf(_SC_PHYS_PAGES);
  const long page = sysconf(_SC_PAGESIZE);
  if (pages > 0 && page > 0) {
    const std::uint64_t physical =
        static_cast<std::uint64_t>(pages) * static_cast<std::uint64_t>(page);
    return physical - physical / 5;  // keep 20% headroom for the OS
  }
#endif
  return kFallback;
}

std::string format_bytes(std::uint64_t bytes) {
  const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double value = static_cast<double>(bytes);
  int unit = 0;
  while (value >= 1024.0 && unit < 4) {
    value /= 1024.0;
    ++unit;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), unit == 0 ? "%.0f %s" : "%.1f %s", value, units[unit]);
  return buf;
}

}  // namespace plurality::sweep
