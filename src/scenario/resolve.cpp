#include "scenario/resolve.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>

#include "core/registry.hpp"
#include "graph/graph_workspace.hpp"
#include "graph/step_batched.hpp"
#include "graph/topology_registry.hpp"
#include "support/specs.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace plurality::scenario {

namespace {

// Saturating u64 arithmetic: estimates feed a "fits / cannot fit"
// comparison, so wrapping is the one failure mode a bill must never
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

/// Slots of erdos_renyi's duplicate filter for m edges: bit_ceil(2m),
/// saturated where that power of two does not fit in u64.
std::uint64_t filter_slots(std::uint64_t m) {
  if (m > (std::uint64_t{1} << 62)) return kSatMax;
  return std::bit_ceil(std::max<std::uint64_t>(2 * m, 2));
}

/// Edge-count upper bound for the packed CSR, from the topology grammar
/// (graph/topology_registry.hpp). Unknown/garbled arguments fall back to
/// the clique worst case — a bill must never under-estimate.
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

/// The whole of a small text file (a /proc or cgroup file), or "" when it
/// cannot be read.
std::string read_small_file(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in), {}};
}

}  // namespace

Resolution resolve(const ScenarioSpec& spec, int threads, std::uint64_t memory_budget_bytes) {
  Resolution resolved;
  resolved.spec = spec;
  resolved.spec.backend = spec.resolved_backend();  // validates first
  const bool graph_driver = resolved.spec.backend == "graph";
  resolved.plan = plan_execution(spec.trials, graph_driver ? TrialDriver::Graph
                                                           : TrialDriver::Count,
                                 spec.n, threads);
  if (!graph_driver) {
    resolved.spec.engine = "strict";
    return resolved;
  }

  const auto dynamics = make_dynamics(spec.dynamics);
  resolved.plan.bytes_only = graph::byte_states(dynamics->num_states(spec.k));
  if (spec.engine == "batched" && graph::batched_has_kernel(*dynamics)) {
    resolved.plan.simd = graph::batched_simd_isa();
  }

  if (spec.topology_backend != "auto") return resolved;
  const std::string kind = split_spec(spec.topology).kind;
  std::string& topology_backend = resolved.spec.topology_backend;
  topology_backend = "arena";
  if (kind == "clique" || kind == "gossip") {
    topology_backend = "implicit";
  } else if (graph::topology_is_implicit_capable(spec.topology)) {
    // ring/torus/lattice: the arena while it fits (billed as "arena").
    const std::uint64_t budget =
        memory_budget_bytes > 0 ? memory_budget_bytes : default_memory_budget_bytes();
    if (spec.n > std::numeric_limits<std::uint32_t>::max() ||
        estimate_cell_memory_bytes(resolved) > budget) {
      topology_backend = "implicit";
    }
  }
  return resolved;
}

std::uint64_t estimate_cell_memory_bytes(const Resolution& resolved) {
  const ScenarioSpec& spec = resolved.spec;
  const ExecutionPlan& plan = resolved.plan;
  const std::uint64_t n = spec.n;
  const std::uint64_t k = spec.k;
  constexpr std::uint64_t kFixed = 1ull << 20;  // code, spec, summaries

  if (spec.backend == "count") {
    // Θ(k) counters per trial in flight (up to two per thread): kilobytes.
    return kFixed + 64 * k * 8;
  }

  // graph backend. One step workspace per trial in flight: a `trials` plan
  // gives each thread of the team its own, a `rounds` plan shares one.
  // Each holds a double buffer of node states at the plan's width (two u8
  // arrays, or two u32 arrays above 256 states) plus per-chunk partials.
  const std::uint64_t in_flight =
      plan.parallelism == Parallelism::Trials
          ? std::min<std::uint64_t>(spec.trials, static_cast<std::uint64_t>(plan.threads))
          : 1;
  const std::uint64_t state_bytes = plan.bytes_only ? 2 : 2 * 4;
  const std::uint64_t workspace =
      sat_mul(sat_add(sat_mul(state_bytes, n), 64 * k * 8), in_flight);
  // Implicit topologies build no arena: the whole state is the workspace —
  // at n = 1e9 in bytes-only mode that is ~2 GB, which is exactly why such
  // cells must NOT be billed for a clique-sized CSR.
  if (spec.topology_backend == "implicit") {
    return sat_add(kFixed, workspace);
  }
  // Arena build: the CSR (n + 1 u64 offsets, one u32 per arc) plus what
  // its builder holds beside it (graph/builders.cpp): ring/torus/lattice
  // nothing; regular its stubs (one u32 per arc) and row fill counts (u32
  // per node); er/gnm/edges a u32 edge list (8 B per edge, doubled for
  // vector growth), and er/gnm also the duplicate filter before it
  // (one u64 table of bit_ceil(2m) slots: 16–32 B per edge).
  const std::uint64_t m = estimate_edges(spec.topology, n);
  const std::uint64_t arcs = sat_mul(2, m);
  const std::uint64_t csr = sat_add(sat_mul(sat_add(n, 2), 8), sat_mul(arcs, 4));
  const std::string kind = spec.topology.substr(0, spec.topology.find(':'));
  std::uint64_t builder = 0;
  if (kind == "regular") {
    builder = sat_add(sat_mul(arcs, 4), sat_mul(n, 4));
  } else if (kind == "er" || kind == "gnm" || kind == "edges") {
    builder = sat_mul(m, 16);
    if (kind != "edges") builder = sat_add(builder, sat_mul(filter_slots(m), 8));
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
    std::uint64_t budget = physical - physical / 5;  // keep 20% headroom for the OS
    // The first limit file that reads is the process's own cgroup's.
    const std::string self = read_small_file("/proc/self/cgroup");
    for (const std::string& path : cgroup_memory_limit_files(self)) {
      const std::string contents = read_small_file(path);
      if (contents.empty()) continue;
      if (const auto limit = parse_cgroup_memory_limit(contents, physical)) {
        budget = std::min(budget, *limit);
      }
      break;
    }
    return budget;
  }
#endif
  return kFallback;
}

std::vector<std::string> cgroup_memory_limit_files(std::string_view proc_self_cgroup) {
  std::vector<std::string> v1, v2;
  // Each line is hierarchy-id:controller,...:path; v2's is 0::path.
  std::istringstream lines{std::string(proc_self_cgroup)};
  for (std::string line; std::getline(lines, line);) {
    const std::size_t first = line.find(':');
    if (first == std::string::npos) continue;
    const std::size_t second = line.find(':', first + 1);
    if (second == std::string::npos) continue;
    const std::string controllers = "," + line.substr(first + 1, second - first - 1) + ",";
    std::string path = line.substr(second + 1);
    while (!path.empty() && path.back() == '/') path.pop_back();
    const auto add = [&path](std::vector<std::string>& files, const std::string& mount,
                             const char* file) {
      files.push_back(mount + path + "/" + file);
      if (!path.empty()) files.push_back(mount + "/" + file);
    };
    if (controllers == ",," && line.substr(0, first) == "0") {
      add(v2, "/sys/fs/cgroup", "memory.max");
    } else if (controllers.find(",memory,") != std::string::npos) {
      add(v1, "/sys/fs/cgroup/memory", "memory.limit_in_bytes");
    }
  }
  v1.insert(v1.end(), v2.begin(), v2.end());
  return v1;
}

std::optional<std::uint64_t> parse_cgroup_memory_limit(std::string_view contents,
                                                        std::uint64_t physical_bytes) {
  contents = contents.substr(0, contents.find_last_not_of(" \t\n") + 1);
  std::uint64_t limit = 0;
  const char* end = contents.data() + contents.size();
  const auto [parsed, error] = std::from_chars(contents.data(), end, limit);
  if (contents.empty() || error != std::errc() || parsed != end || limit >= physical_bytes) {
    return std::nullopt;
  }
  return limit;
}

}  // namespace plurality::scenario
