// High-throughput agent simulation on arbitrary topologies.
//
// Three pieces, mirroring the count-based engine's discipline (PR 1):
//
//  * AgentGraph — the one graph type: an immutable CSR-packed graph, one
//    contiguous arena holding the n+1 offsets followed by the 32-bit
//    neighbor ids, so a round's neighbor walks are sequential loads from a
//    single allocation. Every builder (builders.hpp) fills that arena in
//    place; no second adjacency form exists on the way in. The clique and
//    the ImplicitTopology families need no arena at all (sampling uniform
//    over [n] including self on the clique, the paper's model exactly).
//
//  * GraphStepWorkspace (graph_workspace.hpp) — all per-round scratch:
//    one double-buffered node-state array (bytes when k <= 256), per-chunk
//    partial counts. Warm rounds perform zero heap allocations.
//
//  * step_graph()/load_nodes() — the OpenMP-chunked stepper: kGraphChunks
//    fixed chunks with one hash-derived RNG stream per (round, chunk)
//    (thread-count invariant), fused per-dynamics kernels (kernels.hpp)
//    with a virtual-dispatch fallback for unregistered dynamics.
//
// The stepper is pinned BITWISE to the frozen pre-refactor implementation
// (tests/oracles/reference_sim.hpp): same streams, same sampling order, same states,
// round by round — see tests/graph/test_graph_determinism.cpp.
// GraphSimulation keeps the original convenience API on top of the engine;
// on AgentGraph::complete it reproduces the clique model exactly and is
// property-tested against the core backends.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "core/configuration.hpp"
#include "core/dynamics.hpp"
#include "graph/graph_workspace.hpp"
#include "graph/implicit_topology.hpp"
#include "rng/stream.hpp"
#include "support/types.hpp"

namespace plurality::graph {

/// Immutable CSR graph in a single contiguous arena.
///
/// Layout: arena_[0 .. n] are the 64-bit adjacency offsets; the 32-bit
/// neighbor ids are packed into the remaining words (two per u64). Node
/// count is capped at 2^32 - 1 so ids fit the packed width; offsets stay
/// 64-bit, so arc counts are unbounded. The complete graph and the
/// ImplicitTopology families have an empty arena: the clique samples
/// uniformly over all n nodes (self included), the others compute ids.
class AgentGraph {
 public:
  /// Empty graph; only useful as a move-assignment target.
  AgentGraph() = default;

  /// Implicit complete graph on n >= 1 nodes.
  static AgentGraph complete(count_t n);

  /// Arena-free graph over an ImplicitTopology descriptor: the kernels
  /// compute neighbor ids from the node id instead of gathering from the
  /// CSR arena, so memory is O(1) and node ids are not bound by the
  /// arena's 32-bit packing. A Gossip descriptor yields the implicit
  /// complete graph (is_complete() true) — uniform pull over the whole
  /// population is exactly the clique sampling model.
  static AgentGraph implicit(const ImplicitTopology& topo);

  /// One undirected edge {u, v} of an edge list (32-bit ids, as stored).
  using Edge = std::pair<std::uint32_t, std::uint32_t>;

  /// Arena graph on n nodes (1 <= n <= 2^32 - 1) from an undirected edge
  /// list, both directions stored. A self-loop is stored once and parallel
  /// edges keep their multiplicity (sampling semantics). Row v lists v's
  /// incident edges in list order. One counting sort writes the ids
  /// straight into the arena: peak memory is the arena plus `edges`.
  static AgentGraph from_edges(count_t n, std::span<const Edge> edges);

  /// d-regular arena graph on n nodes (1 <= n <= 2^32 - 1): the offsets are
  /// v * d, and `fill_rows` writes every row in place — rows[v*d, v*d + d)
  /// are v's neighbors, in order. The caller guarantees ids below n and
  /// symmetry (u in row v exactly as often as v in row u).
  static AgentGraph regular(count_t n, count_t d,
                            const std::function<void(std::span<std::uint32_t> rows)>& fill_rows);

  [[nodiscard]] bool is_complete() const { return complete_; }
  [[nodiscard]] count_t num_nodes() const { return n_; }

  /// True when neighbors are computed (ring/torus/lattice descriptors),
  /// false for arena-backed and complete/gossip graphs (which have their
  /// own dedicated sampling path).
  [[nodiscard]] bool is_implicit() const {
    return implicit_.family != ImplicitTopology::Family::None && !complete_;
  }
  /// The descriptor (family None on arena-backed graphs; family Gossip on
  /// gossip-built complete graphs).
  [[nodiscard]] const ImplicitTopology& implicit_topology() const { return implicit_; }

  /// Stored directed arcs (2x undirected edge count; 0 for the implicit
  /// complete graph).
  [[nodiscard]] std::uint64_t num_arcs() const { return arcs_; }

  /// Degree in the sampling model: n (self included) on the implicit
  /// complete graph, the stored neighbor count otherwise.
  [[nodiscard]] count_t degree(count_t v) const;

  /// Min/max degree over all nodes (computed once at build time).
  [[nodiscard]] count_t min_degree() const { return min_degree_; }
  [[nodiscard]] count_t max_degree() const { return max_degree_; }

  /// Raw CSR views for the kernels; only valid for explicit graphs. The
  /// neighbor pointer is derived from the arena on the fly (rather than
  /// cached) so the implicitly generated copy/move operations can never
  /// leave a pointer into another instance's arena.
  [[nodiscard]] const std::uint64_t* offsets() const { return arena_.data(); }
  [[nodiscard]] const std::uint32_t* neighbors() const {
    return reinterpret_cast<const std::uint32_t*>(arena_.data() + n_ + 1);
  }

  [[nodiscard]] std::span<const std::uint32_t> neighbors_of(count_t v) const;

  /// Bytes held by the arena (memory-model accounting for the docs/bench).
  [[nodiscard]] std::size_t arena_bytes() const { return arena_.size() * sizeof(std::uint64_t); }

 private:
  /// Zeroed arena for n nodes (1 <= n <= 2^32 - 1) and `arcs` arcs.
  static AgentGraph with_arena(count_t n, std::uint64_t arcs);

  count_t n_ = 0;
  bool complete_ = false;
  std::uint64_t arcs_ = 0;
  count_t min_degree_ = 0;
  count_t max_degree_ = 0;
  ImplicitTopology implicit_{};
  std::vector<std::uint64_t> arena_;
};

/// Reserved StreamFactory index for the layout shuffle (kept distinct from
/// every (round, chunk) stepping stream).
inline constexpr std::uint64_t kLayoutStream = ~0ULL;

/// (Re)initializes the workspace's node states (at the width
/// byte_states(start.k()) selects) from a configuration: state j laid out
/// at(j) times in node-id order, then shuffled with streams.stream(kLayoutStream)
/// when `shuffle_layout` (node position matters on sparse graphs, unlike
/// the clique). Allocation-free once ws has seen this n. The trailing
/// graph argument is unused and deprecated (the steppers already check that
/// the graph's node count matches); it stays only for existing callers.
void load_nodes(const Configuration& start, bool shuffle_layout,
                const rng::StreamFactory& streams, GraphStepWorkspace& ws,
                const AgentGraph* graph = nullptr);

/// One synchronous round over `graph`: every node draws sample_arity()
/// states from its neighborhood (uniform with repetition) and applies the
/// dynamics' rule. Reads and advances the workspace's node states (one
/// double buffer, at the width byte_states(k) selects) and publishes the
/// new counts into `config`. Zero heap allocations once ws is warm.
///
/// `mode` selects the stepping pipeline (see EngineMode in
/// graph_workspace.hpp). Strict (default): randomness from
/// streams.stream(round * kGraphChunks + chunk), bitwise-pinned to the
/// frozen reference — identical results for any thread count. Batched:
/// counter-based Philox keyed by streams.master_seed() with per-(round,
/// node, draw) addressing — identical results for any thread count, chunk
/// grid, or batch size; equivalent to Strict in distribution, not bitwise.
/// Dynamics without a batched kernel (rule tables) silently run Strict.
/// `tuning` carries the cache-behavior knobs (tile size, prefetch
/// distance); it never changes results, only speed.
void step_graph(const Dynamics& dynamics, const AgentGraph& graph,
                Configuration& config, const rng::StreamFactory& streams,
                round_t round, GraphStepWorkspace& ws,
                EngineMode mode = EngineMode::Strict,
                const StepTuning& tuning = {});

/// Convenience wrapper owning graph + workspace + round counter — the
/// original GraphSimulation API, now backed by the CSR engine.
class GraphSimulation {
 public:
  /// `start` assigns states by laying out start.at(j) nodes of state j in
  /// node-id order; pass `shuffle_layout = true` to randomize the
  /// assignment. Takes ownership of `graph`, so a temporary such as
  /// GraphSimulation(dyn, cycle(n), ...) is moved in and cannot dangle.
  /// `mode` picks the stepping pipeline (see step_graph).
  GraphSimulation(const Dynamics& dynamics, AgentGraph&& graph,
                  const Configuration& start, std::uint64_t seed,
                  bool shuffle_layout = true, EngineMode mode = EngineMode::Strict);

  /// Borrowing variant: steps over a caller-owned graph (the graph must
  /// outlive the simulation).
  GraphSimulation(const Dynamics& dynamics, const AgentGraph& graph,
                  const Configuration& start, std::uint64_t seed,
                  bool shuffle_layout = true, EngineMode mode = EngineMode::Strict);

  // Non-copyable/movable: graph_ may point at owned_graph_, and a copied
  // or moved-from instance would leave it aimed at the source object.
  // (Factory-return call sites still work via guaranteed copy elision.)
  GraphSimulation(const GraphSimulation&) = delete;
  GraphSimulation& operator=(const GraphSimulation&) = delete;

  /// One synchronous round of neighbor sampling + rule application.
  void step();

  /// Installs cache-behavior tuning (tile size, prefetch distance) for all
  /// subsequent steps. Performance-only: results are unaffected.
  void set_tuning(const StepTuning& tuning) { tuning_ = tuning; }

  [[nodiscard]] const Configuration& configuration() const { return config_; }
  [[nodiscard]] round_t round() const { return round_; }
  /// Every node's current state, widened to state_t (a copy of n values).
  [[nodiscard]] std::vector<state_t> states() const { return ws_.states(config_.k()); }
  /// Node v's current state (no copy).
  [[nodiscard]] state_t state(count_t v) const { return ws_.state(v, config_.k()); }
  [[nodiscard]] const AgentGraph& graph() const { return *graph_; }

  /// Runs until color consensus or `max_rounds`; returns rounds used, or
  /// max_rounds if no consensus was reached.
  round_t run_to_consensus(round_t max_rounds);

  static constexpr unsigned kChunks = kGraphChunks;

 private:
  void init(const Configuration& start, bool shuffle_layout);

  const Dynamics& dynamics_;
  AgentGraph owned_graph_;        // empty when borrowing
  const AgentGraph* graph_;
  Configuration config_;
  GraphStepWorkspace ws_;
  rng::StreamFactory streams_;
  round_t round_ = 0;
  EngineMode mode_ = EngineMode::Strict;
  StepTuning tuning_{};
};

}  // namespace plurality::graph
