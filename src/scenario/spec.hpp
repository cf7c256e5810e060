// ScenarioSpec — the declarative face of the whole experiment grid.
//
// The paper's statements quantify over dynamics × k × workload × topology
// × adversary (Becchetti et al., SPAA 2014; the gossip-model follow-up
// arXiv:1407.2565 adds the topology/communication axis). Before this layer
// the grid was reachable only through two divergent APIs (core run_trials
// vs graph::run_graph_trials) that every binary hand-wired. A ScenarioSpec
// names one grid cell declaratively:
//
//   dynamics   registry name            (core/registry.hpp)
//   workload   initial-configuration spec (core/workloads.hpp grammar)
//   topology   topology spec            (graph/topology_registry.hpp grammar)
//   adversary  adversary spec           (core/adversary.hpp grammar)
//   backend    auto | count | graph
//   engine     strict | batched  (core/engine_mode.hpp)
//   stop       consensus | m-plurality:<M> | any-reaches:<T>
//   n, k, trials, seed, max_rounds, shuffle_layout
//
// How the trials use the threads is not a spec field: the execution
// planner (core/execution_plan.hpp) decides it at run time, and parsing a
// `parallel` field fails with a message saying so. The removed fields
// `graph_layout`, `tile_nodes` and `prefetch_distance` fail the same way:
// graphs step in the order their builder numbered them, with the default
// cache tuning. So do the removed `engine=push` value (it was bitwise
// identical to `batched`) and the removed `backend=agent` value (it was
// bitwise the graph engine's strict pipeline on the implicit clique).
//
// Specs parse from "key=value" strings or JSON files, validate with
// actionable errors, compile (scenario.hpp) into the right backend, and
// run through the SAME legacy drivers every golden test pins — same spec,
// same streams, bitwise-identical TrialSummary.
#pragma once

#include <string>

#include "io/json.hpp"
#include "support/types.hpp"

namespace plurality::scenario {

struct ScenarioSpec {
  std::string dynamics = "3-majority";
  std::string workload = "balanced";
  std::string topology = "clique";
  std::string adversary = "none";
  /// Trial driver. "auto" resolves at validate()/compile() time: clique
  /// topology + exact adoption law -> "count" (the Θ(k)-per-round exact
  /// backend); anything else -> "graph" (sparse topologies, and the
  /// per-agent implicit clique for dynamics without an exact law).
  std::string backend = "auto";
  /// Stepping pipeline of the graph backend, "strict" or "batched"
  /// (core/engine_mode.hpp). The count backend has one engine: a count
  /// spec may say "batched", and resolving it echoes "strict", what runs.
  std::string engine = "strict";
  /// Stop condition, checked after each round on top of the always-on
  /// absorption checks:
  ///   "consensus"         color consensus / absorption / round cap only
  ///   "m-plurality:<M>"   all but at most M nodes on color 0 (Corollary 4
  ///                       runs; every workload puts the plurality there)
  ///   "any-reaches:<T>"   some color holds >= T nodes (Theorem 2 runs)
  /// Predicates work on every backend.
  std::string stop = "consensus";
  /// How the graph backend materializes the topology:
  ///   "auto"      decided by the resolver (scenario/resolve.hpp): implicit
  ///               for clique/gossip (arena-free by construction), arena
  ///               for the random and edge-list families (no implicit
  ///               form); ring/torus/lattice:<d> take the arena when n fits
  ///               its u32 ids and the run's arena bill fits the memory
  ///               budget (it steps faster), implicit otherwise.
  ///   "arena"     force the CSR arena build (caps n at 2^32 - 1 node ids;
  ///               rejects clique/gossip, which have no arena form)
  ///   "implicit"  force arithmetic neighborhoods (clique, gossip, ring,
  ///               torus, lattice:<d> only; no id cap beyond clique/gossip's
  ///               batched sample bound)
  /// Implicit ring/torus/lattice are bitwise-identical to their arena
  /// builds, so this knob never changes results — only memory and the
  /// reachable n. Ignored by the count backend.
  std::string topology_backend = "auto";
  count_t n = 10'000;
  state_t k = 3;
  std::uint64_t trials = 20;
  std::uint64_t seed = 1;
  round_t max_rounds = 1'000'000;
  /// Graph backend only: shuffle the node layout per trial.
  bool shuffle_layout = true;

  /// Parses the compact string form: whitespace-separated "key=value"
  /// tokens over the JSON field names, e.g.
  ///   "dynamics=undecided topology=regular:8 workload=bias:2c n=1e6 k=5
  ///    engine=batched trials=32"
  /// Unknown keys, duplicate keys, and malformed values throw CheckError.
  /// Fields not mentioned keep their defaults. Does NOT validate cross-
  /// field constraints — call validate().
  static ScenarioSpec parse(const std::string& text);

  /// Builds a spec from a parsed JSON object (strict: unknown keys throw,
  /// so a typo cannot silently run the default experiment). Fields not
  /// present keep their defaults.
  static ScenarioSpec from_json(const io::JsonValue& doc);

  /// Applies one `key=value` assignment with the string form's parsing
  /// rules (numeric fields accept "1e6"; unknown keys throw naming the
  /// known fields). This is the sweep layer's expansion hook: an axis is a
  /// field name plus value strings, each applied via set_field.
  void set_field(const std::string& key, const std::string& value);

  /// read_json_file + from_json.
  static ScenarioSpec from_json_file(const std::string& path);

  /// The spec as an ordered JSON object (round-trips through from_json).
  [[nodiscard]] io::JsonValue to_json() const;

  /// The spec in the compact string form (round-trips through parse).
  [[nodiscard]] std::string to_spec_string() const;

  /// Cross-field validation with actionable errors: every name resolves
  /// through its registry, the workload/topology fit (n, k), and the
  /// backend/engine/adversary/stop combination is runnable. Cheap (builds
  /// no graph). Throws CheckError; returns normally iff compile() would
  /// succeed (up to edge-list file contents).
  void validate() const;

  /// The backend "auto" resolves to under this spec's topology and
  /// dynamics (identity for explicit backends) — the one definition of the
  /// backend rule, which resolve() (scenario/resolve.hpp) applies.
  /// validate()s first.
  [[nodiscard]] std::string resolved_backend() const;
};

/// A parsed `stop` field (shared by validate() and Scenario::compile()).
struct StopCondition {
  enum class Kind { Consensus, MPlurality, AnyReaches } kind = Kind::Consensus;
  count_t value = 0;
};

/// Parses a stop spec ("consensus", "m-plurality:<M>", "any-reaches:<T>");
/// throws CheckError on unknown kinds or malformed thresholds.
StopCondition parse_stop_condition(const std::string& stop);

}  // namespace plurality::scenario
