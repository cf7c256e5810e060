// PERF1 — stepping-engine throughput, with machine-readable output.
//
// Measures rounds/sec for both backends (count-based, and the graph engine
// stepping every agent on the implicit clique) over an (n, k, dynamics)
// grid, plus
// the sparse-workspace speedup over the frozen dense reference stepper on
// the workload the PR-1 refactor targets: stateful dynamics at large k with
// only a handful of occupied own-state classes.
//
// Metric naming (schema_version 3): a count-based round updates k CLASS
// counters, not n nodes — reporting node_updates_per_sec for it overstated
// the backend by orders of magnitude. Count rows report rounds_per_sec
// plus `equivalent_node_updates_per_sec` (the per-agent work one exact
// count round replaces: rounds/sec x n); only graph rows report literal
// `node_updates_per_sec`. (Version 3: the per-agent rows are backend
// "graph", the strict graph engine on AgentGraph::complete; version 2 had
// them as backend "agent", a clique stepper bitwise equal to it.) The
// count grid also carries the generator-engine A/B: xoshiro (sequential)
// vs rng::PhiloxStream (counter-based block-generated uniforms feeding the
// same multinomial kernels).
//
// Timing discipline and the JSON header come from bench/harness.hpp. The
// shared --threads flag pins the OpenMP team size for reproducible
// committed snapshots.
#include <string>
#include <vector>

#include "common/experiment.hpp"
#include "core/backend.hpp"
#include "core/majority.hpp"
#include "core/undecided.hpp"
#include "graph/agent_graph.hpp"
#include "harness.hpp"
#include "io/json.hpp"
#include "rng/philox.hpp"
#include "support/format.hpp"

namespace plurality::bench {
namespace {

/// Re-arm period of every cell (see harness.hpp: the workload shape is
/// pinned, occupied classes cannot die over 8 rounds from these starts).
inline constexpr int kRearmPeriod = 8;
inline constexpr int kWarmupRounds = 3;

/// Start shape for the grid: every color occupied, mildly biased (the
/// dense regime where the adoption law has full support).
Configuration dense_start(count_t n, state_t num_colors) {
  std::vector<count_t> counts(num_colors, 0);
  const count_t base = n / (num_colors + 1);
  count_t assigned = 0;
  for (state_t j = 0; j < num_colors; ++j) {
    counts[j] = base;
    assigned += base;
  }
  counts[0] += n - assigned;  // plurality color absorbs the remainder
  return Configuration(std::move(counts));
}

/// Start shape for the sparse-speedup measurement: k colors, only three
/// occupied, plus undecided mass — four active own-state classes total.
Configuration sparse_undecided_start(count_t n, state_t num_colors) {
  std::vector<count_t> counts(num_colors, 0);
  counts[0] = (n * 45) / 100;
  counts[num_colors / 3] = (n * 30) / 100;
  counts[num_colors - 2] = (n * 20) / 100;
  std::vector<count_t> extended = counts;
  extended.push_back(n - counts[0] - counts[num_colors / 3] - counts[num_colors - 2]);
  return Configuration(std::move(extended));
}

struct GridCell {
  std::string backend;
  std::string dynamics;
  count_t n = 0;
  state_t k = 0;
  double rounds_per_sec = 0.0;
  bool literal_node_updates = false;  // graph rows only
};

/// rounds/sec of one count-backend cell under generator `gen`.
template <class Gen>
double measure_count_cell(const Dynamics& dynamics, const Configuration& start,
                          double budget, Gen& gen, StepWorkspace& ws) {
  Configuration config = start;
  return measure_rounds_per_sec(
      budget, kRearmPeriod, kWarmupRounds, [&] { config = start; },
      [&] { step_count_based(dynamics, config, gen, ws); });
}

}  // namespace

int run(int argc, const char* const* argv) {
  Experiment exp("PERF1", "Stepping-engine throughput",
                 "performance baseline (no paper claim)", "bench_throughput");
  exp.cli().add_string("json", "BENCH_throughput.json",
                       "write machine-readable results to this JSON path");
  if (!exp.parse(argc, argv)) return 0;

  const double budget = exp.scaled(0.05, 0.25, 1.0);
  exp.record().add("time budget / cell", format_sig(budget, 2) + " s");
  exp.record().add("threads", std::to_string(exp.threads()));
  exp.record().set_expectation(
      "count-based rounds/sec is independent of n; the sparse workspace "
      "stepper beats the dense reference by >= 3x on stateful stepping at "
      "k >= 256 with few occupied classes; xoshiro and Philox count "
      "stepping are within noise of each other");
  exp.print_header();

  ThreeMajority majority;
  UndecidedState undecided;
  std::vector<GridCell> cells;

  // --- Count-based backend grid: Θ(k)-ish per round, any n; both
  //     generator engines. ---
  {
    const std::vector<count_t> ns =
        exp.quick() ? std::vector<count_t>{1'000'000}
                    : std::vector<count_t>{1'000'000, 1'000'000'000};
    const std::vector<state_t> ks = exp.quick() ? std::vector<state_t>{8, 256}
                                                : std::vector<state_t>{8, 64, 256, 1024};
    StepWorkspace ws;
    rng::Xoshiro256pp xgen(1);
    rng::PhiloxStream pgen(1);
    for_grid(ns, ks, [&](count_t n, state_t k) {
      const Configuration start_m = dense_start(n, k);
      const Configuration start_u = UndecidedState::extend_with_undecided(dense_start(n, k));
      cells.push_back({"count", majority.name(), n, k,
                       measure_count_cell(majority, start_m, budget, xgen, ws), false});
      cells.push_back({"count", undecided.name(), n, k,
                       measure_count_cell(undecided, start_u, budget, xgen, ws), false});
      cells.push_back({"count-philox", majority.name(), n, k,
                       measure_count_cell(majority, start_m, budget, pgen, ws), false});
      cells.push_back({"count-philox", undecided.name(), n, k,
                       measure_count_cell(undecided, start_u, budget, pgen, ws), false});
    });
  }

  // --- Per-agent grid: the graph engine on the implicit clique, Θ(n·h)
  //     per round, n bounded by the budget. ---
  {
    const std::vector<count_t> ns = exp.quick() ? std::vector<count_t>{100'000}
                                                : std::vector<count_t>{100'000, 1'000'000};
    const std::vector<state_t> ks = std::vector<state_t>{8, 64};
    for_grid(ns, ks, [&](count_t n, state_t k) {
      const graph::AgentGraph clique = graph::AgentGraph::complete(n);
      {
        graph::GraphSimulation sim(majority, clique, dense_start(n, k), 3,
                                   /*shuffle_layout=*/false);
        const double rps = measure_rounds_per_sec(
            budget, kRearmPeriod, kWarmupRounds, [] {}, [&] { sim.step(); });
        cells.push_back({"graph", majority.name(), n, k, rps, true});
      }
      {
        graph::GraphSimulation sim(undecided, clique,
                                   UndecidedState::extend_with_undecided(dense_start(n, k)),
                                   4, /*shuffle_layout=*/false);
        const double rps = measure_rounds_per_sec(
            budget, kRearmPeriod, kWarmupRounds, [] {}, [&] { sim.step(); });
        cells.push_back({"graph", undecided.name(), n, k, rps, true});
      }
    });
  }

  io::Table grid_table(
      {"backend", "dynamics", "n", "k", "rounds/sec", "node-upd/s (graph: literal, count: equiv)"});
  for (const GridCell& cell : cells) {
    grid_table.row()
        .cell(cell.backend)
        .cell(cell.dynamics)
        .cell(static_cast<std::uint64_t>(cell.n))
        .cell(static_cast<std::uint64_t>(cell.k))
        .cell(cell.rounds_per_sec)
        .cell(cell.rounds_per_sec * static_cast<double>(cell.n));
  }
  exp.emit(grid_table, "grid");

  // --- Sparse-class speedup: workspace stepper vs frozen dense reference
  //     on stateful stepping, k >= 256, four occupied classes. ---
  struct SpeedupRow {
    state_t k;
    double reference_rps;
    double workspace_rps;
    double speedup;
  };
  std::vector<SpeedupRow> speedups;
  {
    const count_t n = 1'000'000;
    const std::vector<state_t> ks = exp.quick() ? std::vector<state_t>{256, 512}
                                                : std::vector<state_t>{256, 512, 1024};
    StepWorkspace ws;
    for (state_t k : ks) {
      const Configuration start = sparse_undecided_start(n, k);
      rng::Xoshiro256pp gen_ref(5), gen_ws(5);
      Configuration config = start;
      const double ref = measure_rounds_per_sec(
          budget, kRearmPeriod, kWarmupRounds, [&] { config = start; },
          [&] { step_count_based_reference(undecided, config, gen_ref); });
      const double fast = measure_rounds_per_sec(
          budget, kRearmPeriod, kWarmupRounds, [&] { config = start; },
          [&] { step_count_based(undecided, config, gen_ws, ws); });
      speedups.push_back({k, ref, fast, fast / ref});
    }
  }

  io::Table speedup_table(
      {"k (colors)", "occupied classes", "reference rounds/sec", "workspace rounds/sec",
       "speedup"});
  for (const SpeedupRow& row : speedups) {
    speedup_table.row()
        .cell(static_cast<std::uint64_t>(row.k))
        .cell(std::uint64_t{4})
        .cell(row.reference_rps)
        .cell(row.workspace_rps)
        .cell(format_sig(row.speedup, 3) + "x");
  }
  exp.emit(speedup_table, "speedup");

  // --- JSON document (schema_version 3: see header comment). ---
  io::JsonValue doc = make_bench_doc("throughput", 3, exp);
  doc.set("time_budget_seconds", budget);
  doc.set("rearm_period_rounds", kRearmPeriod);

  io::JsonValue& grid = doc.set("grid", io::JsonValue::array());
  for (const GridCell& cell : cells) {
    io::JsonValue& row = grid.push(io::JsonValue::object());
    row.set("backend", cell.backend);
    row.set("dynamics", cell.dynamics);
    row.set("n", std::uint64_t{cell.n});
    row.set("k", std::uint64_t{cell.k});
    row.set("rounds_per_sec", cell.rounds_per_sec);
    if (cell.literal_node_updates) {
      row.set("node_updates_per_sec", cell.rounds_per_sec * static_cast<double>(cell.n));
    } else {
      // One exact count round replaces n per-agent node updates; the counter
      // the backend actually touches is k classes.
      row.set("equivalent_node_updates_per_sec",
              cell.rounds_per_sec * static_cast<double>(cell.n));
    }
  }

  io::JsonValue& sparse = doc.set("sparse_speedup", io::JsonValue::array());
  for (const SpeedupRow& row : speedups) {
    io::JsonValue& entry = sparse.push(io::JsonValue::object());
    entry.set("dynamics", "undecided-state");
    entry.set("n", std::uint64_t{1'000'000});
    entry.set("k", std::uint64_t{row.k});
    entry.set("occupied_classes", 4);
    entry.set("reference_rounds_per_sec", row.reference_rps);
    entry.set("workspace_rounds_per_sec", row.workspace_rps);
    entry.set("speedup", row.speedup);
  }

  write_bench_json(doc, exp.cli().get_string("json"));
  exp.finish();
  return 0;
}

}  // namespace plurality::bench

int main(int argc, char** argv) { return plurality::bench::run(argc, argv); }
