// Orchestrator contract: cells == standalone scenarios (bitwise), resume
// skips exactly the completed cells, mixed grids are refused, and the
// aggregate CSV covers every cell.
#include "sweep/orchestrator.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "io/checkpoint.hpp"
#include "io/json.hpp"
#include "scenario/scenario.hpp"
#include "support/check.hpp"

#if defined(PLURALITY_HAVE_OPENMP)
#include <omp.h>
#endif

namespace plurality::sweep {
namespace {

namespace fs = std::filesystem;

/// Fresh unique directory under the test temp root.
fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("plurality_sweep_" + name);
  fs::remove_all(dir);
  return dir;
}

SweepSpec small_sweep() {
  SweepSpec sweep = SweepSpec::parse(
      "dynamics=3-majority workload=bias:2c n=2000 trials=3 max_rounds=5000 "
      "k=2,4 backend=count,graph");
  return sweep;
}

std::size_t count_lines(const fs::path& path) {
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  return lines;
}

TEST(Orchestrator, CellsMatchStandaloneScenariosBitwise) {
  // The sweep layer adds scheduling and files, never different results: a
  // cell's summary equals run_scenario() on the expanded cell spec.
  const SweepSpec sweep = small_sweep();
  SweepOptions options;  // in-memory
  const SweepOutcome outcome = run_sweep(sweep, options);
  ASSERT_EQ(outcome.cells.size(), 4u);
  EXPECT_EQ(outcome.ran, 4u);
  for (const CellOutcome& cell : outcome.cells) {
    const scenario::ScenarioResult standalone = scenario::run_scenario(cell.requested);
    EXPECT_EQ(cell.summary.trials, standalone.summary.trials);
    EXPECT_EQ(cell.summary.consensus_count, standalone.summary.consensus_count);
    EXPECT_EQ(cell.summary.plurality_wins, standalone.summary.plurality_wins);
    EXPECT_EQ(cell.summary.rounds.count(), standalone.summary.rounds.count());
    if (standalone.summary.rounds.count() > 0) {
      EXPECT_EQ(cell.summary.rounds.mean(), standalone.summary.rounds.mean());
    }
    ASSERT_EQ(cell.summary.round_samples.size(), standalone.summary.round_samples.size());
    for (std::size_t i = 0; i < standalone.summary.round_samples.size(); ++i) {
      EXPECT_EQ(cell.summary.round_samples[i], standalone.summary.round_samples[i]);
    }
    EXPECT_EQ(cell.resolved.backend, standalone.resolved.backend);
  }
}

TEST(Orchestrator, SchedulingModeCannotChangeResults) {
  const SweepSpec sweep = small_sweep();
  SweepOptions parallel_options;
  parallel_options.cells_in_parallel = true;
  SweepOptions serial_options;
  serial_options.cells_in_parallel = false;
  const SweepOutcome a = run_sweep(sweep, parallel_options);
  const SweepOutcome b = run_sweep(sweep, serial_options);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].summary.rounds.mean(), b.cells[i].summary.rounds.mean());
    EXPECT_EQ(a.cells[i].summary.plurality_wins, b.cells[i].summary.plurality_wins);
  }
}

TEST(Orchestrator, WritesManifestCellFilesAndAggregate) {
  const fs::path dir = fresh_dir("files");
  SweepOptions options;
  options.out_dir = dir.string();
  const SweepOutcome outcome = run_sweep(small_sweep(), options);

  EXPECT_TRUE(fs::exists(dir / "manifest.json"));
  EXPECT_TRUE(fs::exists(dir / "aggregate.csv"));
  for (const CellOutcome& cell : outcome.cells) {
    EXPECT_TRUE(fs::exists(dir / "cells" / (cell.id + ".json"))) << cell.id;
  }
  // Header + one row per cell.
  EXPECT_EQ(count_lines(dir / "aggregate.csv"), 1u + outcome.cells.size());
  // No stray tmp files (atomic writes completed).
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    EXPECT_EQ(entry.path().extension() == ".tmp", false) << entry.path();
  }

  // The manifest is a CRC-stamped checkpoint envelope; the payload carries
  // the schema stamp and the cell table with statuses.
  const io::JsonValue raw = io::read_json_file((dir / "manifest.json").string());
  EXPECT_EQ(raw.at("checkpoint_schema").as_uint(), io::kCheckpointSchema);
  EXPECT_TRUE(raw.contains("crc32"));
  const io::JsonValue manifest = io::read_checkpoint_file((dir / "manifest.json").string());
  EXPECT_EQ(manifest.at("schema_version").as_uint(), io::kCheckpointSchema);
  EXPECT_EQ(manifest.at("cells").size(), outcome.cells.size());
  for (std::size_t i = 0; i < outcome.cells.size(); ++i) {
    EXPECT_EQ(manifest.at("cells").item(i).at("status").as_string(), "done");
  }
}

TEST(Orchestrator, ResumeSkipsCompletedCellsAndRecomputesMissing) {
  const fs::path dir = fresh_dir("resume");
  const SweepSpec sweep = small_sweep();
  SweepOptions options;
  options.out_dir = dir.string();
  const SweepOutcome first = run_sweep(sweep, options);
  ASSERT_EQ(first.ran, 4u);

  // Simulate an interrupted run: one completed cell's file is gone (a
  // killed run differs only in WHICH files exist — partial files cannot,
  // by the atomic-rename discipline).
  fs::remove(dir / "cells" / "cell_00002.json");

  options.resume = true;
  const SweepOutcome second = run_sweep(sweep, options);
  EXPECT_EQ(second.resumed, 3u);
  EXPECT_EQ(second.ran, 1u);
  // The recomputed cell must reproduce the first run's numbers exactly
  // (per-cell seeds; scheduling-independent).
  EXPECT_EQ(second.cells[2].summary.rounds.mean(), first.cells[2].summary.rounds.mean());

  // A third resume recomputes nothing, and resumed metrics survive the
  // JSON round trip bit-for-bit (shortest-round-trip number formatting).
  const SweepOutcome third = run_sweep(sweep, options);
  EXPECT_EQ(third.resumed, 4u);
  EXPECT_EQ(third.ran, 0u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(third.cells[i].resumed);
    EXPECT_EQ(third.cells[i].metrics.rounds_mean, first.cells[i].metrics.rounds_mean);
    EXPECT_EQ(third.cells[i].metrics.win_rate, first.cells[i].metrics.win_rate);
    EXPECT_EQ(third.cells[i].metrics.trials, first.cells[i].metrics.trials);
  }
}

TEST(Orchestrator, ResumeRefusesAChangedSweep) {
  const fs::path dir = fresh_dir("changed");
  SweepOptions options;
  options.out_dir = dir.string();
  (void)run_sweep(small_sweep(), options);

  SweepSpec changed = small_sweep();
  changed.base.trials = 5;  // different grid
  options.resume = true;
  EXPECT_THROW((void)run_sweep(changed, options), CheckError);
}

TEST(Orchestrator, PopulatedOutDirNeedsResumeOrForce) {
  const fs::path dir = fresh_dir("clobber");
  SweepOptions options;
  options.out_dir = dir.string();
  (void)run_sweep(small_sweep(), options);
  EXPECT_THROW((void)run_sweep(small_sweep(), options), CheckError);
  options.force = true;
  EXPECT_NO_THROW((void)run_sweep(small_sweep(), options));
}

TEST(Orchestrator, CorruptCellFileIsRecomputedNotTrusted) {
  const fs::path dir = fresh_dir("corrupt");
  const SweepSpec sweep = small_sweep();
  SweepOptions options;
  options.out_dir = dir.string();
  (void)run_sweep(sweep, options);
  {
    std::ofstream out(dir / "cells" / "cell_00001.json", std::ios::trunc);
    out << "{ not json";
  }
  options.resume = true;
  const SweepOutcome resumed = run_sweep(sweep, options);
  EXPECT_EQ(resumed.ran, 1u);
  EXPECT_EQ(resumed.resumed, 3u);
  // The recomputed file verifies again, and the corrupt bytes were
  // QUARANTINED (preserved as evidence), not silently deleted.
  EXPECT_NO_THROW(
      (void)io::read_checkpoint_file((dir / "cells" / "cell_00001.json").string()));
  EXPECT_TRUE(fs::exists(dir / "cells" / "quarantine" / "cell_00001.json"));
}

TEST(Orchestrator, ResumeRecomputesCellsOfTheRemovedAgentBackend) {
  // A no-exact-law clique cell under backend=auto once resolved to the
  // agent backend, with the same requested spec string it has today. Its
  // file must not be trusted: a fresh run draws the graph realization.
  const fs::path dir = fresh_dir("agent_cell");
  const SweepSpec sweep = SweepSpec::parse(
      "dynamics=20-plurality workload=bias:2c n=2000 trials=2 max_rounds=5000 k=16");
  SweepOptions options;
  options.out_dir = dir.string();
  const SweepOutcome first = run_sweep(sweep, options);
  ASSERT_EQ(first.cells.size(), 1u);
  ASSERT_EQ(first.cells[0].resolved.backend, "graph");

  const fs::path cell = dir / "cells" / "cell_00000.json";
  std::string text = io::read_checkpoint_file(cell.string()).to_string();
  const std::string graph = "\"backend\": \"graph\"";
  const std::size_t at = text.find(graph);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, graph.size(), "\"backend\": \"agent\"");
  io::write_checkpoint_file(cell.string(), io::parse_json(text));

  options.resume = true;
  const SweepOutcome resumed = run_sweep(sweep, options);
  EXPECT_EQ(resumed.resumed, 0u);
  EXPECT_EQ(resumed.ran, 1u);
  EXPECT_EQ(resumed.cells[0].resolved.backend, "graph");
  EXPECT_EQ(resumed.cells[0].metrics.rounds_mean, first.cells[0].metrics.rounds_mean);
}

TEST(Orchestrator, TrialsOverrideShrinksEveryCell) {
  SweepOptions options;
  options.trials_override = 2;
  const SweepOutcome outcome = run_sweep(small_sweep(), options);
  for (const CellOutcome& cell : outcome.cells) {
    EXPECT_EQ(cell.metrics.trials, 2u);
  }
}

TEST(Orchestrator, CellFilesEchoTheExecutionPlan) {
  // Every cell file says how its trials ran. Inside the cells-in-parallel
  // team the planner's budget is one thread; run one cell at a time and
  // the cell gets the whole budget. Zeroed wall times leave the plan out,
  // like the wall time itself, and the aggregate never carries it.
  for (const bool parallel_cells : {true, false}) {
    const fs::path dir = fresh_dir(parallel_cells ? "plan_par" : "plan_seq");
    SweepOptions options;
    options.out_dir = dir.string();
    options.cells_in_parallel = parallel_cells;
    const SweepOutcome outcome = run_sweep(small_sweep(), options);
    ASSERT_EQ(outcome.failed, 0u);
    for (const CellOutcome& cell : outcome.cells) {
      const io::JsonValue doc =
          io::read_checkpoint_file((dir / "cells" / (cell.id + ".json")).string());
      const io::JsonValue& plan = doc.at("plan");
      const std::string parallelism = plan.at("parallelism").as_string();
      EXPECT_TRUE(parallelism == "trials" || parallelism == "rounds") << parallelism;
      EXPECT_GE(plan.at("threads").as_uint(), 1u);
      // Graph cells store their k <= 4 node states as bytes; count cells
      // have no node states.
      EXPECT_EQ(plan.at("bytes_only").as_bool(),
                cell.requested.resolved_backend() == "graph")
          << cell.id;
      EXPECT_FALSE(plan.at("simd").as_string().empty());
      ASSERT_TRUE(cell.plan.has_value());
      EXPECT_EQ(parallelism, parallelism_name(cell.plan->parallelism));
      EXPECT_EQ(plan.at("lanes").as_uint(), static_cast<std::uint64_t>(cell.plan->lanes));
#if defined(PLURALITY_HAVE_OPENMP)
      if (parallel_cells && omp_get_max_threads() > 1) {
        // The budget that replaced the old forced-serial cell flag.
        EXPECT_EQ(plan.at("threads").as_uint(), 1u) << cell.id;
        EXPECT_EQ(parallelism, "trials") << cell.id;
        // A one-thread budget pairs a count cell's three trials.
        EXPECT_EQ(plan.at("lanes").as_uint(),
                  cell.requested.resolved_backend() == "count" ? 2u : 1u)
            << cell.id;
      }
#endif
    }
    std::ifstream in(dir / "aggregate.csv");
    std::string header;
    std::getline(in, header);
    EXPECT_EQ(header.find("parallelism"), std::string::npos) << header;
  }

  const fs::path zero_dir = fresh_dir("plan_zero");
  SweepOptions zero;
  zero.out_dir = zero_dir.string();
  zero.zero_wall_times = true;
  const SweepOutcome outcome = run_sweep(small_sweep(), zero);
  for (const CellOutcome& cell : outcome.cells) {
    const io::JsonValue doc =
        io::read_checkpoint_file((zero_dir / "cells" / (cell.id + ".json")).string());
    EXPECT_FALSE(doc.contains("plan")) << cell.id;
  }
}

TEST(Orchestrator, AggregateEchoesTheResolvedEngine) {
  // The count backend has one engine, so its batched cells echo "strict"
  // beside their strict twins, as `backend` echoes the resolved backend;
  // graph cells keep the engine they ran. A resume reads the engine back
  // from the cell files, so its aggregate is the same bytes.
  const SweepSpec sweep = SweepSpec::parse(
      "dynamics=3-majority workload=bias:2c n=2000 k=4 trials=3 max_rounds=5000 "
      "backend=count,graph engine=strict,batched");
  const fs::path dir = fresh_dir("engine_echo");
  SweepOptions options;
  options.out_dir = dir.string();
  options.zero_wall_times = true;
  const SweepOutcome outcome = run_sweep(sweep, options);
  ASSERT_EQ(outcome.cells.size(), 4u);
  const std::vector<std::string> columns = aggregate_columns(sweep);
  ASSERT_EQ(columns.at(5), "backend");
  ASSERT_EQ(columns.at(6), "engine");
  for (const CellOutcome& cell : outcome.cells) {
    const std::vector<std::string> row = aggregate_row(sweep, cell);
    EXPECT_EQ(row.at(6), row.at(5) == "count" ? "strict" : cell.requested.engine) << cell.id;
  }

  std::ifstream fresh(dir / "aggregate.csv");
  const std::string fresh_bytes{std::istreambuf_iterator<char>(fresh), {}};
  options.resume = true;
  const SweepOutcome resumed = run_sweep(sweep, options);
  EXPECT_EQ(resumed.resumed, 4u);
  std::ifstream again(dir / "aggregate.csv");
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(again), {}), fresh_bytes);
}

TEST(Orchestrator, ObserverProbesLandInCellFilesAndAggregate) {
  const fs::path dir = fresh_dir("probes");
  SweepSpec sweep = small_sweep();
  sweep.observe.m_plurality = true;
  sweep.observe.m = 200;
  sweep.observe.trajectory = 32;
  SweepOptions options;
  options.out_dir = dir.string();
  const SweepOutcome outcome = run_sweep(sweep, options);

  for (const CellOutcome& cell : outcome.cells) {
    EXPECT_GE(cell.metrics.ttm_hits, 0.0) << cell.id;
    EXPECT_GE(cell.metrics.final_fraction_mean, 0.0) << cell.id;
    const io::JsonValue doc =
        io::read_checkpoint_file((dir / "cells" / (cell.id + ".json")).string());
    EXPECT_TRUE(doc.at("observers").contains("m_plurality")) << cell.id;
    EXPECT_TRUE(fs::exists(dir / "cells" / (cell.id + "_trajectory.csv"))) << cell.id;
  }
  // The aggregate grows the probe columns.
  std::ifstream in(dir / "aggregate.csv");
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("ttm_p50"), std::string::npos);
  EXPECT_NE(header.find("final_mono_mean"), std::string::npos);

  // Observer-on cells are STILL bitwise-equal to standalone runs — the
  // acceptance property, here at the sweep level.
  SweepSpec plain = small_sweep();
  const SweepOutcome unobserved = run_sweep(plain, SweepOptions{});
  for (std::size_t i = 0; i < outcome.cells.size(); ++i) {
    EXPECT_EQ(outcome.cells[i].summary.rounds.mean(),
              unobserved.cells[i].summary.rounds.mean());
    EXPECT_EQ(outcome.cells[i].summary.plurality_wins,
              unobserved.cells[i].summary.plurality_wins);
  }
}

TEST(Orchestrator, CommittedSweepSpecsExpandAndValidate) {
  // The repo's committed grids must stay runnable: parse + full expansion
  // validation (no execution — CI runs consensus_vs_k end to end).
  for (const char* path : {"sweeps/consensus_vs_k.json", "sweeps/adversary_budget.json"}) {
    SCOPED_TRACE(path);
    fs::path file(path);
    // ctest runs from build/; the specs live in the source tree.
    if (!fs::exists(file)) file = fs::path("..") / path;
    if (!fs::exists(file)) GTEST_SKIP() << "spec not found from cwd";
    const SweepSpec sweep = SweepSpec::from_json_file(file.string());
    const auto cells = sweep.expand();
    EXPECT_GE(cells.size(), 8u);
    if (std::string(path).find("consensus_vs_k") != std::string::npos) {
      // The acceptance grid: >= 24 cells across >= 2 backends.
      EXPECT_GE(cells.size(), 24u);
      bool saw_count = false, saw_graph = false;
      for (const auto& cell : cells) {
        saw_count |= cell.backend == "count";
        saw_graph |= cell.backend == "graph";
      }
      EXPECT_TRUE(saw_count && saw_graph);
    }
  }
}

}  // namespace
}  // namespace plurality::sweep
