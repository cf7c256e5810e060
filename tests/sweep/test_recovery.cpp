// Recovery semantics: damaged checkpoints are quarantined (not trusted,
// not fatal), version skew is refused actionably, slow cells time out into
// the taxonomy, shutdown leaves a resumable out_dir, and after ANY of it a
// resumed run's aggregate is bitwise the uninterrupted run's.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "io/checkpoint.hpp"
#include "scenario/resolve.hpp"
#include "support/cancellation.hpp"
#include "support/check.hpp"
#include "sweep/orchestrator.hpp"
#include "sweep/preflight.hpp"
#include "sweep/watchdog.hpp"

namespace plurality::sweep {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("plurality_recovery_" + name);
  fs::remove_all(dir);
  return dir;
}

SweepSpec battery_sweep() {
  return SweepSpec::parse(
      "dynamics=3-majority workload=bias:2c n=2000 trials=3 max_rounds=5000 "
      "k=2,4,8 backend=count,graph");
}

std::string file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_bytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST(Recovery, DamagedCheckpointBatteryQuarantinesAndRecomputesBitwise) {
  // The S3 battery: truncated, bit-flipped, duplicate-key, wrong-CRC cell
  // files. Each must be quarantined and recomputed; two cells stay
  // undamaged to prove the mixed resume path; the post-resume aggregate is
  // BYTE-identical to the uninterrupted run's.
  const fs::path dir = fresh_dir("battery");
  const SweepSpec sweep = battery_sweep();
  SweepOptions options;
  options.out_dir = dir.string();
  options.zero_wall_times = true;
  const SweepOutcome clean = run_sweep(sweep, options);
  ASSERT_EQ(clean.failed, 0u);
  ASSERT_EQ(clean.cells.size(), 6u);
  const std::string golden = file_bytes(dir / "aggregate.csv");

  const fs::path cells = dir / "cells";
  // 1. Truncation: half the file gone.
  const std::string c0 = file_bytes(cells / "cell_00000.json");
  write_bytes(cells / "cell_00000.json", c0.substr(0, c0.size() / 2));
  // 2. Bit flip inside the payload body.
  std::string c1 = file_bytes(cells / "cell_00001.json");
  c1[c1.size() / 2] = static_cast<char>(c1[c1.size() / 2] ^ 0x08);
  write_bytes(cells / "cell_00001.json", c1);
  // 3. Duplicate keys (the strict parser refuses them — corrupt).
  write_bytes(cells / "cell_00002.json",
              "{\"checkpoint_schema\": 2, \"crc32\": \"00000000\", "
              "\"payload\": {\"a\": 1, \"a\": 2}}");
  // 4. Valid envelope, wrong CRC stamp.
  std::string c3 = file_bytes(cells / "cell_00003.json");
  const std::size_t stamp = c3.find("\"crc32\"");
  ASSERT_NE(stamp, std::string::npos);
  const std::size_t quote = c3.find('"', c3.find(':', stamp) + 1);
  c3[quote + 1] = c3[quote + 1] == 'f' ? '0' : 'f';
  write_bytes(cells / "cell_00003.json", c3);

  options.resume = true;
  const SweepOutcome resumed = run_sweep(sweep, options);
  EXPECT_EQ(resumed.failed, 0u);
  EXPECT_EQ(resumed.ran, 4u);
  EXPECT_EQ(resumed.resumed, 2u);
  for (const char* name :
       {"cell_00000.json", "cell_00001.json", "cell_00002.json", "cell_00003.json"}) {
    EXPECT_TRUE(fs::exists(cells / "quarantine" / name)) << name;
  }
  EXPECT_EQ(file_bytes(dir / "aggregate.csv"), golden);
}

TEST(Recovery, PreEnvelopeCellFileIsRefusedActionably) {
  // A v1-era cell file (bare payload, no envelope) is VERSION SKEW: the
  // resume must stop with an error naming the file — silently recomputing
  // would hide that the user pointed a new binary at an old out_dir.
  const fs::path dir = fresh_dir("v1cell");
  const SweepSpec sweep = battery_sweep();
  SweepOptions options;
  options.out_dir = dir.string();
  (void)run_sweep(sweep, options);

  const fs::path victim = dir / "cells" / "cell_00004.json";
  const io::JsonValue payload = io::read_checkpoint_file(victim.string());
  write_bytes(victim, payload.to_string());  // payload sans envelope = v1 shape

  options.resume = true;
  try {
    (void)run_sweep(sweep, options);
    FAIL() << "expected CheckpointSchemaError";
  } catch (const io::CheckpointSchemaError& e) {
    EXPECT_NE(std::string(e.what()).find("cell_00004.json"), std::string::npos)
        << e.what();
  }
}

TEST(Recovery, PreEnvelopeManifestIsRefusedActionably) {
  const fs::path dir = fresh_dir("v1manifest");
  const SweepSpec sweep = battery_sweep();
  SweepOptions options;
  options.out_dir = dir.string();
  (void)run_sweep(sweep, options);

  const fs::path manifest = dir / "manifest.json";
  const io::JsonValue payload = io::read_checkpoint_file(manifest.string());
  write_bytes(manifest, payload.to_string());

  options.resume = true;
  EXPECT_THROW((void)run_sweep(sweep, options), io::CheckpointSchemaError);
}

TEST(Recovery, GenuinelySlowCellTimesOutIntoTheTaxonomy) {
  // Not an injected hang: a REAL computation (adversary forbids consensus,
  // astronomically high round cap) that the watchdog must reclaim through
  // the drivers' cooperative cancellation check.
  SweepSpec sweep = SweepSpec::parse(
      "dynamics=3-majority workload=bias:2c n=2000 k=3 trials=2 "
      "adversary=boost-runner-up:50 max_rounds=2000000000 backend=count");
  const fs::path dir = fresh_dir("slow");
  SweepOptions options;
  options.out_dir = dir.string();
  options.cell_timeout_seconds = 0.2;
  options.max_retries = 1;
  options.retry_backoff_seconds = 0.001;

  const SweepOutcome outcome = run_sweep(sweep, options);
  ASSERT_EQ(outcome.cells.size(), 1u);
  EXPECT_EQ(outcome.cells[0].status, CellStatus::FailedTimeout);
  EXPECT_EQ(outcome.cells[0].attempts, 2u);
  EXPECT_EQ(outcome.failed, 1u);
  const std::string failures = file_bytes(dir / "failures.csv");
  EXPECT_NE(failures.find("failed_timeout"), std::string::npos);
}

TEST(Recovery, CrashLedgerExhaustionFailsWithoutRunning) {
  // Three processes died mid-cell (per the attempts ledger) with a budget
  // of 1+2: the resume must NOT run the cell a fourth time — a cell that
  // kills processes is quarantine-by-taxonomy, not an infinite crash loop.
  const fs::path dir = fresh_dir("ledger");
  const SweepSpec sweep = battery_sweep();
  SweepOptions options;
  options.out_dir = dir.string();
  const SweepOutcome clean = run_sweep(sweep, options);
  ASSERT_EQ(clean.failed, 0u);

  fs::remove(dir / "cells" / "cell_00001.json");
  write_bytes(dir / "cells" / "cell_00001.attempts.json", "{\"attempts\": 3}");

  options.resume = true;
  const SweepOutcome resumed = run_sweep(sweep, options);
  EXPECT_EQ(resumed.cells[1].status, CellStatus::FailedCrash);
  EXPECT_EQ(resumed.cells[1].attempts, 3u);
  EXPECT_NE(resumed.cells[1].error.find("ledger"), std::string::npos);
  EXPECT_EQ(resumed.failed, 1u);
  // The ledger was cleared: the NEXT resume gets a fresh budget and heals.
  const SweepOutcome healed = run_sweep(sweep, options);
  EXPECT_EQ(healed.failed, 0u);
  EXPECT_EQ(healed.cells[1].status, CellStatus::Done);
}

TEST(Recovery, ShutdownLeavesAResumableOutDir) {
  reset_shutdown_flag();
  const fs::path dir = fresh_dir("shutdown");
  const SweepSpec sweep = battery_sweep();
  SweepOptions options;
  options.out_dir = dir.string();
  options.zero_wall_times = true;
  options.cells_in_parallel = false;  // deterministic completion order
  options.on_cell = [](const CellOutcome&, std::size_t done, std::size_t) {
    if (done == 2) request_shutdown();  // as if Ctrl-C landed mid-sweep
  };

  const SweepOutcome interrupted = run_sweep(sweep, options);
  EXPECT_TRUE(interrupted.interrupted);
  EXPECT_EQ(interrupted.failed, 0u);  // shutdown is NOT a failure
  EXPECT_EQ(interrupted.ran, 2u);
  EXPECT_TRUE(interrupted.aggregate_path.empty());
  // The manifest records where everything stood.
  const io::JsonValue manifest =
      io::read_checkpoint_file((dir / "manifest.json").string());
  EXPECT_EQ(manifest.at("cells").item(0).at("status").as_string(), "done");
  EXPECT_EQ(manifest.at("cells").item(5).at("status").as_string(), "pending");

  reset_shutdown_flag();
  options.on_cell = nullptr;
  options.resume = true;
  const SweepOutcome finished = run_sweep(sweep, options);
  EXPECT_EQ(finished.failed, 0u);
  EXPECT_EQ(finished.resumed, 2u);
  EXPECT_EQ(finished.ran, 4u);

  // Bitwise acceptance: identical to a never-interrupted run of the grid.
  const fs::path clean_dir = fresh_dir("shutdown_clean");
  SweepOptions clean_options;
  clean_options.out_dir = clean_dir.string();
  clean_options.zero_wall_times = true;
  (void)run_sweep(sweep, clean_options);
  EXPECT_EQ(file_bytes(dir / "aggregate.csv"), file_bytes(clean_dir / "aggregate.csv"));
}

TEST(Watchdog, FiresDeadlinesAndPropagatesShutdown) {
  reset_shutdown_flag();
  Watchdog watchdog(std::chrono::milliseconds(5));

  CancellationToken deadline_token;
  const auto h1 = watchdog.watch(&deadline_token,
                                 Watchdog::Clock::now() + std::chrono::milliseconds(30));
  CancellationToken idle_token;
  const auto h2 = watchdog.watch(&idle_token, Watchdog::Clock::time_point::max());

  // The deadline token fires with kDeadline; the no-deadline token stays.
  for (int i = 0; i < 200 && !deadline_token.stop_requested(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(deadline_token.stop_requested());
  EXPECT_EQ(deadline_token.reason(), CancellationToken::Reason::kDeadline);
  EXPECT_FALSE(idle_token.stop_requested());

  // Shutdown reaches EVERY registered token.
  request_shutdown();
  for (int i = 0; i < 200 && !idle_token.stop_requested(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(idle_token.stop_requested());
  EXPECT_EQ(idle_token.reason(), CancellationToken::Reason::kShutdown);
  // First-reason-wins: the already-fired deadline token keeps its verdict.
  EXPECT_EQ(deadline_token.reason(), CancellationToken::Reason::kDeadline);

  watchdog.unwatch(h1);
  watchdog.unwatch(h2);
  reset_shutdown_flag();
}

TEST(Preflight, EstimatesRankBackendsAndTopologiesSanely) {
  scenario::ScenarioSpec count_spec =
      scenario::ScenarioSpec::parse("dynamics=3-majority n=1000000 k=4 backend=count");
  scenario::ScenarioSpec ring_spec = scenario::ScenarioSpec::parse(
      "dynamics=3-majority n=1000000 k=4 backend=graph topology=ring");
  scenario::ScenarioSpec dense_spec = scenario::ScenarioSpec::parse(
      "dynamics=3-majority n=1000000 k=4 backend=graph topology=er:0.01");

  const auto bill = [](const scenario::ScenarioSpec& spec) {
    return scenario::estimate_cell_memory_bytes(
        scenario::resolve(spec, execution_thread_budget()));
  };
  const auto count_bytes = bill(count_spec);
  const auto ring_bytes = bill(ring_spec);
  const auto dense_bytes = bill(dense_spec);
  // count is O(k); ring is O(n); er:0.01 at n=1e6 is ~5e9 edges.
  EXPECT_LT(count_bytes, 16u << 20);
  EXPECT_GT(ring_bytes, count_bytes);
  EXPECT_GT(dense_bytes, 100 * ring_bytes);
  EXPECT_GT(dense_bytes, 10ull << 30);

  EXPECT_GT(scenario::default_memory_budget_bytes(), 1ull << 30);
  EXPECT_EQ(format_bytes(1ull << 30), "1.0 GiB");
}

TEST(Preflight, OverBudgetCellsAreRefusedAsFailedSpec) {
  // A budget smaller than any real cell: every cell must be REFUSED before
  // allocating, with an actionable preflight message — not OOM-killed.
  const fs::path dir = fresh_dir("budget");
  SweepSpec sweep = SweepSpec::parse(
      "dynamics=3-majority workload=bias:2c n=2000 trials=2 max_rounds=100 "
      "backend=graph topology=regular:8 k=2,4");
  SweepOptions options;
  options.out_dir = dir.string();
  options.memory_budget_bytes = 1024;  // 1 KiB — nothing fits

  const SweepOutcome outcome = run_sweep(sweep, options);
  EXPECT_EQ(outcome.failed, 2u);
  for (const CellOutcome& cell : outcome.cells) {
    EXPECT_EQ(cell.status, CellStatus::FailedSpec);
    EXPECT_NE(cell.error.find("preflight"), std::string::npos) << cell.error;
    EXPECT_NE(cell.error.find("budget"), std::string::npos) << cell.error;
  }
  const std::string failures = file_bytes(dir / "failures.csv");
  EXPECT_NE(failures.find("failed_spec"), std::string::npos);
}

TEST(Preflight, RingOverItsArenaBudgetRunsImplicitAndEchoesIt) {
  // A budget the ring's implicit bill fits and its arena bill does not:
  // preflight resolves topology_backend=auto to implicit under that
  // budget, the cell runs, and its file echoes the backend that ran.
  // Under the default budget the same cell runs on the arena.
  const SweepSpec sweep = SweepSpec::parse(
      "dynamics=3-majority workload=bias:2c topology=ring n=20000 k=2 trials=2 "
      "max_rounds=50");
  const scenario::ScenarioSpec cell_spec = sweep.expand().at(0);
  const auto bill_as = [&](const char* topology_backend) {
    scenario::ScenarioSpec forced = cell_spec;
    forced.topology_backend = topology_backend;
    return scenario::estimate_cell_memory_bytes(
        scenario::resolve(forced, execution_thread_budget()));
  };
  ASSERT_LT(bill_as("implicit"), bill_as("arena"));

  const auto run_with_budget = [&](const char* name, std::uint64_t budget) {
    SweepOptions options;
    options.out_dir = fresh_dir(name).string();
    options.memory_budget_bytes = budget;
    const SweepOutcome outcome = run_sweep(sweep, options);
    EXPECT_EQ(outcome.failed, 0u);
    EXPECT_EQ(outcome.cells.at(0).status, CellStatus::Done) << outcome.cells.at(0).error;
    EXPECT_EQ(outcome.cells.at(0).requested.topology_backend, "auto");
    const io::JsonValue doc = io::read_checkpoint_file(
        (fs::path(options.out_dir) / "cells" / "cell_00000.json").string());
    EXPECT_EQ(doc.at("cell").at("requested").as_string(), cell_spec.to_spec_string());
    return doc.at("spec").at("topology_backend").as_string();
  };
  EXPECT_EQ(run_with_budget("ring_implicit", bill_as("implicit")), "implicit");
  EXPECT_EQ(run_with_budget("ring_arena", 0), "arena");
}

}  // namespace
}  // namespace plurality::sweep
