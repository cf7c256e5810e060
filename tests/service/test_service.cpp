// End-to-end contracts for the sweep service: master + workers produce
// BITWISE the orchestrator's artifacts, leases survive worker crashes and
// silent stalls, attempts continue across holders via the shared ledger,
// duplicate completions never double-count, and SIGTERM drains to a
// resumable out_dir (exit 130).
//
// The master runs in-process on a thread; "crashing" workers are raw TCP
// clients speaking the wire protocol (a dropped connection IS what a
// SIGKILLed worker looks like to the master). Real multi-process coverage
// — actual plurality_sweepd / plurality_sweep_worker binaries under
// SIGKILL — lives in the CI service smoke/torture jobs.
#include "service/master.hpp"
#include "service/protocol.hpp"
#include "service/worker.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "io/checkpoint.hpp"
#include "net/socket.hpp"
#include "scenario/resolve.hpp"
#include "sweep/cell_runner.hpp"
#include "sweep/orchestrator.hpp"
#include "sweep/preflight.hpp"
#include "sweep/watchdog.hpp"

namespace plurality::service {
namespace {

namespace fs = std::filesystem;
using sweep::CellOutcome;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / ("plurality_service_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::size_t count_lines(const fs::path& path) {
  std::ifstream in(path);
  std::string line;
  std::size_t n = 0;
  while (std::getline(in, line)) ++n;
  return n;
}

constexpr const char* kGrid =
    "dynamics=3-majority workload=bias:2c n=500 trials=2 max_rounds=5000 k=2,4 seed=21";

MasterOptions fast_master(const fs::path& out_dir, const std::string& grid = kGrid) {
  MasterOptions options;
  options.spec = sweep::SweepSpec::parse(grid);
  options.out_dir = out_dir.string();
  options.port_file = (out_dir / "port").string();
  options.heartbeat_seconds = 0.05;  // lease expires after 0.15s of silence
  options.zero_wall_times = true;
  options.verbose = false;
  return options;
}

/// Waits for the master's atomically written port file.
std::uint16_t wait_for_port(const fs::path& port_file) {
  for (int i = 0; i < 1000; ++i) {
    std::ifstream in(port_file);
    unsigned port = 0;
    if (in >> port && port > 0) return static_cast<std::uint16_t>(port);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ADD_FAILURE() << "master never wrote " << port_file;
  return 0;
}

std::thread worker_thread(const fs::path& out_dir, const std::string& name, int& exit_code) {
  return std::thread([&out_dir, name, &exit_code] {
    WorkerOptions options;
    options.port_file = (out_dir / "port").string();
    options.name = name;
    options.verbose = false;
    try {
      exit_code = run_worker(options);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "worker " << name << " threw: " << e.what();
    }
  });
}

/// A scripted protocol client — the master cannot tell it from a real
/// worker, which is the point: it can stall, vanish, or double-report on
/// cue.
struct FakeWorker {
  net::TcpConnection conn;

  FakeWorker(std::uint16_t port, const std::string& name) {
    conn = net::connect_tcp("127.0.0.1", port, 5.0);
    io::JsonValue hello = make_message("hello");
    hello.set("worker", name);
    EXPECT_EQ(message_type(exchange(hello)), "welcome");
  }

  io::JsonValue exchange(const io::JsonValue& msg) {
    conn.send_all(encode(msg), 5.0);
    std::string line;
    if (!conn.recv_line(line, 5.0)) throw net::NetError("master closed");
    return parse_message(line);
  }

  /// Requests until the master hands out a lease (riding out backoff
  /// "wait" replies). Fails the test if it only ever sees waits.
  io::JsonValue acquire_lease() {
    for (int i = 0; i < 400; ++i) {
      io::JsonValue reply = exchange(make_message("request"));
      const std::string type = message_type(reply);
      if (type == "lease") return reply;
      EXPECT_EQ(type, "wait") << "unexpected reply while waiting for a lease";
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    throw net::NetError("no lease within the deadline");
  }
};

/// Computes a leased cell exactly as a worker would (shared cell runner,
/// first-write-wins, master-assigned attempt) and reports it.
void compute_and_complete(FakeWorker& fake, const io::JsonValue& lease,
                          const MasterOptions& master) {
  const std::size_t index = static_cast<std::size_t>(lease.at("index").as_uint());
  CellOutcome cell;
  cell.index = index;
  cell.id = lease.at("cell").as_string();
  cell.requested = master.spec.expand().at(index);
  (void)sweep::preflight_cell(cell, scenario::default_memory_budget_bytes());

  sweep::FaultInjector injector(sweep::FaultPlan{}, master.out_dir);
  sweep::Watchdog watchdog;
  sweep::CellRunContext ctx;
  ctx.cells_dir = fs::path(master.out_dir) / "cells";
  ctx.observe = master.spec.observe;
  ctx.zero_wall_times = master.zero_wall_times;
  ctx.first_write_wins = true;
  ctx.single_attempt = static_cast<std::uint32_t>(lease.at("attempt").as_uint());
  ctx.injector = &injector;
  ctx.watchdog = &watchdog;
  sweep::run_cell_to_verdict(cell, ctx);

  io::JsonValue msg = make_message("complete");
  msg.set("cell", cell.id);
  msg.set("status", sweep::cell_status_name(cell.status));
  msg.set("attempts", std::uint64_t{cell.attempts});
  EXPECT_EQ(message_type(fake.exchange(msg)), "ack");
}

class ServiceTest : public testing::Test {
 protected:
  void SetUp() override { sweep::reset_shutdown_flag(); }
  void TearDown() override { sweep::reset_shutdown_flag(); }
};

TEST_F(ServiceTest, TwoWorkersMatchOrchestratorBitwise) {
  // The paper-grid artifacts must not depend on WHO computed the cells:
  // service output == single-process orchestrator output, byte for byte.
  const fs::path svc_dir = fresh_dir("bitwise_svc");
  const MasterOptions options = fast_master(svc_dir);

  int master_exit = -1;
  std::thread master([&] { master_exit = run_master(options); });
  int wa_exit = -1, wb_exit = -1;
  std::thread wa = worker_thread(svc_dir, "wa", wa_exit);
  std::thread wb = worker_thread(svc_dir, "wb", wb_exit);
  master.join();
  wa.join();
  wb.join();
  EXPECT_EQ(master_exit, kExitComplete);
  EXPECT_EQ(wa_exit, 0);
  EXPECT_EQ(wb_exit, 0);

  const fs::path solo_dir = fresh_dir("bitwise_solo");
  sweep::SweepOptions solo;
  solo.out_dir = solo_dir.string();
  solo.zero_wall_times = true;
  const sweep::SweepOutcome outcome =
      sweep::run_sweep(sweep::SweepSpec::parse(kGrid), solo);
  ASSERT_EQ(outcome.failed, 0u);

  EXPECT_EQ(read_file(svc_dir / "aggregate.csv"), read_file(solo_dir / "aggregate.csv"));
  for (const CellOutcome& cell : outcome.cells) {
    EXPECT_EQ(read_file(svc_dir / "cells" / (cell.id + ".json")),
              read_file(solo_dir / "cells" / (cell.id + ".json")))
        << cell.id;
  }
  // Completed cells leave no attempts ledgers behind.
  for (const auto& entry : fs::directory_iterator(svc_dir / "cells")) {
    EXPECT_EQ(entry.path().string().find(".attempts.json"), std::string::npos)
        << entry.path();
  }
}

TEST_F(ServiceTest, CrashedHolderIsReassignedAndAttemptsContinue) {
  // A worker that takes a lease and dies (connection drop) must not lose
  // the cell: the next holder gets attempt N+1, continuing the shared
  // on-disk ledger — exactly what a SIGKILLed process leaves behind.
  const fs::path dir = fresh_dir("crash");
  const MasterOptions options = fast_master(dir);

  int master_exit = -1;
  std::thread master([&] { master_exit = run_master(options); });
  const std::uint16_t port = wait_for_port(dir / "port");

  std::string crashed_cell;
  {
    FakeWorker doomed(port, "doomed");
    const io::JsonValue lease = doomed.acquire_lease();
    crashed_cell = lease.at("cell").as_string();
    EXPECT_EQ(lease.at("attempt").as_uint(), 1u);
    // Simulate the half-done attempt a crashing worker leaves: the ledger
    // is on disk (written at attempt start), the result is not.
    sweep::write_attempts_ledger(
        sweep::ledger_path(fs::path(options.out_dir) / "cells", crashed_cell), 1);
  }  // destructor closes the socket = the crash

  int w_exit = -1;
  std::thread w = worker_thread(dir, "rescuer", w_exit);
  master.join();
  w.join();
  EXPECT_EQ(master_exit, kExitComplete);

  // The rescued cell records the continued attempt count and its audit tag.
  const io::JsonValue payload = io::read_checkpoint_file(
      (fs::path(options.out_dir) / "cells" / (crashed_cell + ".json")).string());
  ASSERT_TRUE(payload.contains("retry"));
  EXPECT_EQ(payload.at("retry").at("attempts").as_uint(), 2u);
  // ...and its ledger is pruned once the story ends.
  EXPECT_FALSE(fs::exists(
      sweep::ledger_path(fs::path(options.out_dir) / "cells", crashed_cell)));
}

TEST_F(ServiceTest, SilentHolderExpiresAndLearnsOnHeartbeat) {
  // A holder that stops heartbeating WITHOUT dying (GC pause, network
  // partition, drop_heartbeat fault) is expired; its eventual heartbeat is
  // answered "expired" so it abandons the attempt.
  const fs::path dir = fresh_dir("expiry");
  const MasterOptions options = fast_master(dir);

  int master_exit = -1;
  std::thread master([&] { master_exit = run_master(options); });
  const std::uint16_t port = wait_for_port(dir / "port");

  FakeWorker stalled(port, "stalled");
  const io::JsonValue lease = stalled.acquire_lease();
  const std::string cell = lease.at("cell").as_string();

  // Outlive the lease (3 x 0.05s) without a single heartbeat.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  io::JsonValue hb = make_message("heartbeat");
  hb.set("cell", cell);
  EXPECT_EQ(message_type(stalled.exchange(hb)), "expired");
  stalled.conn.close();  // let the master exit without lingering for us

  int w_exit = -1;
  std::thread w = worker_thread(dir, "rescuer", w_exit);
  master.join();
  w.join();
  EXPECT_EQ(master_exit, kExitComplete);
  EXPECT_EQ(count_lines(dir / "aggregate.csv"), 3u);  // header + 2 cells
}

TEST_F(ServiceTest, DuplicateCompletionIsNeverDoubleCounted) {
  // Expiry race: holder A stalls, the cell is reassigned to B, then BOTH
  // finish. first-write-wins reconciles the files; the master's terminal
  // check reconciles the accounting. One cell, one row, exit 0.
  const fs::path dir = fresh_dir("duplicate");
  const MasterOptions options = fast_master(
      dir, "dynamics=3-majority workload=bias:2c n=500 trials=2 max_rounds=5000 k=2 seed=5");

  int master_exit = -1;
  std::thread master([&] { master_exit = run_master(options); });
  const std::uint16_t port = wait_for_port(dir / "port");

  FakeWorker first(port, "first");
  const io::JsonValue lease_a = first.acquire_lease();
  std::this_thread::sleep_for(std::chrono::milliseconds(400));  // expire it

  FakeWorker second(port, "second");
  const io::JsonValue lease_b = second.acquire_lease();
  EXPECT_EQ(lease_b.at("cell").as_string(), lease_a.at("cell").as_string());
  EXPECT_GE(lease_b.at("attempt").as_uint(), 2u);

  compute_and_complete(second, lease_b, options);  // the winner
  compute_and_complete(first, lease_a, options);   // the ghost: late duplicate

  first.conn.close();
  second.conn.close();
  master.join();
  EXPECT_EQ(master_exit, kExitComplete);
  EXPECT_EQ(count_lines(dir / "aggregate.csv"), 2u);  // header + exactly one row
}

TEST_F(ServiceTest, ShutdownDrainsToResumableOutDirThenResumeFinishes) {
  const fs::path dir = fresh_dir("drain");
  MasterOptions options = fast_master(dir);
  options.heartbeat_seconds = 10.0;  // leases survive the whole drain window
  options.drain_seconds = 0.3;

  int master_exit = -1;
  std::thread master([&] { master_exit = run_master(options); });
  const std::uint16_t port = wait_for_port(dir / "port");

  FakeWorker holder(port, "holder");
  (void)holder.acquire_lease();  // one cell in flight, one still pending

  sweep::request_shutdown();
  master.join();
  EXPECT_EQ(master_exit, kExitDrained);  // 130: resumable, by contract
  EXPECT_TRUE(fs::exists(dir / "manifest.json"));
  EXPECT_FALSE(fs::exists(dir / "aggregate.csv"));  // incomplete grid
  holder.conn.close();

  // A fresh master over the same out_dir picks up where the drain left off
  // (stale port file cleared so the finisher waits for the new port).
  sweep::reset_shutdown_flag();
  fs::remove(dir / "port");
  MasterOptions resume = fast_master(dir);
  resume.resume = true;
  int resume_exit = -1;
  std::thread master2([&] { resume_exit = run_master(resume); });
  int w_exit = -1;
  std::thread w = worker_thread(dir, "finisher", w_exit);
  master2.join();
  w.join();
  EXPECT_EQ(resume_exit, kExitComplete);
  EXPECT_EQ(count_lines(dir / "aggregate.csv"), 3u);
}

TEST_F(ServiceTest, ExhaustedLedgerIsTerminalWithoutALease) {
  // A cell whose shared ledger already shows max_retries+1 attempts (it
  // kept killing workers in past processes) must go terminal at lease
  // time — never handed to yet another victim.
  const fs::path dir = fresh_dir("exhausted");
  const MasterOptions options = fast_master(
      dir, "dynamics=3-majority workload=bias:2c n=500 trials=2 max_rounds=5000 k=2 seed=9");
  fs::create_directories(fs::path(options.out_dir) / "cells");
  sweep::write_attempts_ledger(
      sweep::ledger_path(fs::path(options.out_dir) / "cells", "cell_00000"), 3);

  int master_exit = -1;
  std::thread master([&] { master_exit = run_master(options); });
  const std::uint16_t port = wait_for_port(dir / "port");

  FakeWorker bystander(port, "bystander");
  // The only cell goes terminal at lease time; the master then drains us
  // instead of leasing (the first request may race the verdict as "wait").
  std::string type;
  for (int i = 0; i < 100; ++i) {
    type = message_type(bystander.exchange(make_message("request")));
    if (type != "wait") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(type, "drain");
  bystander.conn.close();

  master.join();
  EXPECT_EQ(master_exit, kExitFailedCells);
  const std::string failures = read_file(dir / "failures.csv");
  EXPECT_NE(failures.find("cell_00000"), std::string::npos);
  EXPECT_NE(failures.find("failed_crash"), std::string::npos);
}

TEST_F(ServiceTest, StatusReflectsMidRunHeartbeatProgress) {
  // The status verb must render a mid-run heartbeat's progress block: a
  // holder reports round 57 and the next status reply shows it, live,
  // before the cell completes. Also pins version tolerance — a heartbeat
  // WITHOUT progress still renews the lease.
  const fs::path dir = fresh_dir("status");
  const MasterOptions options = fast_master(
      dir, "dynamics=3-majority workload=bias:2c n=500 trials=2 max_rounds=5000 k=2 seed=3");

  int master_exit = -1;
  std::thread master([&] { master_exit = run_master(options); });
  const std::uint16_t port = wait_for_port(dir / "port");

  FakeWorker holder(port, "holder");
  const io::JsonValue lease = holder.acquire_lease();
  const std::string cell = lease.at("cell").as_string();

  // Old-style heartbeat (no progress): still an ack.
  io::JsonValue bare = make_message("heartbeat");
  bare.set("cell", cell);
  EXPECT_EQ(message_type(holder.exchange(bare)), "ack");

  io::JsonValue hb = make_message("heartbeat");
  hb.set("cell", cell);
  io::JsonValue& progress = hb.set("progress", io::JsonValue::object());
  progress.set("cell", cell);
  progress.set("trial", std::uint64_t{1});
  progress.set("round", std::uint64_t{57});
  progress.set("node_updates_per_sec", 123.5);
  progress.set("rss_bytes", std::uint64_t{1024});
  EXPECT_EQ(message_type(holder.exchange(hb)), "ack");

  // A monitor needs no hello, takes no lease, and sees the live block.
  net::TcpConnection monitor = net::connect_tcp("127.0.0.1", port, 5.0);
  monitor.send_all(encode(make_message("status")), 5.0);
  std::string line;
  ASSERT_TRUE(monitor.recv_line(line, 5.0));
  const io::JsonValue status = parse_message(line);
  EXPECT_EQ(message_type(status), "status");
  EXPECT_EQ(status.at("cells_total").as_uint(), 1u);
  EXPECT_EQ(status.at("leased").as_uint(), 1u);
  EXPECT_EQ(status.at("done").as_uint(), 0u);
  const io::JsonValue& rows = status.at("cells");
  ASSERT_EQ(rows.size(), 1u);
  const io::JsonValue& row = rows.item(0);
  EXPECT_EQ(row.at("cell").as_string(), cell);
  EXPECT_EQ(row.at("worker").as_string(), "holder");
  EXPECT_EQ(row.at("trial").as_uint(), 1u);
  EXPECT_EQ(row.at("round").as_uint(), 57u);
  EXPECT_EQ(row.at("node_updates_per_sec").as_double(), 123.5);
  EXPECT_EQ(row.at("rss_bytes").as_uint(), 1024u);
  EXPECT_GE(row.at("progress_age_seconds").as_double(), 0.0);
  // The workers list counts lease-takers only — never the monitor.
  ASSERT_EQ(status.at("workers").size(), 1u);
  EXPECT_EQ(status.at("workers").item(0).at("worker").as_string(), "holder");
  monitor.close();

  // Release the cell (crash the holder) and let a real worker finish.
  holder.conn.close();
  int w_exit = -1;
  std::thread w = worker_thread(dir, "finisher", w_exit);
  master.join();
  w.join();
  EXPECT_EQ(master_exit, kExitComplete);
}

/// One HTTP/1.0 scrape of the master's exposition endpoint; returns the
/// body (everything after the blank header/body separator).
std::string scrape_metrics(std::uint16_t port) {
  net::TcpConnection conn = net::connect_tcp("127.0.0.1", port, 5.0);
  conn.send_all("GET /metrics HTTP/1.0\r\n\r\n", 5.0);
  std::string body, line;
  bool in_body = false;
  while (conn.recv_line(line, 5.0)) {
    if (in_body) {
      body += line;
      body += '\n';
    } else if (line.empty() || line == "\r") {
      in_body = true;
    }
  }
  return body;
}

std::size_t count_occurrences(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST_F(ServiceTest, MetricsScrapeStaysValidWithManyCellsAndDropsEndedLeases) {
  // Two leased cells reporting progress means two series in each per-cell
  // family. The scraped document must stay a VALID exposition — exactly
  // one "# TYPE" header per family, samples grouped under it (a duplicate
  // header is what scripts/check_exposition.py and real Prometheus reject)
  // — and once the leases end, the per-cell series must vanish instead of
  // reporting finished cells as live work forever.
  const fs::path dir = fresh_dir("scrape");
  MasterOptions options = fast_master(dir);  // k=2,4: a two-cell grid
  options.heartbeat_seconds = 10.0;          // leases outlive the whole test
  options.serve_metrics = true;
  options.metrics_port_file = (dir / "mport").string();

  int master_exit = -1;
  std::thread master([&] { master_exit = run_master(options); });
  const std::uint16_t port = wait_for_port(dir / "port");
  const std::uint16_t mport = wait_for_port(dir / "mport");

  FakeWorker wa(port, "wa");
  FakeWorker wb(port, "wb");
  const io::JsonValue lease_a = wa.acquire_lease();
  const io::JsonValue lease_b = wb.acquire_lease();
  const auto heartbeat_progress = [](FakeWorker& w, const io::JsonValue& lease,
                                     std::uint64_t round) {
    io::JsonValue hb = make_message("heartbeat");
    hb.set("cell", lease.at("cell").as_string());
    io::JsonValue& progress = hb.set("progress", io::JsonValue::object());
    progress.set("trial", std::uint64_t{1});
    progress.set("round", round);
    progress.set("node_updates_per_sec", 10.0);
    EXPECT_EQ(message_type(w.exchange(hb)), "ack");
  };
  heartbeat_progress(wa, lease_a, 11);
  heartbeat_progress(wb, lease_b, 22);

  const std::string mid = scrape_metrics(mport);
  EXPECT_EQ(count_occurrences(mid, "# TYPE sweepd_cell_round gauge\n"), 1u) << mid;
  EXPECT_EQ(count_occurrences(mid, "# TYPE sweepd_cell_node_updates_per_sec gauge\n"), 1u)
      << mid;
  EXPECT_EQ(count_occurrences(mid, "sweepd_cell_round{cell=\"" +
                                       lease_a.at("cell").as_string() + "\"} 11\n"),
            1u)
      << mid;
  EXPECT_EQ(count_occurrences(mid, "sweepd_cell_round{cell=\"" +
                                       lease_b.at("cell").as_string() + "\"} 22\n"),
            1u)
      << mid;

  compute_and_complete(wa, lease_a, options);
  compute_and_complete(wb, lease_b, options);
  const std::string after = scrape_metrics(mport);
  EXPECT_EQ(count_occurrences(after, "sweepd_cell_round"), 0u) << after;
  EXPECT_EQ(count_occurrences(after, "sweepd_cells_done 2\n"), 1u) << after;

  wa.conn.close();
  wb.conn.close();
  master.join();
  EXPECT_EQ(master_exit, kExitComplete);
}

TEST_F(ServiceTest, IdleMonitorDoesNotShrinkWorkerShares) {
  // The per-worker memory share divides the host budget across peers that
  // RUN cells. An attached monitor (status-only connection, or even one
  // that spoke hello) must not halve everyone's preflight budget.
  const fs::path dir = fresh_dir("monitor_share");
  MasterOptions options = fast_master(
      dir, "dynamics=3-majority workload=bias:2c n=500 trials=2 max_rounds=5000 k=2 seed=7");
  options.memory_budget_bytes = 1ull << 30;

  int master_exit = -1;
  std::thread master([&] { master_exit = run_master(options); });
  const std::uint16_t port = wait_for_port(dir / "port");

  // Two idle connections: one hello-only, one status-only.
  FakeWorker lurker(port, "lurker");
  net::TcpConnection monitor = net::connect_tcp("127.0.0.1", port, 5.0);
  monitor.send_all(encode(make_message("status")), 5.0);
  std::string line;
  ASSERT_TRUE(monitor.recv_line(line, 5.0));

  FakeWorker holder(port, "holder");
  const io::JsonValue lease = holder.acquire_lease();
  EXPECT_EQ(lease.at("memory_budget_bytes").as_uint(), 1ull << 30)
      << "idle monitors shrank the compute share";

  monitor.close();
  lurker.conn.close();
  compute_and_complete(holder, lease, options);
  holder.conn.close();
  master.join();
  EXPECT_EQ(master_exit, kExitComplete);
}

}  // namespace
}  // namespace plurality::service
