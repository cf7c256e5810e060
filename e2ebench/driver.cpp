// e2e_driver — the C++ half of the end-to-end benchmark (run.py is the
// other half). It links the library and times calls into its public
// functions from outside; it changes no library setting, so what it
// measures is what a user of the shipped defaults gets.
//
//   e2e_driver calibrate --bytes B
//       stream bandwidth over arrays totalling B bytes, dependent
//       random-gather latency and independent random-gather rate.
//   e2e_driver scenario --spec S --seed N --seconds T --band LO:HI
//                       --trace 0|1 [--spans FILE]
//       closed loop: parse, validate, compile, run with a RoundObserver,
//       check; one scenario in flight; new inputs (seed) per iteration.
//   e2e_driver probes --seed N --grid G --work DIR [--spans FILE]
//       the fixed per-layer probe suite of the traced run.
//
// Each subcommand prints one JSON object as its last stdout line. Specs
// use only dynamics, workload, topology, n, k, trials, seed, engine and
// max_rounds; everything else stays at its shipped default.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>

#ifdef PLURALITY_HAVE_OPENMP
#include <omp.h>
#endif

#include "core/backend.hpp"
#include "core/observer.hpp"
#include "graph/agent_graph.hpp"
#include "graph/topology_registry.hpp"
#include "io/checkpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_observer.hpp"
#include "rng/philox.hpp"
#include "rng/stream.hpp"
#include "scenario/scenario.hpp"
#include "scenario/spec.hpp"
#include "spans.hpp"
#include "sweep/orchestrator.hpp"
#include "sweep/sweep_spec.hpp"

namespace {

using namespace plurality;
using e2ebench::now_ns;
using e2ebench::Scope;
using e2ebench::SpanRecorder;

SpanRecorder g_spans;

// ------------------------------------------------------------- helpers ---

double seconds_since(std::int64_t t0) { return (now_ns() - t0) * 1e-9; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string num_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += num(v[i]);
  }
  return out + "]";
}

/// Minimal --key value parser; every key the subcommand reads must be given.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i + 1 < argc; i += 2) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) throw std::runtime_error("expected --key, got " + key);
      values_[key.substr(2)] = argv[i + 1];
    }
  }
  [[nodiscard]] std::string str(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) throw std::runtime_error("missing --" + key);
    return it->second;
  }
  [[nodiscard]] std::string str_or(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  [[nodiscard]] double number(const std::string& key) const { return std::stod(str(key)); }

 private:
  std::map<std::string, std::string> values_;
};

int host_threads() {
#ifdef PLURALITY_HAVE_OPENMP
  return omp_get_num_procs();
#else
  return 1;
#endif
}

/// Runs `fn` with the OpenMP team capped at `threads`, restoring the
/// host-wide default afterwards.
template <class Fn>
void with_threads(int threads, Fn&& fn) {
#ifdef PLURALITY_HAVE_OPENMP
  omp_set_num_threads(threads);
  fn();
  omp_set_num_threads(host_threads());
#else
  (void)threads;
  fn();
#endif
}

// ----------------------------------------------------------- calibrate ---

// Keeps the optimizer from discarding a computed value.
volatile std::uint64_t g_sink = 0;

int cmd_calibrate(const Args& args) {
  const std::size_t bytes = static_cast<std::size_t>(args.number("bytes"));
  const std::size_t words = std::max<std::size_t>(bytes / 16, 1 << 20);  // two arrays
  std::vector<std::uint64_t> a(words), b(words);
  for (std::size_t i = 0; i < words; ++i) a[i] = i;

  // Stream: b = 3a, counting the bytes read and written.
  std::vector<double> gbps;
  for (int pass = 0; pass < 5; ++pass) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < words; ++i) b[i] = 3 * a[i];
    gbps.push_back(2.0 * words * sizeof(std::uint64_t) / static_cast<double>(now_ns() - t0));
    g_sink = g_sink + b[pass];
  }

  // Dependent gather: a full-period LCG cycle over a power-of-two prefix
  // of b (each load's address is the previous load's value).
  std::size_t span = 1;
  while (span * 2 <= words) span *= 2;
  const std::uint64_t mask = span - 1;
  for (std::size_t i = 0; i < span; ++i) b[i] = (i * 6364136223846793005ULL + 1442695040888963407ULL) & mask;
  const std::size_t chase = 1 << 21;
  std::uint64_t p = 0;
  std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < chase; ++i) p = b[p];
  const double latency_ns = static_cast<double>(now_ns() - t0) / chase;
  g_sink = g_sink + p;

  // Independent gathers: hashed addresses, no dependence between loads.
  const std::size_t gathers = 1 << 23;
  std::uint64_t sum = 0;
  t0 = now_ns();
  for (std::size_t i = 0; i < gathers; ++i) sum += a[(i * 0x9E3779B97F4A7C15ULL >> 17) & mask];
  const double gather_rate = gathers / (static_cast<double>(now_ns() - t0) * 1e-9);
  g_sink = g_sink + sum;

  std::cout << "{\"array_bytes\":" << 2 * words * sizeof(std::uint64_t)
            << ",\"stream_gbps\":" << num(median(gbps))
            << ",\"gather_latency_ns\":" << num(latency_ns)
            << ",\"gather_rate_per_s\":" << num(gather_rate) << ",\"threads\":1}\n";
  return 0;
}

// ------------------------------------------------------------ scenario ---

/// Checks every trial against the model's outcome (consensus on the
/// initial plurality color) and, when timing, records one span per trial
/// and, inside the first trials, one per round.
class CheckObserver final : public RoundObserver {
 public:
  CheckObserver(std::uint64_t trials, std::uint64_t timed_trials, bool timing)
      : slots_(trials), timed_trials_(timed_trials), timing_(timing) {}

  void set_run_span(std::uint64_t id) { run_span_ = id; }

  void begin_trial(std::uint64_t trial, const Configuration& start,
                   state_t num_colors) override {
    Slot& s = slots_[trial];
    s.color = start.plurality(num_colors);
    if (!timing_) return;
    s.span = g_spans.next_id();
    s.begin_ns = s.last_ns = now_ns();
  }

  void observe_round(std::uint64_t trial, round_t, const Configuration&, state_t) override {
    if (!timing_ || trial >= timed_trials_) return;
    Slot& s = slots_[trial];
    const std::int64_t t = now_ns();
    s.round_ms.push_back((t - s.last_ns) * 1e-6);
    g_spans.record("round", "round", g_spans.next_id(), s.span, s.last_ns, t);
    s.last_ns = t;
  }

  void end_trial(std::uint64_t trial, StopReason reason, round_t rounds,
                 const Configuration& final, state_t) override {
    Slot& s = slots_[trial];
    s.rounds = rounds;
    s.ok = reason == StopReason::ColorConsensus && final.at(s.color) == final.n();
    if (timing_) g_spans.record("trial", "round", s.span, run_span_, s.begin_ns, now_ns());
  }

  [[nodiscard]] std::uint64_t failed() const {
    return static_cast<std::uint64_t>(
        std::count_if(slots_.begin(), slots_.end(), [](const Slot& s) { return !s.ok; }));
  }
  [[nodiscard]] double rounds_total() const {
    double total = 0;
    for (const Slot& s : slots_) total += static_cast<double>(s.rounds);
    return total;
  }
  void append_round_ms(std::vector<double>& out) const {
    for (const Slot& s : slots_) out.insert(out.end(), s.round_ms.begin(), s.round_ms.end());
  }

 private:
  struct Slot {
    state_t color = 0;
    bool ok = false;
    round_t rounds = 0;
    std::uint64_t span = 0;
    std::int64_t begin_ns = 0;
    std::int64_t last_ns = 0;
    std::vector<double> round_ms;
  };
  std::vector<Slot> slots_;  // one per trial: observer calls for distinct trials may overlap
  std::uint64_t timed_trials_;
  bool timing_;
  std::uint64_t run_span_ = 0;
};

int cmd_scenario(const Args& args) {
  const std::string spec_text = args.str("spec");
  const auto seed = static_cast<std::uint64_t>(args.number("seed"));
  const double seconds = args.number("seconds");
  const bool trace = args.str("trace") == "1";
  const std::string band = args.str("band");
  const double band_lo = std::stod(band.substr(0, band.find(':')));
  const double band_hi = std::stod(band.substr(band.find(':') + 1));
  // Round spans are kept for the first trials of an iteration only, so a
  // 2048-trial iteration does not produce a third of a million spans; every
  // trial still gets its own span.
  constexpr std::uint64_t kTimedTrials = 16;

  std::ostringstream iters;
  std::vector<double> round_ms;
  std::vector<double> setup_s;
  long first_rss_kib = 0;
  const std::int64_t loop_start = now_ns();
  if (trace) {
    // An untraced warm-up pays the process's first-touch costs (code pages,
    // thread team, allocator growth for full-size state) before either set
    // of the tracing overhead starts; one round of the workload does that.
    const scenario::Scenario warm = scenario::Scenario::compile(
        scenario::ScenarioSpec::parse(spec_text + " max_rounds=1 seed=" + std::to_string(seed)));
    (void)warm.run();
  }
  const int min_iterations = trace ? 2 : 1;  // traced runs need one of each kind
  std::vector<double> walls;
  // Another iteration starts only if, at the median pace so far, it ends
  // within the window; so a run lasts about `seconds`, never an extra
  // iteration longer.
  for (int i = 0;
       i < min_iterations || seconds_since(loop_start) + median(walls) <= seconds; ++i) {
    // Traced runs alternate traced and untraced iterations; the difference
    // of their wall times is the tracing overhead.
    const bool traced = trace && i % 2 == 0;
    g_spans.enable(traced);
    const std::uint64_t iteration_seed = seed * 1000 + static_cast<std::uint64_t>(i);
    const std::string text = spec_text + " seed=" + std::to_string(iteration_seed);

    const std::int64_t t0 = now_ns();
    std::optional<scenario::ScenarioSpec> spec;
    std::optional<scenario::Scenario> sc;
    {
      Scope s(g_spans, "ScenarioSpec::parse", "scenario");
      spec.emplace(scenario::ScenarioSpec::parse(text));
    }
    {
      Scope s(g_spans, "ScenarioSpec::validate", "scenario");
      spec->validate();
    }
    {
      Scope s(g_spans, "Scenario::compile", "scenario");
      sc.emplace(scenario::Scenario::compile(*spec));
    }
    const std::int64_t t1 = now_ns();
    setup_s.push_back((t1 - t0) * 1e-9);
    CheckObserver observer(sc->options().trials, kTimedTrials, traced);
    TrialSummary summary;
    {
      Scope s(g_spans, "Scenario::run", "scenario");
      observer.set_run_span(s.id());
      summary = sc->run(&observer);
    }
    const std::int64_t t2 = now_ns();
    std::uint64_t failed = 0;
    double p50 = -1;
    {
      Scope s(g_spans, "check", "check");
      failed = observer.failed();
      if (summary.rounds.count() > 0) p50 = summary.rounds_p(0.5);
      // An iteration whose median round count leaves the band fails whole.
      if (!(p50 >= band_lo && p50 <= band_hi)) failed = summary.trials;
    }
    const std::int64_t t3 = now_ns();
    if (traced) observer.append_round_ms(round_ms);
    if (i == 0) {
      // Peak RSS of a fresh process through one scenario: later iterations
      // can raise it through heap reuse, and their count depends on speed.
      rusage usage{};
      getrusage(RUSAGE_SELF, &usage);
      first_rss_kib = usage.ru_maxrss;
    }

    walls.push_back((t3 - t0) * 1e-9);
    iters << (i ? "," : "") << "{\"setup_s\":" << num((t1 - t0) * 1e-9)
          << ",\"run_s\":" << num((t2 - t1) * 1e-9) << ",\"wall_s\":" << num((t3 - t0) * 1e-9)
          << ",\"trials\":" << summary.trials << ",\"failed\":" << failed
          << ",\"rounds_total\":" << num(observer.rounds_total())
          << ",\"rounds_p50\":" << num(p50) << ",\"n\":" << sc->spec().n
          << ",\"traced\":" << (traced ? "true" : "false") << "}";
  }
  g_spans.enable(false);
  const std::string spans_path = args.str_or("spans", "");
  if (!spans_path.empty()) g_spans.write(spans_path);
  std::cout << "{\"iterations\":[" << iters.str() << "],\"setup_s\":" << num_list(setup_s)
            << ",\"round_ms\":" << num_list(round_ms) << ",\"peak_rss_kib\":" << first_rss_kib
            << "}\n";
  return 0;
}

// -------------------------------------------------------------- probes ---

/// Median over `reps` calls of `fn`, in seconds; each call is one span.
template <class Fn>
double timed(int reps, const char* name, const char* layer, Fn&& fn) {
  std::vector<double> s;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    {
      Scope scope(g_spans, name, layer);
      fn();
    }
    s.push_back(seconds_since(t0));
  }
  return median(s);
}

int cmd_probes(const Args& args) {
  namespace fs = std::filesystem;
  const auto seed = static_cast<std::uint64_t>(args.number("seed"));
  const std::string grid = args.str("grid");
  const fs::path work = args.str("work");
  fs::create_directories(work);
  g_spans.enable(true);
  const int nproc = host_threads();
  std::ostringstream m;
  auto metric = [&m](const std::string& name, double value) {
    m << (m.tellp() > 0 ? "," : "") << "\"" << name << "\":" << num(value);
  };

  // --- graph: the default sparse spec (regular8-default's, 1 trial). ---
  // max_rounds keeps each run of the obs pairs short, so many pairs fit;
  // the telemetry cost being guarded is paid per round.
  const std::string reg_text = "dynamics=3-majority topology=regular:8 workload=bias:2c "
                               "n=1e6 k=8 trials=1 max_rounds=10 seed=" + std::to_string(seed);
  std::optional<scenario::Scenario> reg;
  {
    Scope s(g_spans, "Scenario::compile", "scenario");
    reg.emplace(scenario::Scenario::compile(scenario::ScenarioSpec::parse(reg_text)));
  }
  const count_t reg_n = reg->spec().n;
  {
    double arena_bytes = 0;
    const double build_s = timed(2, "graph::make_topology", "graph", [&] {
      rng::Xoshiro256pp gen = rng::StreamFactory(seed).stream(1);
      const graph::AgentGraph g = graph::make_topology("regular:8", reg_n, gen);
      arena_bytes = static_cast<double>(g.arena_bytes());
    });
    metric("graph.topology_build_s", build_s);
    metric("graph.arena_mb", arena_bytes / (1 << 20));
  }
  {
    const rng::StreamFactory streams(seed);
    graph::GraphStepWorkspace ws;
    Configuration config = reg->start();
    ws.prepare(config.n(), config.k());
    const double load_s = timed(5, "graph::load_nodes", "graph", [&] {
      graph::load_nodes(reg->start(), true, streams, ws, &reg->graph());
    });
    metric("graph.load_nodes_ns_per_node", load_s * 1e9 / reg_n);
    double strict_s = 0;
    with_threads(1, [&] {
      round_t round = 0;
      strict_s = timed(8, "graph::step_graph strict", "graph", [&] {
        graph::step_graph(reg->dynamics(), reg->graph(), config, streams, round++, ws,
                          EngineMode::Strict);
      });
    });
    metric("graph.step_ns_per_node.strict", strict_s * 1e9 / reg_n);
  }
  std::vector<double> obs_pairs_pct;
  {
    // obs: the same compiled scenario with and without a MetricsObserver,
    // in pairs whose order alternates so drift hits both sides alike.
    auto plain = [&] {
      return timed(1, "Scenario::run", "scenario", [&] { (void)reg->run(); });
    };
    auto observed = [&] {
      return timed(1, "Scenario::run+MetricsObserver", "obs", [&] {
        obs::MetricsRegistry registry;
        obs::MetricsObserver mo(registry);
        (void)reg->run(&mo);
      });
    };
    for (int pair = 0; pair < 12; ++pair) {
      double with = 0, without = 0;
      if (pair % 2 == 0) {
        without = plain();
        with = observed();
      } else {
        with = observed();
        without = plain();
      }
      obs_pairs_pct.push_back(100.0 * (with / without - 1.0));
    }
    metric("obs.metrics_overhead_pct", median(obs_pairs_pct));
  }
  reg.reset();

  // --- graph, batched: gossip-single's population, 1 and nproc threads. ---
  {
    const count_t n = count_t{1} << 24;
    const scenario::Scenario gossip = scenario::Scenario::compile(scenario::ScenarioSpec::parse(
        "dynamics=3-majority topology=gossip workload=bias:2c n=16777216 k=8 trials=1 "
        "engine=batched seed=" + std::to_string(seed)));
    rng::Xoshiro256pp gen = rng::StreamFactory(seed).stream(2);
    const graph::AgentGraph g = graph::make_topology("gossip", n, gen);
    const rng::StreamFactory streams(seed);
    graph::GraphStepWorkspace ws;
    Configuration config = gossip.start();
    ws.prepare(config.n(), config.k());
    graph::load_nodes(gossip.start(), true, streams, ws, &g);
    round_t round = 0;
    auto step = [&] {
      graph::step_graph(gossip.dynamics(), g, config, streams, round++, ws, EngineMode::Batched);
    };
    double one = 0;
    with_threads(1, [&] { one = timed(3, "graph::step_graph batched 1t", "graph", step); });
    const double all = timed(3, "graph::step_graph batched nt", "graph", step);
    metric("graph.step_ns_per_node.batched_1t", one * 1e9 / n);
    metric("graph.step_ns_per_node.batched_nt", all * 1e9 / n);
    metric("graph.step_thread_scaling", one / all);
  }

  // --- core: the count stepper at clique-count's k, one trial at a time. ---
  {
    const scenario::Scenario clique = scenario::Scenario::compile(scenario::ScenarioSpec::parse(
        "dynamics=3-majority topology=clique workload=bias:2c n=1e9 k=512 trials=1 seed=" +
        std::to_string(seed)));
    const rng::StreamFactory streams(seed);
    StepWorkspace ws;
    ws.prepare(clique.start().k());
    std::vector<double> per_round_us;
    for (std::uint64_t t = 0; t < 8; ++t) {
      Configuration config = clique.start();
      rng::Xoshiro256pp gen = streams.stream(t);
      round_t rounds = 0;
      const std::int64_t t0 = now_ns();
      {
        Scope s(g_spans, "step_count_based trial", "core");
        while (config.plurality_count(config.k()) < config.n() && rounds < 10000) {
          step_count_based(clique.dynamics(), config, gen, ws);
          ++rounds;
        }
      }
      per_round_us.push_back(seconds_since(t0) * 1e6 / std::max<round_t>(rounds, 1));
    }
    metric("core.count_round_us", median(per_round_us));
  }

  // --- rng: the sequential Philox stream. ---
  {
    constexpr std::size_t kWords = std::size_t{1} << 22;
    std::uint64_t sum = 0;
    const double s = timed(5, "rng::PhiloxStream", "rng", [&] {
      rng::PhiloxStream stream(seed, 7);
      for (std::size_t i = 0; i < kWords; ++i) sum += stream();
    });
    g_sink = g_sink + sum;
    metric("rng.philox_ns_per_word", s * 1e9 / kWords);
  }

  // --- sweep + io: the sweep-service grid in process, checkpointing on. ---
  {
    const sweep::SweepSpec spec = sweep::SweepSpec::parse(grid);
    std::vector<double> walls;
    std::vector<double> cell_s;
    double attempts = 0, cells = 0, failed = 0;
    io::JsonValue payload;
    for (int r = 0; r < 2; ++r) {
      sweep::SweepOptions options;
      options.out_dir = (work / ("inproc_" + std::to_string(r))).string();
      options.force = true;
      Scope s(g_spans, "sweep::run_sweep", "sweep");
      const std::uint64_t sweep_span = s.id();
      options.on_cell = [sweep_span](const sweep::CellOutcome& cell, std::size_t, std::size_t) {
        const std::int64_t end = now_ns();
        g_spans.record("cell", "sweep", g_spans.next_id(), sweep_span,
                       end - static_cast<std::int64_t>(cell.metrics.wall_seconds * 1e9), end);
      };
      const std::int64_t t0 = now_ns();
      const sweep::SweepOutcome out = sweep::run_sweep(spec, options);
      walls.push_back(seconds_since(t0));
      for (const sweep::CellOutcome& cell : out.cells) {
        cell_s.push_back(cell.metrics.wall_seconds);
        attempts += cell.attempts;
      }
      cells += static_cast<double>(out.cells.size());
      failed += static_cast<double>(out.failed);
      // A graph-backed cell's result document: a cell-sized payload.
      payload = sweep::cell_result_to_json(out.cells.at(1));
    }
    metric("sweep.cell_s", median(cell_s));
    metric("sweep.attempts_per_cell", attempts / cells);
    metric("sweep.inproc_wall_s", median(walls));
    metric("sweep.inproc_failed_cells", failed);
    const std::string path = (work / "checkpoint_probe.json").string();
    const double write_s = timed(50, "io::write_checkpoint_file", "io",
                                 [&] { io::write_checkpoint_file(path, payload); });
    metric("io.checkpoint_write_ms", write_s * 1e3);
  }

  g_spans.enable(false);
  const std::string spans_path = args.str_or("spans", "");
  if (!spans_path.empty()) g_spans.write(spans_path);
  std::cout << "{\"threads\":" << nproc << ",\"obs_overhead_pct_pairs\":"
            << num_list(obs_pairs_pct) << ",\"metrics\":{" << m.str() << "}}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw std::runtime_error("usage: e2e_driver calibrate|scenario|probes ...");
    const std::string cmd = argv[1];
    const Args args(argc, argv, 2);
    if (cmd == "calibrate") return cmd_calibrate(args);
    if (cmd == "scenario") return cmd_scenario(args);
    if (cmd == "probes") return cmd_probes(args);
    throw std::runtime_error("unknown subcommand " + cmd);
  } catch (const std::exception& e) {
    std::cerr << "e2e_driver: " << e.what() << "\n";
    return 1;
  }
}
