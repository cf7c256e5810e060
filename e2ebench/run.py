#!/usr/bin/env python3
"""End-to-end benchmark of the plurality-consensus engine.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the library, the sweep service and
the benchmark driver from source (into $CARGO_TARGET_DIR, default
.bench_build, under e2ebench/), then runs one workload as a closed loop
for --seconds seconds: one scenario or sweep in flight at a time, new
inputs derived from --seed each iteration, every output checked. The last
stdout line is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. The line before it holds the host and provenance block
and each timing's median, tail and sample count. See README.md.
"""

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True  # keep the source tree clean
sys.path.insert(0, HERE)

import stats  # noqa: E402

# Every run must end within 180 s; stages after the build share this.
RUN_DEADLINE_S = 170.0
BUILD_TARGETS = ["e2e_driver", "plurality_sweepd", "plurality_sweep_worker"]

SWEEP_WORKERS = 2
SWEEP_WORKER_THREADS = 2
SWEEP_CELLS = 128
# rounds_p50 band of every sweep cell (13 to 16 at n=1e5, k=4 and 16).
SWEEP_BAND = (10, 20)


def sweep_grid(seed):
    """The service probe's grid: seed x16, k x2, engine x2, topology x2.
    clique runs on the count backend and gossip on the graph backend, so
    the topology axis is the count/graph split without naming a backend."""
    seeds = ",".join(str(seed * 100 + j) for j in range(16))
    return ("dynamics=3-majority workload=bias:2c n=1e5 trials=8 seed=%s k=4,16 "
            "engine=strict,batched topology=clique,gossip" % seeds)


# Spec fields are limited to dynamics, workload, topology, n, k, trials,
# seed, engine and max_rounds; every other field keeps its shipped default.
WORKLOADS = {
    "clique-count": {
        "spec": "dynamics=3-majority topology=clique workload=bias:2c n=1e9 k=512 "
                "trials=2048 engine=strict",
        "band": (150, 190),
    },
    "regular8-default": {
        "spec": "dynamics=3-majority topology=regular:8 workload=bias:2c n=1e6 k=8 trials=8",
        "band": (30, 55),
    },
    "gossip-single": {
        "spec": "dynamics=3-majority topology=gossip workload=bias:2c n=16777216 k=8 "
                "trials=1 engine=batched",
        "band": (25, 40),
    },
}

# Layers whose self time the traced run reports.
LAYERS = ("scenario", "check", "round", "graph", "core", "rng", "sweep", "io", "obs",
          "service")

# Computed byte model of one batched gossip node update (README.md): the
# next state is written as u32 + byte mirror and read back on write-allocate,
# and each of the three samples gathers one cache line.
STREAM_BYTES_PER_NODE = 10
GATHERS_PER_NODE = 3
LINE_BYTES = 64


class BenchError(Exception):
    pass


def log(msg):
    print("e2ebench: " + msg, file=sys.stderr, flush=True)


# ----------------------------------------------------------------- build ---

def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                    "--target"] + BUILD_TARGETS,
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    bin_dir = os.path.join(build_dir, "bin")
    return {t: os.path.join(bin_dir, t) for t in BUILD_TARGETS}


# -------------------------------------------------------------- children ---

class Children:
    """Processes started by this run; all are waited for, and any still
    running at exit are killed and reaped."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.live = []

    def start(self, cmd, stdout=subprocess.DEVNULL, env=None):
        proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, env=env, cwd=ROOT)
        self.live.append(proc)
        return proc

    def poll(self, proc):
        """(exit code, peak RSS in KiB) once `proc` ended, else None."""
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == 0:
            return None
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(proc)
        return proc.returncode, usage.ru_maxrss

    def wait(self, proc):
        """Blocks until `proc` ends (no polling, which would steal time from
        a child using every core); kills it at the run deadline."""
        timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(proc)
        if time.monotonic() > self.deadline:
            raise BenchError("child %s ran past the run deadline" % proc.args[0])
        return proc.returncode, usage.ru_maxrss

    def run_json(self, cmd, out_path, env=None):
        """Runs `cmd` to completion; returns (last stdout line as JSON, peak RSS KiB)."""
        with open(out_path, "wb") as out:
            proc = self.start(cmd, stdout=out, env=env)
        code, rss = self.wait(proc)
        if code != 0:
            raise BenchError("%s exited with %d" % (" ".join(cmd[:2]), code))
        with open(out_path) as f:
            lines = f.read().strip().splitlines()
        if not lines:
            raise BenchError("%s printed nothing" % " ".join(cmd[:2]))
        return json.loads(lines[-1]), rss

    def stop_all(self):
        for proc in list(self.live):
            proc.kill()
            os.waitpid(proc.pid, 0)
            proc.returncode = -9
        self.live = []


# ------------------------------------------------------------ provenance ---

def read_cache_sizes():
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    if not os.path.isdir(base):
        return caches
    for entry in sorted(os.listdir(base)):
        if not entry.startswith("index"):
            continue
        try:
            with open(os.path.join(base, entry, "level")) as f:
                level = f.read().strip()
            with open(os.path.join(base, entry, "type")) as f:
                kind = f.read().strip()
            with open(os.path.join(base, entry, "size")) as f:
                size = f.read().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            caches["L%s" % level] = size
    return caches


def size_bytes(text):
    mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if text and text[-1] in mult:
        return int(text[:-1]) * mult[text[-1]]
    return int(text)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """sha256 over the sources the benchmark builds (the checkout it runs
    in need not be a git repository)."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "tools", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def compiler_info(build_dir):
    cache = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        for line in f:
            if ":" in line and "=" in line and not line.startswith(("#", "//")):
                key, value = line.split("=", 1)
                cache[key.split(":")[0]] = value.strip()
    cxx = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([cxx, "--version"], capture_output=True, text=True,
                                 timeout=10).stdout.splitlines()[0]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        version = cxx
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(x for x in (cache.get("CMAKE_CXX_FLAGS", ""),
                                 cache.get("CMAKE_CXX_FLAGS_%s" % build_type.upper(), ""))
                     if x)
    return {"compiler": version, "flags": flags, "build_type": build_type}


def host_block(build_dir, seed, threads, calibration):
    block = {"commit": git_commit(), "source_sha256": source_digest()}
    block.update(compiler_info(build_dir))
    block.update({
        "cpu_model": cpu_model(),
        "caches": read_cache_sizes(),
        "nproc": os.cpu_count(),
        "threads_per_process": threads,
        "seed": seed,
        "calibration": calibration,
    })
    return block


# ------------------------------------------------------------- workloads ---

def scenario_metrics(result):
    """End-to-end metrics of a scenario workload from its iterations."""
    iterations = result["iterations"]
    samples = {
        "setup_s": result["setup_s"],
        "wall_s": [it["wall_s"] for it in iterations],
        "node_updates_per_s": [it["rounds_total"] * it["n"] / it["run_s"] for it in iterations],
        "trials_per_s": [it["trials"] / it["wall_s"] for it in iterations],
    }
    return samples, result["peak_rss_kib"] / 1024.0


def check_sweep_output(out_dir):
    """(cells failed, per-cell wall seconds, total attempts) of one
    finished sweep directory."""
    agg = os.path.join(out_dir, "aggregate.csv")
    fail_csv = os.path.join(out_dir, "failures.csv")
    if not os.path.isfile(agg):
        return SWEEP_CELLS, [], 0
    with open(agg) as f:
        rows = list(csv.DictReader(f))
    failed = max(SWEEP_CELLS - len(rows), 0)
    cell_s = []
    for r in rows:
        ok = (float(r["consensus_rate"]) == 1.0 and float(r["win_rate"]) == 1.0
              and SWEEP_BAND[0] <= float(r["rounds_p50"]) <= SWEEP_BAND[1])
        failed += 0 if ok else 1
        cell_s.append(float(r["wall_seconds"]))
    with open(fail_csv) as f:
        failure_rows = len(f.read().strip().splitlines()) - 1
    if failure_rows != 0:
        failed = max(failed, failure_rows)
    attempts = 0
    with open(os.path.join(out_dir, "manifest.json")) as f:
        manifest = json.load(f)
    for cell in manifest["payload"]["cells"]:
        attempts += cell.get("attempts", 1)
    return min(failed, SWEEP_CELLS), cell_s, attempts


def service_sweep(children, bins, work, grid, spans):
    """One sweep served by plurality_sweepd to two workers with two threads
    each, checkpointing on: the sweep, io, net and service layers."""
    it_dir = os.path.join(work, "service")
    shutil.rmtree(it_dir, ignore_errors=True)
    os.makedirs(it_dir)
    out_dir = os.path.join(it_dir, "out")
    port_file = os.path.join(it_dir, "port")
    t0 = time.perf_counter()
    master = children.start([bins["plurality_sweepd"], "--grid", grid, "--out", out_dir,
                             "--port-file", port_file, "--quiet"])
    while not (os.path.exists(port_file) and os.path.getsize(port_file) > 0):
        if children.poll(master) is not None:
            raise BenchError("plurality_sweepd exited before listening")
        if time.monotonic() > children.deadline:
            raise BenchError("plurality_sweepd did not listen before the run deadline")
        time.sleep(0.0005)
    t_port = time.perf_counter()
    env = dict(os.environ, OMP_NUM_THREADS=str(SWEEP_WORKER_THREADS))
    workers = [children.start([bins["plurality_sweep_worker"], "--port-file", port_file,
                               "--quiet"], env=env) for _ in range(SWEEP_WORKERS)]
    master_code, _ = children.wait(master)
    for w in workers:
        children.wait(w)
    t_done = time.perf_counter()
    failed, cell_s, attempts = check_sweep_output(out_dir)
    if master_code != 0:
        failed = SWEEP_CELLS
    t_end = time.perf_counter()
    root = spans.add("plurality_sweepd sweep", "service", 0, t0, t_end)
    spans.add("plurality_sweepd launch", "service", root, t0, t_port)
    spans.add("check", "check", root, t_done, t_end)
    return {"wall_s": t_end - t0, "failed": failed, "cell_s": cell_s, "attempts": attempts}


class PySpans:
    """Spans recorded by run.py itself (the service sweep)."""

    def __init__(self):
        self.items = []

    def add(self, name, layer, parent, start, end):
        sid = len(self.items) + 1
        self.items.append({"name": name, "layer": layer, "id": sid, "parent": parent,
                           "start": start, "end": end})
        return sid


def load_chrome_spans(path, id_offset):
    """Spans of a driver trace file, ids shifted into their own range."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    out = []
    for e in events:
        parent = e["args"]["parent"]
        out.append({"name": e["name"], "layer": e["cat"], "tid": e["tid"],
                    "id": e["args"]["id"] + id_offset,
                    "parent": parent + id_offset if parent else 0,
                    "start": e["ts"] * 1e-6, "end": (e["ts"] + e["dur"]) * 1e-6})
    return out


def write_chrome_trace(path, spans):
    events = [{"name": s["name"], "cat": s["layer"], "ph": "X", "pid": 1,
               "tid": s.get("tid", 0), "ts": s["start"] * 1e6,
               "dur": (s["end"] - s["start"]) * 1e6,
               "args": {"id": s["id"], "parent": s["parent"]}} for s in spans]
    with open(path, "w") as f:
        json.dump({"traceEvents": events}, f)


def per_layer(args, children, bins, work, calibration, info):
    """The traced run: the workload loop with spans on alternate
    iterations, the probe suite, and at least one service sweep."""
    wl = WORKLOADS[args.workload]
    spans = PySpans()
    omp_env = dict(os.environ, OMP_NUM_THREADS=str(os.cpu_count() or 1))
    scenario_spans = os.path.join(work, "scenario_spans.json")
    scen, _ = children.run_json(
        [bins["e2e_driver"], "scenario", "--spec", wl["spec"], "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--band", "%g:%g" % wl["band"], "--trace", "1",
         "--spans", scenario_spans], os.path.join(work, "scenario.out"), env=omp_env)
    its = scen["iterations"]
    loop_walls = ([it["wall_s"] for it in its if it["traced"]],
                  [it["wall_s"] for it in its if not it["traced"]])
    svc = service_sweep(children, bins, work, sweep_grid(args.seed), spans)
    # Every checked output counts, the probes' included.
    failed = svc["failed"] + sum(it["failed"] for it in its)
    attempted = SWEEP_CELLS + sum(it["trials"] for it in its)
    probe_spans = os.path.join(work, "probe_spans.json")
    probes, _ = children.run_json(
        [bins["e2e_driver"], "probes", "--seed", str(args.seed), "--grid",
         sweep_grid(args.seed), "--work", os.path.join(work, "probes"), "--spans",
         probe_spans], os.path.join(work, "probes.out"), env=omp_env)
    p = probes["metrics"]
    failed += int(p.pop("sweep.inproc_failed_cells"))
    attempted += SWEEP_CELLS * 2
    inproc_wall = p.pop("sweep.inproc_wall_s")

    compile_s = scen["setup_s"]
    round_ms = scen["round_ms"]
    round_tail = stats.tail(round_ms)
    metrics = dict(p)
    metrics.update({
        "scenario.compile_s": stats.median(compile_s),
        "round_ms": stats.median(round_ms),
        "round_ms_tail": round_tail[1] if round_tail else stats.median(round_ms),
        "sweep.cell_s": stats.median(svc["cell_s"]),
        "sweep.attempts_per_cell": svc["attempts"] / SWEEP_CELLS,
        "service.overhead_pct": 100.0 * (svc["wall_s"] / inproc_wall - 1.0),
        "trace.overhead_s": stats.median(loop_walls[0]) - stats.median(loop_walls[1]),
    })
    bound_ns = max(STREAM_BYTES_PER_NODE / calibration["stream_gbps"],
                   GATHERS_PER_NODE / (calibration["gather_rate_per_s"] * 1e-9))
    metrics["graph.step_bytes_per_node"] = float(STREAM_BYTES_PER_NODE
                                                 + GATHERS_PER_NODE * LINE_BYTES)
    metrics["graph.step_roofline_frac"] = bound_ns / metrics["graph.step_ns_per_node.batched_1t"]

    all_spans = (load_chrome_spans(scenario_spans, 10**9)
                 + load_chrome_spans(probe_spans, 2 * 10**9) + spans.items)
    self_s = stats.self_times(all_spans)
    for layer in LAYERS:
        metrics["self_s." + layer] = self_s.get(layer, 0.0)
    trace_path = os.path.join(work, "trace.json")
    write_chrome_trace(trace_path, all_spans)

    obs_pairs = probes["obs_overhead_pct_pairs"]
    q1, _, q3 = stats.quartiles(obs_pairs)
    info["obs_metrics_overhead_pct"] = {"pairs": obs_pairs, "q1": q1, "q3": q3}
    info["round_ms"] = stats.summary(round_ms)
    info["compile_s"] = stats.summary(compile_s)
    info["trace_file"] = os.path.relpath(trace_path, ROOT)
    info["step_bytes_model"] = ("computed, not measured: %d streamed bytes + %d gathers x %d B "
                                "lines per node; roofline bound = max(streamed bytes / stream "
                                "bandwidth, gathers / gather rate)"
                                % (STREAM_BYTES_PER_NODE, GATHERS_PER_NODE, LINE_BYTES))
    return metrics, attempted, failed


def end_to_end(args, children, bins, work, info):
    wl = WORKLOADS[args.workload]
    threads = os.cpu_count() or 1
    res, _ = children.run_json(
        [bins["e2e_driver"], "scenario", "--spec", wl["spec"], "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--band", "%g:%g" % wl["band"], "--trace", "0"],
        os.path.join(work, "scenario.out"), env=dict(os.environ, OMP_NUM_THREADS=str(threads)))
    its = res["iterations"]
    samples, rss_mb = scenario_metrics(res)
    metrics = {name: stats.median(values) for name, values in samples.items()}
    metrics["peak_rss_mb"] = rss_mb
    info["timings"] = {name: stats.summary(values) for name, values in samples.items()}
    return metrics, threads, sum(it["trials"] for it in its), sum(it["failed"] for it in its)


def units(section):
    """Metric name -> unit for one section of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def main():
    # A terminated run still stops and reaps its children (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("repository sources not found in %s" % ROOT)
    build_base = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_base, "e2ebench")
    # Compilers and children write temporary files inside the checkout too.
    os.environ["TMPDIR"] = os.path.join(build_base, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    bins = build(build_dir)
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = os.path.join(build_base, "e2ebench-work", "%s-%d-%d" % (args.workload, args.seed,
                                                                   args.trace))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    children = Children(deadline)
    try:
        l3 = size_bytes(read_cache_sizes().get("L3", "32M"))
        calibration, _ = children.run_json(
            [bins["e2e_driver"], "calibrate", "--bytes", str(4 * l3)],
            os.path.join(work, "calibrate.out"))
        info = {"workload": args.workload}
        if args.trace:
            metrics, attempted, failed = per_layer(args, children, bins, work, calibration,
                                                   info)
            metric_units = units("per_layer")
            threads = os.cpu_count() or 1
        else:
            metrics, threads, attempted, failed = end_to_end(args, children, bins, work, info)
            metric_units = units("end_to_end")
        info["host"] = host_block(build_dir, args.seed, threads, calibration)
        info["failed_fraction"] = failed / attempted
    finally:
        children.stop_all()
    missing = set(metric_units) - set(metrics)
    if missing:
        raise BenchError("metrics not measured: %s" % ", ".join(sorted(missing)))
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in metric_units.items()},
    }))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, subprocess.CalledProcessError, OSError, ValueError, KeyError) as e:
        log("error: %s" % e)
        sys.exit(1)
