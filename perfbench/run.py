"""The repository's benchmark: one workload, one seed, every metric.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig8-cold --seed 1 --seconds 20 --trace 0

Workloads (``README.md`` beside this file says why each was chosen and
which layer metric should move which end-to-end metric):

- ``fig8-cold``: each op is a fresh ``python -m repro sweep`` of the
  fig-8 grid (18 kernels x 4 policies) into an empty artifact store;
- ``fig8-warm``: the same command against a store set-up filled;
- ``randgen-specs``: each op is a fresh ``repro sweep --jobs 2`` of 16
  seeded random programs x 3 pipeline specs x 3 policies into an empty
  store;
- ``serve-mixed``: one ``repro serve --workers 2`` process under an
  open-loop load of cached requests (~40/s) and a cold job every 2 s.

Every op's output is checked against rows computed in set-up by an
in-process ``Session.evaluate`` (``reference.py``), and no LUT or genie
policy may show a timing violation.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it has the per-layer metrics of a separate traced run,
timed by ``hook/sitecustomize.py`` in every process of the op.
This script imports only the standard library.
"""

import argparse
import json
import os
import pathlib
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from http.client import HTTPConnection

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402

ROOT = pathlib.Path.cwd()
WORK = ROOT / ".perfbench_work"
SRC = ROOT / "src"
HOOK = HERE / "hook"
FIG8_GRID = ROOT / "examples" / "grids" / "paper_fig8.json"
QUICK_GRID = ROOT / "examples" / "grids" / "quick.json"
REQUIRED = (SRC / "repro" / "__init__.py", FIG8_GRID, QUICK_GRID)

WORKLOADS = ("fig8-cold", "fig8-warm", "randgen-specs", "serve-mixed")

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Fewest timed ops per run (per half of a traced run).
MIN_OPS = 3
#: Any one child process taking longer than this is killed (a hang).
PROCESS_TIMEOUT_S = 120.0

#: randgen-specs: programs, their shape, and the grid's other axes.
RANDGEN_PROGRAMS = 16
RANDGEN_LENGTH = 300
RANDGEN_REPEATS = 2
RANDGEN_SPECS = ["baseline6", "shallow5", "deep7"]
RANDGEN_POLICIES = ["instruction", "two-class", "genie"]
RANDGEN_JOBS = 2

#: serve-mixed: pre-warmed quick grids (margin sets) and the load.
SERVE_WARM_MARGINS = [[0.0, 5.0], [0.0, 2.0], [0.0, 8.0], [0.0, 12.0]]
SERVE_WORKERS = 2
CACHED_RATE_PER_S = 40.0
COLD_INTERVAL_S = 2.0
COLD_OFFSET_S = 0.5
#: Cached-request latency limit; p95 measured 8-9 ms with cold jobs
#: contending for the 2 cores, about 4 ms without.
CACHED_SLO_MS = 25.0

#: Every per-layer metric, in report order, with its unit.  Time layers
#: are wall seconds per op (per cold job on serve-mixed); a layer not on
#: a workload's path reads 0.
LAYER_TIMES = (
    "cli.import", "timing.build_design", "workloads.characterization_suite",
    "asm.assemble", "flow.characterize", "sim.lockstep.collect_batch",
    "sim.vector", "dta.compile", "lab.store.trace_save",
    "lab.store.trace_load", "flow.evaluate", "lab.runner.shard_pool",
)
PER_LAYER_UNITS = {
    **{f"{name}_s": "s" for name in LAYER_TIMES},
    "unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "asm.assemble_calls": "count",
    "sim.predecode.decode_s": "s",
    "sim.predecode.iss_s": "s",
    "sim.simulations": "count",
    "lab.store.bytes_written": "bytes",
    "lab.store.hits": "count",
    "lab.store.misses": "count",
    "lab.runner.jobs_effective": "count",
    "lab.runner.parallel_fallback": "count",
    "serve.cached_p50_ms": "ms",
    "serve.cached_p95_ms": "ms",
    "serve.slo_miss_frac": "fraction",
    "serve.submit_ms_p50": "ms",
    "serve.result_ms_p50": "ms",
    "serve.job_start_s_p50": "s",
    "serve.job_run_s_p50": "s",
    "serve.rejected": "count",
    "serve.events_no_terminal": "count",
    "loadgen.late_ms_p95": "ms",
    "failed_frac": "fraction",
}
END_TO_END_UNITS = {
    "setup_s": "s",
    "sweep_p50_s": "s",
    "peak_rss_mb": "MB",
    "instr_speedup_pct": "%",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (set-up failed)."""


# -- processes --------------------------------------------------------------

def _env(trace_dir=None):
    env = dict(os.environ)
    env.pop("PERFBENCH_TRACE_DIR", None)
    path = [str(SRC)]
    if trace_dir is not None:
        path.append(str(HOOK))
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def _tail(path, lines=6):
    try:
        text = pathlib.Path(path).read_text(errors="replace")
    except OSError:
        return ""
    return " | ".join(text.strip().splitlines()[-lines:])


def run_process(argv, log, trace_dir=None):
    """Run ``argv`` to completion with ``src`` on the path.

    Returns ``(exit code, wall seconds, peak RSS in MB)``; the peak is
    that of the largest process in its tree (``wait4``).
    """
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err,
                                env=_env(trace_dir), cwd=ROOT)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def store_files(path):
    """Size of every file under ``path`` (none if it does not exist)."""
    return {entry: entry.stat().st_size
            for entry in pathlib.Path(path).rglob("*") if entry.is_file()}


def reference(work, grids, randgen=None, tag="reference"):
    """Rows of each grid from an in-process ``Session.evaluate`` in a
    fresh process (``reference.py``); returns ``(document, seconds)``."""
    spec = work / f"{tag}-spec.json"
    out = work / f"{tag}.json"
    spec.write_text(json.dumps({"grids": grids, "randgen": randgen}))
    code, seconds, _ = run_process(
        [sys.executable, str(HERE / "reference.py"), str(spec), str(out)],
        work / f"{tag}.log",
    )
    if code != 0:
        raise BenchError(f"reference run failed (exit {code}): "
                         f"{_tail(work / f'{tag}.log')}")
    return json.loads(out.read_text()), seconds


# -- sweep workloads --------------------------------------------------------

def sweep_op(work, name, grid_path, store, jobs, trace_dir=None):
    """One fresh-process ``repro sweep``; returns a sample dict."""
    out = work / f"{name}.json"
    argv = [sys.executable, "-m", "repro", "sweep", "--grid", str(grid_path),
            "--store", str(store), "--json", str(out), "--jobs", str(jobs)]
    code, wall, rss = run_process(argv, work / f"{name}.log", trace_dir)
    result = None
    if out.is_file():
        result = json.loads(out.read_text())
        out.unlink()
    return {"code": code, "wall": wall, "rss": rss, "result": result,
            "log": work / f"{name}.log"}


def check_sweep(sample, expected, warm):
    """``(ok, reason)`` for one sweep op against the reference rows."""
    result = sample["result"]
    if sample["code"] != 0 or result is None:
        return False, (f"exit {sample['code']}: {_tail(sample['log'])}")
    if result["results"] != expected:
        return False, "rows differ from the in-process reference"
    unsafe = benchlib.unsafe_rows(result["results"])
    if unsafe:
        return False, f"{len(unsafe)} rows with timing violations"
    if warm and (result["simulations"] != 0
                 or result["store"]["trace"]["misses"] != 0):
        return False, (f"warm store re-simulated: {result['simulations']} "
                       f"simulations, {result['store']['trace']['misses']} "
                       f"trace misses")
    return True, None


def run_for(seconds, op, minimum=MIN_OPS):
    """Call ``op(index)`` until ``seconds`` have passed (at least
    ``minimum`` times); returns the list of its results."""
    start = time.perf_counter()
    samples = []
    while len(samples) < minimum or time.perf_counter() - start < seconds:
        samples.append(op(len(samples)))
    return samples


def load_trace(trace_dir):
    return [json.loads(path.read_text())
            for path in sorted(pathlib.Path(trace_dir).glob("*.json"))]


def traced_breakdown(wall, processes, roots):
    """Per-layer seconds, remainder and summed counters of one op."""
    layers, unattributed = benchlib.attribute(wall, roots, processes)
    counters = {}
    for process in processes:
        for name, value in process["counters"].items():
            counters[name] = counters.get(name, 0) + value
        calls = process["layers"].get("asm.assemble", {}).get("calls", 0)
        counters["asm.assemble_calls"] = (
            counters.get("asm.assemble_calls", 0) + calls
        )
    return {"wall": wall, "layers": layers, "unattributed": unattributed,
            "counters": counters,
            "adds_up": benchlib.adds_up(wall, layers, unattributed)}


def layer_report(breakdowns, untraced_walls, extra):
    """The per-layer metric values: means over the traced ops."""
    count = len(breakdowns)

    def mean(values):
        return sum(values) / count

    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for name in LAYER_TIMES:
        metrics[f"{name}_s"] = mean(
            [b["layers"].get(name, 0.0) for b in breakdowns])
    metrics["unattributed_s"] = mean([b["unattributed"] for b in breakdowns])
    metrics["trace.wall_s"] = mean([b["wall"] for b in breakdowns])
    metrics["trace.overhead_s"] = (
        metrics["trace.wall_s"] - benchlib.median(untraced_walls))
    for metric, counter in (
            ("asm.assemble_calls", "asm.assemble_calls"),
            ("sim.predecode.decode_s", "sim.predecode.decode_seconds"),
            ("sim.predecode.iss_s", "sim.predecode.iss_seconds"),
            ("lab.store.hits", "lab.store.hits"),
            ("lab.store.misses", "lab.store.misses")):
        metrics[metric] = mean(
            [b["counters"].get(counter, 0) for b in breakdowns])
    metrics.update(extra)
    layer_sum = (sum(metrics[f"{name}_s"] for name in LAYER_TIMES)
                 + metrics["unattributed_s"])
    adds_up = (all(b["adds_up"] for b in breakdowns)
               and abs(layer_sum - metrics["trace.wall_s"]) <= 1e-6)
    return metrics, adds_up


class SweepWorkload:
    """fig8-cold, fig8-warm and randgen-specs: timed fresh-process
    sweeps, each checked against the in-process reference."""

    def __init__(self, name, seed, work):
        self.name = name
        self.seed = seed
        self.work = work
        self.warm = name == "fig8-warm"
        self.jobs = RANDGEN_JOBS if name == "randgen-specs" else 1
        self.store_index = 0

    def setup(self):
        """Returns the set-up seconds of each repetition."""
        if self.name == "randgen-specs":
            return self._setup_randgen()
        self.grid_path = FIG8_GRID
        grid = json.loads(FIG8_GRID.read_text())
        if self.name == "fig8-cold":
            times = []
            for index in range(SETUP_REPEATS):
                document, seconds = reference(self.work, [grid],
                                              tag=f"reference{index}")
                self._accept_reference(document)
                times.append(seconds)
            return times
        document, _ = reference(self.work, [grid])
        self._accept_reference(document)
        times = []
        for index in range(SETUP_REPEATS):
            store = self.work / f"fill{index}"
            sample = sweep_op(self.work, f"fill{index}", self.grid_path,
                              store, self.jobs)
            ok, reason = check_sweep(sample, self.expected, warm=False)
            if not ok:
                raise BenchError(f"store fill failed: {reason}")
            times.append(sample["wall"])
            if index:
                shutil.rmtree(store)
        self.warm_store = self.work / "fill0"
        return times

    def _setup_randgen(self):
        programs = self.work / "programs"
        programs.mkdir()
        paths = [str(programs / f"rg{index:02d}.s")
                 for index in range(RANDGEN_PROGRAMS)]
        grid = {"name": "randgen-specs", "policies": RANDGEN_POLICIES,
                "pipeline_specs": RANDGEN_SPECS, "workloads": paths,
                "check_safety": True}
        self.grid_path = self.work / "randgen-grid.json"
        self.grid_path.write_text(json.dumps(grid))
        randgen = {"seed": self.seed, "paths": paths,
                   "length": RANDGEN_LENGTH, "repeats": RANDGEN_REPEATS}
        times = []
        for index in range(SETUP_REPEATS):
            document, seconds = reference(self.work, [grid], randgen,
                                          tag=f"reference{index}")
            self._accept_reference(document)
            times.append(seconds)
        return times

    def _accept_reference(self, document):
        rows = document["rows"][0]
        if getattr(self, "expected", rows) != rows:
            raise BenchError("reference rows differ between repetitions")
        unsafe = benchlib.unsafe_rows(rows)
        if unsafe:
            raise BenchError(f"{len(unsafe)} reference rows with timing "
                             f"violations")
        self.expected = rows
        self.host = document["host"]
        self.paper = document["paper"]

    def _op(self, index, trace_dir=None):
        if self.warm:
            store = self.warm_store
        else:
            store = self.work / f"store{self.store_index}"
            self.store_index += 1
        before = store_files(store)
        sample = sweep_op(self.work, f"op{index}", self.grid_path, store,
                          self.jobs, trace_dir)
        # bytes of the artifacts the op added (rewrites of the run's
        # result and manifest in a warm store are not new artifacts)
        sample["bytes_written"] = sum(
            size for path, size in store_files(store).items()
            if path not in before)
        if not self.warm:
            shutil.rmtree(store, ignore_errors=True)
        return sample

    def measure(self, seconds, tally):
        samples = run_for(seconds, self._op)
        for sample in samples:
            tally.record(*check_sweep(sample, self.expected, self.warm))
        return {
            "sweep_p50_s": benchlib.median([s["wall"] for s in samples]),
            "peak_rss_mb": benchlib.median([s["rss"] for s in samples]),
            "instr_speedup_pct": self.instr_speedup(),
        }, len(samples)

    def instr_speedup(self):
        return benchlib.mean_speedup(self.expected, "instruction")

    def measure_traced(self, seconds, tally):
        """Untraced and traced ops alternate, so both see the same
        machine; the traced ones give the per-layer breakdown."""
        untraced = []
        traced = []
        breakdowns = []

        def op(index):
            if index % 2 == 0:
                sample = self._op(index)
                untraced.append(sample)
                return sample
            trace_dir = self.work / f"trace{index}"
            trace_dir.mkdir()
            sample = self._op(index, trace_dir)
            processes = load_trace(trace_dir)
            roots = [p for p in processes
                     if p["ppid"] == os.getpid() and not p["forked_under"]]
            breakdowns.append(traced_breakdown(sample["wall"], processes,
                                               roots))
            shutil.rmtree(trace_dir)
            traced.append(sample)
            return sample

        run_for(seconds, op, minimum=2 * MIN_OPS)
        for sample in untraced + traced:
            tally.record(*check_sweep(sample, self.expected, self.warm))
        last = traced[-1]["result"] or {}
        extra = {
            "sim.simulations": sum(
                (s["result"] or {}).get("simulations", 0) for s in traced
            ) / len(traced),
            "lab.store.bytes_written": sum(
                s["bytes_written"] for s in traced) / len(traced),
            "lab.runner.jobs_effective": last.get("jobs_effective", 0),
            "lab.runner.parallel_fallback": int(
                bool(last.get("parallel_fallback"))),
        }
        return layer_report(breakdowns, [s["wall"] for s in untraced], extra)

    def info(self):
        lines = []
        if self.name.startswith("fig8"):
            lines.append(accuracy_line(self.expected, self.paper))
        return lines


def accuracy_line(rows, paper):
    """Simulated speedups of the fig-8 suite against the paper."""
    parts = []
    for policy, key in (("instruction", "instruction_speedup_pct"),
                        ("genie", "genie_speedup_pct")):
        value = benchlib.mean_speedup(rows, policy)
        target = paper[key]
        parts.append(f"{policy} {value:.2f} % vs paper {target:.1f} % "
                     f"(error {value - target:+.2f} points, "
                     f"{(value - target) / target * 100:+.1f} %)")
    return ("accuracy (simulated time, mean speedup over static on the "
            "fig-8 suite): " + "; ".join(parts)
            + ". The timing model is not validated against silicon; the "
              "paper's figures are the only reference.")


# -- serve-mixed ------------------------------------------------------------

def http(port, method, path, payload=None, timeout=60.0):
    """One request on a fresh connection; returns ``(status, body)``."""
    conn = HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def follow_events(port, job_id, timeout=PROCESS_TIMEOUT_S):
    """Read a job's event stream to its end; returns ``(state, first
    progress time, end time)`` in ``perf_counter`` seconds.

    The server closes the stream once the job is terminal, but it can
    do so before writing the terminal event; that state reads
    ``"ended"`` and the caller learns the outcome from the result."""
    conn = HTTPConnection("127.0.0.1", port, timeout=timeout)
    first = None
    try:
        conn.request("GET", f"/v1/jobs/{job_id}/events")
        response = conn.getresponse()
        if response.status != 200:
            return f"http {response.status}", None, time.perf_counter()
        for line in response:
            if not line.strip():
                continue
            event = json.loads(line)
            if event["event"] == "progress" and first is None:
                first = time.perf_counter()
            if event["event"] in ("done", "failed"):
                return event["event"], first, time.perf_counter()
    finally:
        conn.close()
    return "ended", first, time.perf_counter()


class Server:
    """One ``repro serve`` child process on a fresh store."""

    def __init__(self, work, name, trace_dir=None):
        self.store = work / f"{name}-store"
        self.log = work / f"{name}.log"
        self.trace_dir = trace_dir
        self.proc = None
        self.port = None

    def start(self):
        with open(self.log, "wb") as out:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--store",
                 str(self.store), "--port", "0", "--workers",
                 str(SERVE_WORKERS)],
                stdout=out, stderr=subprocess.STDOUT,
                env=_env(self.trace_dir), cwd=ROOT,
            )
        deadline = time.perf_counter() + PROCESS_TIMEOUT_S
        pattern = re.compile(rb"listening on http://[^:\s]+:(\d+)")
        while time.perf_counter() < deadline:
            match = pattern.search(self.log.read_bytes())
            if match:
                self.port = int(match.group(1))
                return
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise BenchError(f"server did not start: {_tail(self.log)}")

    def stop(self):
        """Shut down cleanly (kill after a grace period); returns the
        peak RSS in MB of the largest process in the server's tree."""
        if self.proc is None:
            return 0.0
        if self.proc.poll() is None:
            try:
                http(self.port, "POST", "/v1/shutdown", timeout=5.0)
            except OSError:
                pass
        deadline = time.perf_counter() + 20.0
        usage = None
        while usage is None:
            pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                usage = rusage
                self.proc.returncode = os.waitstatus_to_exitcode(status)
            elif time.perf_counter() > deadline:
                self.proc.kill()
                _, status, usage = os.wait4(self.proc.pid, 0)
                self.proc.returncode = os.waitstatus_to_exitcode(status)
            else:
                time.sleep(0.01)
        self.proc = None
        return usage.ru_maxrss / 1024.0


def quick_grid(margins):
    grid = json.loads(QUICK_GRID.read_text())
    grid["margins"] = margins
    return grid


class ServeWorkload:
    """serve-mixed: cached requests and cold jobs against one server."""

    def __init__(self, seed, work):
        self.seed = seed
        self.work = work
        self.rng = random.Random(seed)
        self.servers = []
        self.lines = []
        #: Event streams that closed without their terminal event.
        self.no_terminal_event = 0

    def setup(self, seconds):
        # enough cold jobs for a whole run, even split in two halves
        # (a traced run); margins drawn from the seed and distinct from
        # the pre-warmed ones, so every cold job misses the frame cache
        count = 2 * len(benchlib.schedule(0.0, COLD_INTERVAL_S, seconds,
                                          COLD_OFFSET_S))
        taken = {m for margins in SERVE_WARM_MARGINS for m in margins}
        self.cold_margins = []
        while len(self.cold_margins) < count:
            margin = round(self.rng.uniform(0.5, 15.0), 3)
            if margin not in taken:
                taken.add(margin)
                self.cold_margins.append(margin)
        self.warm_grids = [quick_grid(m) for m in SERVE_WARM_MARGINS]
        self.cold_grids = [quick_grid([m]) for m in self.cold_margins]
        document, _ = reference(self.work, self.warm_grids + self.cold_grids)
        rows = document["rows"]
        for grid_rows in rows:
            if benchlib.unsafe_rows(grid_rows):
                raise BenchError("reference rows with timing violations")
        self.warm_expected = rows[:len(self.warm_grids)]
        self.cold_expected = rows[len(self.warm_grids):]
        self.host = document["host"]
        times = []
        for index in range(SETUP_REPEATS):
            if self.servers:
                self.stop_server()
            start = time.perf_counter()
            self.first_bytes = self.start_server(f"server{index}")
            times.append(time.perf_counter() - start)
        return times

    def start_server(self, name, trace_dir=None):
        """Start a server and pre-warm the quick grids; returns the
        first fetch of each cached result."""
        server = Server(self.work, name, trace_dir)
        self.servers.append(server)
        server.start()
        ids = []
        for grid in self.warm_grids:
            status, body = http(server.port, "POST", "/v1/jobs",
                                {"grid": grid, "tenant": "warm"})
            if status not in (200, 202):
                raise BenchError(f"pre-warm submit: HTTP {status}")
            ids.append(json.loads(body)["id"])
        first = []
        for job_id, expected in zip(ids, self.warm_expected):
            state, _, _ = follow_events(server.port, job_id)
            self.no_terminal_event += state == "ended"
            status, body = http(server.port, "GET",
                                f"/v1/jobs/{job_id}/result")
            if state == "failed" or status != 200:
                raise BenchError(f"pre-warm job {job_id}: {state}, "
                                 f"HTTP {status}")
            if benchlib.rows_from_frame(json.loads(body)) != expected:
                raise BenchError("pre-warmed result differs from the "
                                 "in-process reference")
            first.append(body)
        self.port = server.port
        return first

    def stop_server(self):
        return self.servers.pop().stop()

    def close(self):
        while self.servers:
            self.stop_server()

    def instr_speedup(self):
        rows = self.warm_expected[0]
        return benchlib.mean_speedup(rows, "instruction", margin=0.0)

    def drive(self, seconds, first_cold, tally):
        """The open-loop load for ``seconds``: cached requests in this
        thread, cold jobs in one more.  Latency runs from each request's
        due time."""
        port = self.port
        start = time.perf_counter()
        cached_due = benchlib.schedule(start, 1.0 / CACHED_RATE_PER_S,
                                       seconds)
        cold_due = benchlib.schedule(start, COLD_INTERVAL_S, seconds,
                                     COLD_OFFSET_S)
        picks = [self.rng.randrange(len(self.warm_grids)) for _ in cached_due]
        cached = {"latency": [], "submit": [], "result": [], "late": [],
                  "rejected": 0, "reasons": []}
        cold = {"latency": [], "start": [], "run": [], "rejected": 0,
                "reasons": []}

        def wait_until(due):
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)

        def cold_loop():
            for index, due in enumerate(cold_due):
                wait_until(due)
                try:
                    reason = self._cold_job(port, due, first_cold + index,
                                            cold)
                except (OSError, ValueError, KeyError) as error:
                    reason = f"cold job: {type(error).__name__}: {error}"
                if reason:
                    cold["reasons"].append(reason)

        thread = threading.Thread(target=cold_loop, name="cold-jobs")
        thread.start()
        try:
            for due, pick in zip(cached_due, picks):
                wait_until(due)
                sent = time.perf_counter()
                cached["late"].append(benchlib.lateness(due, sent))
                try:
                    reason = self._cached_request(port, pick, due, sent,
                                                  cached)
                except (OSError, ValueError, KeyError) as error:
                    reason = f"cached: {type(error).__name__}: {error}"
                if reason:
                    cached["reasons"].append(reason)
        finally:
            thread.join()
        for record in (cached, cold):
            for _ in record["latency"]:
                tally.record(True)
            for reason in record["reasons"]:
                tally.record(False, reason)
        return cached, cold

    def _cached_request(self, port, pick, due, sent, cached):
        status, body = http(port, "POST", "/v1/jobs",
                            {"grid": self.warm_grids[pick],
                             "tenant": "cached"})
        submitted = time.perf_counter()
        if status == 429:
            cached["rejected"] += 1
            return "cached request refused (429)"
        snapshot = json.loads(body)
        if status != 200 or not snapshot.get("cached"):
            return f"cached submit: HTTP {status}, not served from cache"
        status, result = http(port, "GET",
                              f"/v1/jobs/{snapshot['id']}/result")
        done = time.perf_counter()
        if status != 200 or result != self.first_bytes[pick]:
            return "cached result differs from the first fetch"
        cached["latency"].append(done - due)
        cached["submit"].append(submitted - sent)
        cached["result"].append(done - submitted)
        return None

    def _cold_job(self, port, due, margin_index, cold):
        sent = time.perf_counter()
        status, body = http(port, "POST", "/v1/jobs",
                            {"grid": self.cold_grids[margin_index],
                             "tenant": "cold"})
        if status == 429:
            cold["rejected"] += 1
            return "cold job refused (429)"
        if status != 202:
            return f"cold submit: HTTP {status}"
        job_id = json.loads(body)["id"]
        state, first, end = follow_events(port, job_id)
        self.no_terminal_event += state == "ended"
        status, result = http(port, "GET", f"/v1/jobs/{job_id}/result")
        done = time.perf_counter()
        if state == "failed" or status != 200:
            return f"cold job {job_id}: {state}, HTTP {status}"
        rows = benchlib.rows_from_frame(json.loads(result))
        if rows != self.cold_expected[margin_index]:
            return "cold job rows differ from the in-process reference"
        if benchlib.unsafe_rows(rows):
            return "cold job rows with timing violations"
        cold["latency"].append(done - due)
        if first is not None:
            cold["start"].append(first - sent)
            cold["run"].append(end - first)
        return None

    def measure(self, seconds, tally):
        cached, cold = self.drive(seconds, 0, tally)
        rss = self.stop_server()
        if not cold["latency"] or not cached["latency"]:
            raise BenchError("no request completed: " + "; ".join(
                (cold["reasons"] + cached["reasons"])[:3]))
        self.lines.append(
            f"cached requests: {len(cached['latency'])} ok, p50 "
            f"{1e3 * benchlib.median(cached['latency']):.2f} ms, p95 "
            f"{1e3 * benchlib.percentile(cached['latency'], 95):.2f} ms, "
            f"{len(cached['reasons'])} failed; cold jobs: "
            f"{len(cold['latency'])} ok, p50 "
            f"{benchlib.median(cold['latency']):.3f} s")
        return {
            "sweep_p50_s": benchlib.median(cold["latency"]),
            "peak_rss_mb": rss,
            "instr_speedup_pct": self.instr_speedup(),
        }, len(cached["latency"]) + len(cold["latency"])

    def measure_traced(self, seconds, tally):
        half = len(benchlib.schedule(0.0, COLD_INTERVAL_S, seconds / 2,
                                     COLD_OFFSET_S))
        cached, cold = self.drive(seconds / 2, 0, tally)
        self.stop_server()
        trace_dir = self.work / "trace"
        trace_dir.mkdir()
        self.first_bytes = self.start_server("traced", trace_dir)
        load_start = time.time()
        _, traced_cold = self.drive(seconds / 2, half, tally)
        self.stop_server()
        if not cold["latency"] or not traced_cold["latency"]:
            raise BenchError("no cold job completed")
        # the job workers of the traced load phase: each lives inside
        # its own job's interval, so their layers sum within the jobs'
        # summed latency
        processes = [p for p in load_trace(trace_dir)
                     if p["start_unix"] >= load_start]
        workers = [p for p in processes
                   if p["layers"] and not p["forked_under"]]
        wall = sum(traced_cold["latency"])
        breakdown = traced_breakdown(wall, processes, workers)
        jobs = len(traced_cold["latency"])
        per_job = {
            "wall": breakdown["wall"] / jobs,
            "layers": {k: v / jobs for k, v in breakdown["layers"].items()},
            "unattributed": breakdown["unattributed"] / jobs,
            "counters": {k: v / jobs
                         for k, v in breakdown["counters"].items()},
            "adds_up": breakdown["adds_up"],
        }
        failures = len(cached["reasons"])
        extra = {
            "serve.cached_p50_ms": 1e3 * benchlib.median(cached["latency"]),
            "serve.cached_p95_ms": 1e3 * benchlib.percentile(
                cached["latency"], 95),
            "serve.slo_miss_frac": benchlib.miss_frac(
                cached["latency"], CACHED_SLO_MS / 1e3, failures),
            "serve.submit_ms_p50": 1e3 * benchlib.median(cached["submit"]),
            "serve.result_ms_p50": 1e3 * benchlib.median(cached["result"]),
            "serve.job_start_s_p50": (benchlib.median(cold["start"])
                                      if cold["start"] else 0.0),
            "serve.job_run_s_p50": (benchlib.median(cold["run"])
                                    if cold["run"] else 0.0),
            "serve.rejected": cached["rejected"] + cold["rejected"],
            "serve.events_no_terminal": self.no_terminal_event,
            "loadgen.late_ms_p95": 1e3 * benchlib.percentile(
                cached["late"], 95),
        }
        return layer_report([per_job], cold["latency"], extra)

    def info(self):
        return self.lines


# -- entry point ------------------------------------------------------------

def _metrics(values, units):
    return {name: {"value": float(values[name]), "unit": units[name]}
            for name in units}


def run(workload, seed, seconds, trace):
    work = WORK / f"{workload}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    # temporary files of every child process stay inside the checkout
    os.environ["TMPDIR"] = str(work / "tmp")
    tally = benchlib.Tally()
    bench = (ServeWorkload(seed, work) if workload == "serve-mixed"
             else SweepWorkload(workload, seed, work))
    try:
        setup_times = (bench.setup(seconds) if workload == "serve-mixed"
                       else bench.setup())
        if trace:
            values, adds_up = bench.measure_traced(seconds, tally)
            values["failed_frac"] = tally.failed_frac
            metrics = _metrics(values, PER_LAYER_UNITS)
            if not adds_up:
                tally.reasons.append("layer times plus unattributed_s do "
                                     "not add up to the traced wall time")
            correct = tally.failed == 0 and adds_up
        else:
            values, samples = bench.measure(seconds, tally)
            values["setup_s"] = benchlib.median(setup_times)
            metrics = _metrics(values, END_TO_END_UNITS)
            print(f"samples: {samples} timed ops; set-up repeated "
                  f"{len(setup_times)} times")
            correct = tally.failed == 0
    finally:
        if isinstance(bench, ServeWorkload):
            bench.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass                    # another run's directory is still there
    for line in bench.info():
        print(line)
    print(json.dumps({"workload": workload, "seed": seed,
                      "host": bench.host}, sort_keys=True))
    if tally.reasons:
        print("failures: " + "; ".join(tally.reasons), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [str(path.relative_to(ROOT)) for path in REQUIRED
               if not path.is_file()]
    if missing:
        print(f"error: not a checkout of the program: missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    # a terminated run still stops every process it started: SystemExit
    # unwinds through the ``finally`` blocks that shut them down
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: sys.exit(128 + signum))
    try:
        return run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
