"""The repository benchmark: Fig. 7 sweeps and the simulation service.

Usage::

    python3 perfbench/run.py --workload fig7-lru --seed 7 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

``fig7-lru``       ``repro fig7`` at quick scale: BFS, SSSP and PR under
                   the five configs at 90% fragmentation, LRU TLBs.
``fig7-observed``  the BFS sweep with the program's span tracer on and
                   the trace exported, as ``repro trace fig7`` does
                   (quantum tier: one PCC access and one observer call
                   per walk).
``serve-mixed``    ``repro serve`` with 2 executors under one closed-loop
                   client: a pass of distinct jobs, then the same specs
                   again as journal hits.

Every sweep and every server runs in a fresh interpreter, with every
``REPRO_*`` variable cleared, the trace cache and the run journal off,
and its state in a fresh directory under ``.perfbench-runs/`` (removed
at the end; the run's report and layer records stay). The amount of
work is fixed by ``--seconds``: the number of sweeps (or serve rounds)
whose nominal duration on a 2-CPU host fills it.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones, measured untraced; with ``--trace 1``
an untraced and a traced measurement run back to back and the metrics
are the per-layer ones, from the layer timers in :mod:`layers`.
Every timing is measured in several repetitions spread over the whole
run (sweeps, resume processes, serve rounds, set-up processes) and the
run reports their median.

Every timing is also scaled to one host speed. A shared 2-CPU host
switches between a fast and a slow state, about 1.75x apart, for
seconds to minutes at a time, so raw times of the same code move by
more than any useful bound between runs. Between its timed pieces of
work (each simulation run, each block of 10 resumes, each chunk of 25
serve jobs) the benchmark times a fixed pure-Python kernel
(``child.reference_ms``), and a piece's time ``t`` is reported as
``t * REFERENCE_MS / k``, with ``k`` the mean kernel time around it
(set-up samples take the run's median ``k``). ``REFERENCE_MS`` is the
kernel's time on the host the benchmark was sized on, in its fast
state, so the figures read as seconds on that host at that speed. The
raw times and kernel times stay in each run's ``report.json``.

Latencies are a median and a tail (``*_tail_ms``), both taken within
each repetition: the tail is the highest percentile, at most the 95th
and at least the median, with 10 samples beyond it. A repetition has
100 samples (a resume process's resumes, a serve round's jobs or
hits), so the tail is their 90th percentile; on the Fig. 7 jobs (5 or
15 per sweep) it is the median. The ``samples.*`` metrics give the
counts and the percentile each tail reports; the printed ``samples:``
line gives the same.

For the Fig. 7 workloads a "job" is one simulation run of the sweep
and a "hit" is one fully journaled resume of the whole sweep, as
``repro fig7 --resume`` makes after a complete sweep. A job's time is
its median over the run's sweeps, and ``wall_s`` is the sum of those
plus the median of the sweeps' remainders (fan-out, render and, on
fig7-observed, the trace export).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import CONFIGS, REFERENCE_MS, SIM_FIELDS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = ROOT / ".perfbench-runs"

#: the graph seed ``repro fig7`` uses when none is given
DEFAULT_SEED = 7
#: set-up samples per run (fresh interpreters)
SETUP_SAMPLES = 5
#: sweeps per Fig. 7 run at least: each job's median of this many
MIN_SWEEPS = 3
#: journaled whole-sweep resumes per resume process (one repetition),
#: and resume processes per Fig. 7 run, spread between the sweeps
HIT_SAMPLES = 100
HIT_PROCS = 6
#: samples a tail percentile needs beyond it
TAIL_BEYOND = 10
#: every child and server must be done by then (the run limit is 180 s)
RUN_BUDGET_S = 170.0

#: Fig. 7 workloads: child arguments and the nominal seconds of one
#: sweep (used only to turn ``--seconds`` into a sweep count).
FIG7 = {
    "fig7-lru": (["--apps", "BFS,SSSP,PR", "--tlb", "lru"], 9.0),
    "fig7-observed": (["--apps", "BFS", "--tlb", "lru", "--observed"], 6.0),
}
SERVE = "serve-mixed"
#: servers per serve run, one after another. Tail latencies sit at the
#: level of the host slow spells a stretch of the run happens to meet,
#: so each round is one repetition with its own percentiles, and the run
#: reports their median over the rounds.
SERVE_SERVERS = 4
#: nominal seconds of one serve round (distinct pass + hit pass)
SERVE_ROUND_S = 2.5
#: rounds per server at least
SERVE_MIN_ROUNDS = 2

#: Fig. 7 shape on any seed (EXPERIMENTS.md; the repository's own
#: fig7 benchmark asserts the same orderings)
SHAPE_RULES = (
    ("PCC speedup > 1.1x", lambda g: g["pcc"] > 1.1),
    ("PCC ahead of Linux THP", lambda g: g["pcc"] > g["linux"] * 1.05),
    ("PCC ahead of HawkEye", lambda g: g["pcc"] > g["hawkeye"] * 1.02),
    ("Linux THP < 1.15x", lambda g: g["linux"] < 1.15),
)
#: "Demotion roughly neutral". The three-app sweep gets the repository
#: fig7 benchmark's own rule. BFS is the app demotion costs most: alone
#: its gap is about 0.18 on every seed, so the BFS-only sweeps allow 15%
#: of the PCC speedup instead.
DEMOTION_RULES = {
    "fig7-lru": lambda g: abs(g["pcc_demote"] - g["pcc"]) < 0.12,
    "fig7-observed": lambda g: abs(g["pcc_demote"] / g["pcc"] - 1.0) <= 0.15,
}

#: per-layer metric -> (layer, field): field 0 calls, 1 total s, 2 self s
LAYER_METRICS = {
    "workloads.build.calls": ("workloads.build", 0),
    "workloads.build.s": ("workloads.build", 1),
    "experiments.run_spec.calls": ("experiments.run_spec", 0),
    "experiments.run_spec.self_s": ("experiments.run_spec", 2),
    "engine.machine_run.s": ("engine.machine_run", 1),
    "engine.machine_run.self_s": ("engine.machine_run", 2),
    "engine.stream_encode.calls": ("engine.stream_encode", 0),
    "engine.stream_encode.s": ("engine.stream_encode", 1),
    "engine.classify.calls": ("engine.classify", 0),
    "engine.classify.s": ("engine.classify", 1),
    "engine.run_epoch.calls": ("engine.run_epoch", 0),
    "engine.run_epoch.self_s": ("engine.run_epoch", 2),
    "engine.run_quantum.calls": ("engine.run_quantum", 0),
    "engine.run_quantum.self_s": ("engine.run_quantum", 2),
    "engine.page_table_pass.s": ("engine.page_table_pass", 1),
    "engine.plan_walks.s": ("engine.plan_walks", 1),
    "engine.apply_walk_plan.s": ("engine.apply_walk_plan", 1),
    "core.pcc_access.calls": ("core.pcc_access", 0),
    "core.pcc_access.s": ("core.pcc_access", 1),
    "core.pcc_access_many.calls": ("core.pcc_access_many", 0),
    "core.pcc_access_many.s": ("core.pcc_access_many", 1),
    "os.handle_fault.calls": ("os.handle_fault", 0),
    "os.handle_fault.s": ("os.handle_fault", 1),
    "os.handle_faults_bulk.calls": ("os.handle_faults_bulk", 0),
    "os.handle_faults_bulk.s": ("os.handle_faults_bulk", 1),
    "os.promotion_tick.calls": ("os.promotion_tick", 0),
    "os.promotion_tick.self_s": ("os.promotion_tick", 2),
    "os.allocate_huge.calls": ("os.allocate_huge", 0),
    "os.allocate_huge.s": ("os.allocate_huge", 1),
    "vm.is_mapped.calls": ("vm.is_mapped", 0),
    "vm.is_mapped.s": ("vm.is_mapped", 1),
    "tlb.shootdown.calls": ("tlb.shootdown", 0),
    "tlb.shootdown.s": ("tlb.shootdown", 1),
    "obs.note_walk.calls": ("obs.note_walk", 0),
    "obs.note_walk.s": ("obs.note_walk", 1),
    "obs.finalize.s": ("obs.finalize", 1),
    "resilience.journal_load.calls": ("resilience.journal_load", 0),
    "resilience.journal_load.s": ("resilience.journal_load", 1),
    "resilience.journal_commit.calls": ("resilience.journal_commit", 0),
    "resilience.journal_commit.s": ("resilience.journal_commit", 1),
    "serve.execute_job.calls": ("serve.execute_job", 0),
    "serve.execute_job.self_s": ("serve.execute_job", 2),
}
ENGINE_METRICS = {
    "engine.columnar_epochs": "columnar_epochs",
    "engine.columnar_fallbacks": "columnar_fallbacks",
    "engine.columnar_plru_fallbacks": "columnar_plru_fallbacks",
    "engine.faults_batched": "columnar_faults_batched",
    "engine.faults_scalar": "columnar_faults_scalar",
}


class ChildFailed(RuntimeError):
    """A benchmark child exited non-zero."""


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q`` quantile of ``values`` (0 if none)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_q(count: int) -> float:
    """The tail percentile ``count`` samples support: 0.95, or the
    highest with ``TAIL_BEYOND`` samples beyond it, but at least 0.5."""
    if count <= 0:
        return 0.5
    return max(0.5, min(0.95, 1.0 - TAIL_BEYOND / count))


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def host_facts() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        import numba  # noqa: F401
        numba_present = True
    except ImportError:
        numba_present = False
    return {
        "nproc": os.cpu_count(),
        "schedulable_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "numba": numba_present,
    }


class Run:
    """One benchmark invocation: its directory, deadline and children."""

    def __init__(self, args) -> None:
        self.args = args
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.dir = RUNS_DIR / (
            f"{args.workload}-seed{args.seed}-trace{args.trace}"
        )
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self._children = 0

    def tidy(self) -> None:
        """Drop every child's state; keep the layer records."""
        for work in self.dir.iterdir():
            if not work.is_dir():
                continue
            records = work / "layer-records.json"
            if records.exists():
                records.rename(self.dir / f"{work.name}-layer-records.json")
            shutil.rmtree(work)

    def fresh_dir(self, kind: str) -> Path:
        self._children += 1
        path = self.dir / f"{self._children:02d}-{kind}"
        path.mkdir()
        return path

    def env(self, work: Path) -> dict:
        """Child environment: no inherited ``REPRO_*`` setting, the
        trace cache and journal off, home and temp inside ``work``, and
        a fixed hash seed so set and dict layouts repeat run to run."""
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env.update(
            REPRO_JOURNAL="off",
            REPRO_TRACE_CACHE="off",
            PYTHONPATH=str(ROOT / "src"),
            HOME=str(work),
            TMPDIR=str(work),
            PYTHONHASHSEED="0",
        )
        return env

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark run budget exhausted")
        return left

    def child(self, mode: str, extra: list[str], trace: int = 0) -> dict:
        """Run ``child.py`` in a fresh interpreter; returns its result."""
        work = self.fresh_dir(mode)
        out = work / "result.json"
        argv = [sys.executable, str(HERE / "child.py"), mode,
                "--seed", str(self.args.seed), "--trace", str(trace),
                "--work", str(work), "--out", str(out), *extra]
        spawned = time.monotonic()
        completed = subprocess.run(
            argv, env=self.env(work), cwd=ROOT, capture_output=True,
            text=True, timeout=self.remaining(),
        )
        if completed.returncode != 0:
            raise ChildFailed(
                f"exited {completed.returncode}:\n"
                f"{completed.stdout[-2000:]}{completed.stderr[-4000:]}"
            )
        doc = json.loads(out.read_text())
        if "ready" in doc:
            doc["setup_s"] = doc["ready"] - spawned
        doc["work"] = str(work)
        doc["out"] = str(out)
        return doc

    def check_trace(self, path: str, work: str) -> bool:
        """``repro inspect --check`` on the program's exported trace."""
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "inspect", path, "--check"],
            env=self.env(Path(work)), cwd=ROOT, capture_output=True,
            text=True, timeout=self.remaining(),
        )
        return completed.returncode == 0


# ----------------------------------------------------------------------
# Fig. 7 workloads


def load_expected() -> dict:
    return json.loads((HERE / "fingerprints.json").read_text())["workloads"]


def check_sweep(run: Run, sweep: dict) -> tuple[int, list[str]]:
    """(failed runs, failed checks) of one sweep."""
    workload, seed = run.args.workload, run.args.seed
    problems = []
    failed = 0
    if seed == DEFAULT_SEED:
        expected = load_expected()[workload]
        runs = sweep["runs"]
        wrong = sorted(label for label in set(expected) | set(runs)
                       if expected.get(label) != runs.get(label))
        if wrong:
            problems.append(f"sim fingerprint differs: {wrong}")
            failed += len(wrong)
    rules = SHAPE_RULES + (
        ("demotion roughly neutral", DEMOTION_RULES[workload]),)
    broken = [name for name, rule in rules if not rule(sweep["geomeans"])]
    if broken:
        problems.append(f"Fig. 7 shape: {broken}")
        failed += len(sweep["runs"])
    if workload == "fig7-observed" and not run.check_trace(
            sweep["trace_path"], sweep["work"]):
        problems.append("exported trace fails repro inspect --check")
        failed += len(sweep["runs"])
    return failed, problems


def run_fig7(run: Run) -> dict:
    extra, nominal = FIG7[run.args.workload]
    runs_per_sweep = len(extra[1].split(",")) * len(CONFIGS)
    trace = run.args.trace
    attempted, failed, problems = 0, 0, []

    def child(mode: str, ops: int, sweep: dict | None = None, **kwargs):
        """One child; a child that fails counts its ``ops`` as failed. A
        resume child resumes the committed ``sweep`` ``ops`` times."""
        nonlocal attempted, failed
        args = list(extra)
        if mode == "resume":
            args += ["--sweep", sweep["out"], "--resumes", str(ops)]
        attempted += ops
        try:
            doc = run.child(mode, args, **kwargs)
        except (ChildFailed, subprocess.TimeoutExpired, TimeoutError) as error:
            failed += ops
            problems.append(f"{mode} child failed: {str(error)[-2000:]}")
            return None
        if mode == "sweep":
            found, messages = check_sweep(run, doc)
            failed += found
            problems.extend(messages)
        elif doc.get("bad_resumes"):
            problems.append("a journaled resume missed a run or changed "
                            "a result")
            failed += doc["bad_resumes"]
        return doc

    if trace:
        # an untraced sweep first: the overhead base
        sweeps = [child("sweep", runs_per_sweep)]
        traced = child("sweep", runs_per_sweep, trace=1)
        hits = ([child("resume", HIT_SAMPLES, traced, trace=1)]
                if traced else [])
        setups = [s["setup_s"] for s in sweeps if s]
    else:
        reps = max(MIN_SWEEPS, round(run.args.seconds / nominal))
        # the resume and set-up children are spread evenly between the
        # sweeps, so that every kind of repetition meets the whole run
        extras = ["resume"] * HIT_PROCS
        for index in range(max(0, SETUP_SAMPLES - reps)):
            extras.insert(index * 2 + 1, "setup")
        sweeps, hits, setups = [], [], []
        for index in range(reps):
            sweeps.append(child("sweep", runs_per_sweep))
            for slot, mode in enumerate(extras):
                if slot * reps // len(extras) != index:
                    continue
                if mode == "setup":
                    doc = child("setup", 1)
                    if doc is not None:
                        setups.append(doc["setup_s"])
                elif sweeps[0] is not None:
                    hits.append(child("resume", HIT_SAMPLES, sweeps[0]))
        setups += [s["setup_s"] for s in sweeps if s]
    hits = [h for h in hits if h is not None]
    sweeps = [s for s in sweeps if s is not None]

    # every job at its median over the sweeps, plus the sweeps' median
    # remainder (fan-out, render, the observed trace export)
    labels = list(sweeps[0]["job_s"]) if sweeps else []
    jobs_ms = [1e3 * median([scaled(s["job_s"][label], s["job_ref"][label])
                             for s in sweeps])
               for label in labels]
    wall = sum(jobs_ms) / 1e3 + median(
        [scaled(s["wall_s"] - sum(s["job_s"].values()), median(s["refs"]))
         for s in sweeps])
    hits_ms = [[1e3 * scaled(t, ref)
                for t, ref in zip(h["hit_s"], h["hit_ref"])] for h in hits]
    accesses = median(
        [sum(r["accesses"] for r in s["runs"].values()) for s in sweeps])
    # set-up samples are too short to bracket: they take the run's
    # median reference time
    run_ref = median([t for s in sweeps for t in s["refs"]]
                     + [t for h in hits for t in h["hit_ref"]])
    result = {
        "attempted": attempted, "failed": failed, "problems": problems,
        "end_to_end": {
            "setup_s": scaled(median(setups), run_ref) if setups else 0.0,
            "wall_s": wall,
            "accesses_per_s": accesses / wall if wall else 0.0,
            "peak_rss_mb": median([s["maxrss_kb"] for s in sweeps]) / 1024.0,
            "jobs_per_s": len(labels) / wall if wall else 0.0,
            "job_p50_ms": percentile(jobs_ms, 0.5),
            "job_tail_ms": percentile(jobs_ms, tail_q(len(jobs_ms))),
            "hit_p50_ms": over_reps(hits_ms, 0.5),
            "hit_tail_ms": over_reps(hits_ms),
        },
        "samples": samples(setups, jobs_ms, hits_ms[0] if hits_ms else []),
        "repetitions": {
            "reference_ms": [median(s["refs"]) for s in sweeps],
            "sweep_wall_s": [s["wall_s"] for s in sweeps],
            "hit_tail_ms": [percentile(h, tail_q(len(h))) for h in hits_ms],
        },
        "rendered": sweeps[0]["rendered"] if sweeps else "",
    }
    if trace and traced is not None:
        layers = dict(traced["layers"])
        if hits:
            layers["hits"] = hits[0]["layers"].get("hits", {})
        # single-threaded: the wall phase's self times tile its span
        wall_self = sum(v[2] for v in layers["wall"].values())
        per_layer = layer_metrics(merge_phases(layers))
        per_layer.update(engine_metrics(traced["engine"]))
        per_layer.update(sim_metrics(traced["runs"].values()))
        per_layer.update({
            "trace.wall_s": traced["wall_s"],
            "trace.layers_self_s": wall_self,
            "trace.untimed_s": traced["wall_s"] - wall_self,
            "trace.overhead_pct": (
                100.0 * (traced["wall_s"] / sweeps[0]["wall_s"] - 1.0)
                if sweeps else 0.0),
        })
        result["per_layer"] = per_layer
        result["samples"] = samples(setups, traced["job_s"],
                                    hits_ms[0] if hits_ms else [])
    return result


def over_reps(reps: list[list[float]], q: float | None = None) -> float:
    """Median over repetitions of one latency percentile (``None``: the
    tail percentile a repetition's sample count supports)."""
    return median([percentile(v, tail_q(len(v)) if q is None else q)
                   for v in reps])


def scaled(value: float, ref_ms: float) -> float:
    """A timing taken while the reference kernel took ``ref_ms``, scaled
    to the host speed at which it takes ``REFERENCE_MS``."""
    return value * REFERENCE_MS / ref_ms


def samples(setups, jobs_ms, hits_ms) -> dict:
    """Sample counts (of one repetition, for the latencies), and the
    percentile each ``*_tail_ms`` reports."""
    return {"setup": len(setups), "jobs": len(jobs_ms),
            "hits": len(hits_ms),
            "job_tail_q": tail_q(len(jobs_ms)),
            "hit_tail_q": tail_q(len(hits_ms))}


def merge_phases(layers: dict) -> dict:
    totals: dict[str, list] = {}
    for phase in layers.values():
        for name, values in phase.items():
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                entry[i] += values[i]
    return totals


def layer_metrics(totals: dict) -> dict:
    return {
        metric: float(totals.get(layer, [0, 0.0, 0.0])[field])
        for metric, (layer, field) in LAYER_METRICS.items()
    }


def engine_metrics(counters: dict) -> dict:
    out = {metric: float(counters[name])
           for metric, name in ENGINE_METRICS.items()}
    retired = counters["columnar_l2_retired"]
    walked = counters["columnar_live_walked"]
    out["engine.l2_retired_ratio"] = (
        retired / (retired + walked) if retired + walked else 0.0)
    return out


def sim_metrics(fingerprints) -> dict:
    fingerprints = list(fingerprints)
    return {f"sim.{field}": float(sum(f[field] for f in fingerprints))
            for field in SIM_FIELDS}


# ----------------------------------------------------------------------
# serve-mixed


def run_serve(run: Run) -> dict:
    import serving

    # the client and every server share one CPU: each request hands off
    # between them several times, and a hand-off to the other CPU waits
    # for it to wake, which on a shared host takes longer the busier the
    # host is; on one CPU the hand-off is a plain context switch
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    rounds = max(SERVE_MIN_ROUNDS, round(
        run.args.seconds / SERVE_ROUND_S / SERVE_SERVERS))
    setups = []

    def start(trace: int) -> tuple:
        # every server journals each job to disk; start each one with
        # nothing left for the disk to write back or discard from the
        # servers (and runs) before it
        os.sync()
        work = run.fresh_dir("serve")
        serve_argv = ["serve", "--port", "0", "--state-dir",
                      str(work / "state"), "--executors",
                      str(serving.EXECUTORS)]
        out = work / "result.json"
        if trace:
            argv = [sys.executable, str(HERE / "child.py"), "serve",
                    "--trace", "1", "--work", str(work), "--out",
                    str(out), "--", *serve_argv]
        else:
            argv = [sys.executable, "-m", "repro", *serve_argv]
        server = serving.Server(argv, run.env(work), str(ROOT))
        try:
            setups.append(server.wait_ready(run.remaining()))
        except BaseException:
            server.kill()
            raise
        return server, out

    def measure(trace: int, first_round: int) -> tuple:
        server, out = start(trace)
        try:
            outcome = serving.run_rounds(server, run.args.seed, first_round,
                                         rounds)
            outcome["maxrss_kb"] = server.stop(run.remaining())
        finally:
            server.kill()
        return outcome, out

    traced = None
    if run.args.trace:
        parts = [measure(0, 0)[0]]
        traced, traced_out = measure(1, 0)
    else:
        parts = [measure(0, index * rounds)[0]
                 for index in range(SERVE_SERVERS)]
    outcome = serving.merge(parts)

    def latencies(rounds: list, kind: str) -> list[float]:
        return [scaled(r["latency_ms"], r["ref"]) for rnd in rounds
                for r in rnd[kind] if "latency_ms" in r]

    def span(chunks) -> float:
        return sum(scaled(seconds, ref) for seconds, ref in chunks)

    jobs = [latencies([rnd], "computed") for rnd in outcome["rounds"]]
    hits = [latencies([rnd], "hits") for rnd in outcome["rounds"]]

    def throughput(part: dict) -> tuple[float, float]:
        computed = [r for rnd in part["rounds"] for r in rnd["computed"]]
        distinct_s = sum(span(rnd["distinct_chunks"])
                         for rnd in part["rounds"])
        accesses = sum(r["envelope"]["result"][0]["accesses"]
                       for r in computed if serving.ok(r))
        return len(computed) / distinct_s, accesses / distinct_s

    run_ref = median([ref for rnd in outcome["rounds"]
                      for _, ref in rnd["chunks"]])
    result = {
        "attempted": outcome["attempted"] + (traced or {}).get("attempted", 0),
        "failed": outcome["failed"] + (traced or {}).get("failed", 0),
        "problems": outcome["checks"] + (traced or {}).get("checks", []),
        "end_to_end": {
            "setup_s": scaled(median(setups), run_ref),
            "wall_s": median([span(rnd["chunks"])
                              for rnd in outcome["rounds"]]),
            "accesses_per_s": median([throughput(p)[1] for p in parts]),
            "peak_rss_mb": outcome["maxrss_kb"] / 1024.0,
            "jobs_per_s": median([throughput(p)[0] for p in parts]),
            "job_p50_ms": over_reps(jobs, 0.5),
            "job_tail_ms": over_reps(jobs),
            "hit_p50_ms": over_reps(hits, 0.5),
            "hit_tail_ms": over_reps(hits),
        },
        # the counts are one round's
        "samples": samples(setups, jobs[0], hits[0]),
        "repetitions": {
            "reference_ms": [median([ref for _, ref in rnd["chunks"]])
                             for rnd in outcome["rounds"]],
            "round_wall_s": [rnd["wall_s"] for rnd in outcome["rounds"]],
            "job_tail_ms": [percentile(v, tail_q(len(v))) for v in jobs],
            "hit_tail_ms": [percentile(v, tail_q(len(v))) for v in hits],
        },
    }
    if traced is not None:
        result["per_layer"] = serve_layers(outcome, traced, traced_out)
    return result


def serve_layers(untraced: dict, traced: dict, traced_out: Path) -> dict:
    """Layer times from the traced server; the service's own numbers
    (read by the client and from ``/metrics``) from the untraced one."""
    import serving

    per_layer = layer_metrics(merge_phases(
        json.loads(traced_out.read_text())["layers"]))
    rounds = untraced["rounds"]
    computed = [r for rnd in rounds for r in rnd["computed"] if serving.ok(r)]
    hits = [r for rnd in rounds for r in rnd["hits"] if serving.ok(r)]

    def server_ms(record):
        job = record["envelope"]["job"]
        return job["finished_ms"] - job["submitted_ms"]

    traced_wall = statistics.median(rnd["wall_s"] for rnd in traced["rounds"])
    untraced_wall = statistics.median(rnd["wall_s"] for rnd in rounds)
    per_layer.update(engine_metrics(untraced["engine"]))
    per_layer.update(sim_metrics(r["envelope"]["result"][0] for r in computed))
    per_layer.update({
        "serve.submit_ms": percentile(
            [r["submit_ms"] for r in computed + hits], 0.5),
        "serve.server_job_ms": percentile(
            [server_ms(r) for r in computed], 0.5),
        "serve.server_hit_ms": percentile([server_ms(r) for r in hits], 0.5),
        "serve.journal_commits_per_job": sum(
            rnd["commits"] for rnd in rounds) / len(computed),
        "serve.tasks_resumed": float(sum(rnd["resumed"] for rnd in rounds)),
        "trace.wall_s": traced_wall,
        "trace.overhead_pct": 100.0 * (traced_wall / untraced_wall - 1.0),
    })
    return per_layer


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Fig. 7 sweep and simulation-service benchmark")
    parser.add_argument("--workload", required=True,
                        choices=(*FIG7, SERVE))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: the program's sources (src/repro) are missing",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    run = Run(args)
    try:
        result = run_serve(run) if args.workload == SERVE else run_fig7(run)
    finally:
        run.tidy()

    facts = host_facts()
    print(f"host: {json.dumps(facts)}")
    print(f"samples: {json.dumps(result['samples'])}")
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    if result.get("rendered"):
        print(result["rendered"])
    if args.trace:
        values = dict(result.get("per_layer", {}))
        values.update({f"samples.{k}": float(v)
                       for k, v in result["samples"].items()})
        wanted = declared["per_layer"]
    else:
        values = result["end_to_end"]
        wanted = declared["end_to_end"]
    unknown = set(values) - {m["name"] for m in wanted}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    report = {
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in wanted
        },
    }
    (run.dir / "report.json").write_text(json.dumps(
        dict(report, host=facts, samples=result["samples"],
             repetitions=result["repetitions"],
             problems=result["problems"]), indent=1))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
