"""One benchmark process, started in a fresh interpreter by ``run.py``.

Modes:

``setup``   import the program and build the sweep's workloads, then
            report when it was ready (the set-up time sample).
``sweep``   set up, then run one Fig. 7 sweep (plus render, and for the
            observed workload the program's own span tracer and trace
            export), report timings and simulated stats, and commit
            every result to a results journal (untimed).
``resume``  import the program and time ``--resumes`` fully journaled
            resumes of the committed ``--sweep``, as a
            ``repro fig7 --resume`` process makes after a complete sweep
            (the journal-hit samples).

Between its timed pieces of work (each simulation run of a sweep, each
block of resumes) a process times the reference kernel of
:func:`reference_ms`, so that ``run.py`` can scale every timing to one
host speed.
``serve``   run the ``repro`` command line given after ``--`` (the
            serve daemon, with ``--trace 1``) and report the layer
            records when it exits.

With ``--trace 1`` the layer timers of :mod:`layers` are installed
before anything runs and their records come back with the result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

#: Fig. 7 quick scale (``repro --scale quick fig7``).
GRAPH_SCALE = 13
PROXY_ACCESSES = 250_000
FRAGMENTATION = 0.9

#: The five bars per app, in ``fig7.run`` order: (name, policy,
#: fragmented, demotion).
CONFIGS = (
    ("baseline", "none", False, False),
    ("hawkeye", "hawkeye", True, False),
    ("linux", "linux-thp", True, False),
    ("pcc", "pcc", True, False),
    ("pcc_demote", "pcc", True, True),
)

SIM_FIELDS = ("accesses", "walks", "l1_hits", "l2_hits", "promotions",
              "demotions", "total_cycles")

#: engine tier counters (summed over cores) read from each result
ENGINE_COUNTERS = ("columnar_epochs", "columnar_fallbacks",
                   "columnar_plru_fallbacks", "columnar_faults_batched",
                   "columnar_faults_scalar", "columnar_l2_retired",
                   "columnar_live_walked")


#: the reference kernel's time (ms) on the 2-CPU host the benchmark was
#: sized on, in its fast state
REFERENCE_MS = 5.0
#: resumes timed between two reference measurements
RESUME_BLOCK = 10


def reference_ms() -> float:
    """Median time (ms) of three runs of a fixed pure-Python kernel of
    dict and integer work.

    A shared host switches between a fast and a slow state, about 1.75x
    apart, for seconds to minutes at a time, and the kernel slows with
    the program: timings scaled by it measure the program, not the
    state the host happened to be in.
    """
    times = []
    for _ in range(3):
        begun = time.perf_counter()
        table, acc = {}, 0
        for i in range(30_000):
            key = (i * 2654435761) & 0xFFFF
            table[key] = table.get(key, 0) + i
            acc ^= key
        times.append((time.perf_counter() - begun) * 1e3)
    return sorted(times)[1]


def sweep_specs(apps, seed: int, tlb_replacement: str):
    """The ``fig7.run`` spec list, with ``seed`` as the graph seed."""
    from repro.experiments.common import RunSpec

    specs = []
    for app in apps:
        for _name, policy, fragmented, demotion in CONFIGS:
            specs.append(RunSpec(
                app=app, policy=policy, graph_scale=GRAPH_SCALE,
                proxy_accesses=PROXY_ACCESSES,
                fragmentation=FRAGMENTATION if fragmented else 0.0,
                demotion=demotion, seed=seed,
                tlb_replacement=tlb_replacement,
            ))
    return specs


def spec_label(spec) -> str:
    for name, policy, fragmented, demotion in CONFIGS:
        if (policy == spec.policy and demotion == spec.demotion
                and fragmented == (spec.fragmentation > 0)):
            return f"{spec.app}/{name}"
    raise ValueError(f"spec outside the sweep: {spec}")


def fingerprint(result) -> dict:
    return {field: int(getattr(result, field)) for field in SIM_FIELDS}


def engine_counters(results) -> dict:
    totals = dict.fromkeys(ENGINE_COUNTERS, 0)
    for result in results:
        for name, value in result.metrics.get("counters", {}).items():
            short = name.rpartition(".fastpath.")[2]
            if ".fastpath." in name and short in totals:
                totals[short] += int(value)
    return totals


def run_sweep(args, recorder) -> dict:
    import functools

    from repro.experiments import common, fig7
    from repro.resilience.journal import RunJournal

    specs = sweep_specs(args.apps.split(","), args.seed, args.tlb)
    #: seconds per run label (a retried run counts every attempt), and
    #: the reference time around it
    job_s = dict.fromkeys(map(spec_label, specs), 0.0)
    job_ref = {}
    refs = [reference_ms()]
    ref_s = 0.0
    untimed = common.execute_spec

    @functools.wraps(untimed)
    def timed_spec(spec):
        nonlocal ref_s
        begun = time.perf_counter()
        try:
            return untimed(spec)
        finally:
            ended = time.perf_counter()
            job_s[spec_label(spec)] += ended - begun
            refs.append(reference_ms())
            ref_s += time.perf_counter() - ended
            job_ref[spec_label(spec)] = (refs[-2] + refs[-1]) / 2

    common.execute_spec = timed_spec
    work = Path(args.work)
    trace_path = work / "program-trace.json"
    if recorder is not None:
        recorder.phase = "wall"
    begun = time.perf_counter()
    if args.observed:
        from repro.obs import tracer as tracer_module
        from repro.obs.runid import set_run_id

        spool = work / "trace-spool"
        spool.mkdir()
        tracer = tracer_module.enable(set_run_id(), spool_dir=str(spool))
    results = common.run_specs(specs, jobs=1)
    # fig7.run's rows and rendering (it takes no seed, so not called)
    rows = []
    for index in range(0, len(results), len(CONFIGS)):
        baseline, hawkeye, linux, pcc, pcc_demote = results[index:index + 5]
        rows.append(fig7.Fig7Row(
            app=specs[index].app,
            hawkeye=baseline.total_cycles / hawkeye.total_cycles,
            linux=baseline.total_cycles / linux.total_cycles,
            pcc=baseline.total_cycles / pcc.total_cycles,
            pcc_demote=baseline.total_cycles / pcc_demote.total_cycles,
        ))
    rendered = fig7.render(rows, fragmentation=FRAGMENTATION,
                           tlb_replacement=args.tlb)
    if args.observed:
        tracer.finalize(trace_path)
        tracer_module.disable()
    wall_s = time.perf_counter() - begun - ref_s
    common.execute_spec = untimed

    if recorder is not None:
        recorder.phase = "commit"
    journal = RunJournal(work / "journal")
    for spec, result in zip(specs, results):
        journal.commit(journal.key_for(common.execute_spec, spec), result)
    return {
        "wall_s": wall_s,
        "job_s": job_s,
        "job_ref": job_ref,
        "refs": refs,
        "journal": str(journal.directory),
        "runs": {spec_label(s): fingerprint(r) for s, r in zip(specs, results)},
        "geomeans": fig7.geomeans(rows),
        "rendered": rendered,
        "engine": engine_counters(results),
        "trace_path": str(trace_path) if args.observed else None,
    }


def time_resumes(args, recorder) -> dict:
    """Resume a committed sweep ``--resumes`` times, opening its journal
    afresh each time as a new ``repro fig7 --resume`` process would."""
    from repro.experiments import common
    from repro.resilience.journal import RunJournal

    sweep = json.loads(Path(args.sweep).read_text())
    specs = sweep_specs(args.apps.split(","), args.seed, args.tlb)
    runs = [sweep["runs"][spec_label(spec)] for spec in specs]
    if recorder is not None:
        recorder.phase = "hits"
    hit_s: list[float] = []
    hit_ref: list[float] = []
    bad_resumes = 0

    def resume() -> float:
        nonlocal bad_resumes
        journal = RunJournal(sweep["journal"])
        begun = time.perf_counter()
        loaded = common.run_specs(specs, jobs=1, resume=True, journal=journal)
        elapsed = time.perf_counter() - begun
        bad_resumes += (journal.stats.resumed != len(specs)
                        or [fingerprint(r) for r in loaded] != runs)
        return elapsed

    # one untimed resume first: it pays the resume path's one-time
    # imports (about 40 ms), which would otherwise sit in the tail
    resume()
    before = reference_ms()
    while len(hit_s) < args.resumes:
        block = [resume() for _ in range(
            min(RESUME_BLOCK, args.resumes - len(hit_s)))]
        after = reference_ms()
        hit_s += block
        hit_ref += [(before + after) / 2] * len(block)
        before = after
    return {"hit_s": hit_s, "hit_ref": hit_ref, "bad_resumes": bad_resumes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "sweep", "resume", "serve"))
    parser.add_argument("--apps", default="BFS,SSSP,PR")
    parser.add_argument("--tlb", default="lru")
    parser.add_argument("--observed", action="store_true")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--work", help="this process's working directory")
    parser.add_argument("--out", required=True, help="result JSON path")
    parser.add_argument("--sweep", help="resume: a committed sweep's result")
    parser.add_argument("--resumes", type=int, default=0,
                        help="resume: journaled resumes of --sweep to time")
    argv = list(sys.argv[1:] if argv is None else argv)
    # everything after "--" is the program's own command line (serve)
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    rest = argv[split + 1:]

    recorder = None
    if args.trace:
        from layers import Recorder, install

        recorder = Recorder()
        install(recorder)
    if args.mode == "serve":
        from repro.cli import main as repro_main

        if recorder is not None:
            recorder.phase = "serve"
        doc = {"status": repro_main(rest)}
    elif args.mode == "resume":
        doc = time_resumes(args, recorder)
    else:
        from repro.experiments.common import build_named_workload

        for app in args.apps.split(","):
            build_named_workload(app, graph_scale=GRAPH_SCALE,
                                 proxy_accesses=PROXY_ACCESSES,
                                 seed=args.seed)
        doc = {"ready": time.monotonic()}
        if args.mode == "sweep":
            doc.update(run_sweep(args, recorder))
    doc["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder is not None:
        doc["layers"] = recorder.by_phase()
        recorder.dump(os.path.join(args.work, "layer-records.json"))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return doc.get("status", 0)


if __name__ == "__main__":
    sys.exit(main())
