"""Per-layer timing wrappers installed from outside the program.

The benchmark measures each layer by wrapping the public function that
enters it: the wrapper counts calls and accumulates total and self
time (total minus the time of wrapped calls made beneath it). Nothing
inside ``src/`` is edited; wrappers replace module or class attributes
before the program builds the objects that look them up.

Records are aggregated in memory per (phase, run id, parent layer,
layer) and written out once, when the run ends. A run id names one
simulation run (``execute_spec``) or one serve job (``execute_job``);
the phase (set-up, measured sweep, journal-hit pass) is set by the
benchmark as it goes.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time

#: (layer name, module, class or None, attribute). A module-level
#: function is patched in every module that imported it by name.
LAYERS = (
    ("workloads.build", "repro.experiments.common", None, "build_workload"),
    ("experiments.run_spec", "repro.experiments.common", None, "execute_spec"),
    ("serve.execute_job", "repro.serve.server", None, "execute_job"),
    ("resilience.journal_load", "repro.resilience.journal", "RunJournal", "load"),
    ("resilience.journal_commit", "repro.resilience.journal", "RunJournal",
     "commit"),
    ("engine.machine_run", "repro.engine.machine", "Machine", "run"),
    ("engine.stream_encode", "repro.engine.columnar", "ColumnarStream",
     "from_trace"),
    ("engine.run_epoch", "repro.engine.machine", "TranslationPipeline",
     "run_epoch"),
    ("engine.run_quantum", "repro.engine.machine", "TranslationPipeline",
     "run_quantum"),
    ("engine.classify", "repro.engine.machine", None, "classify_lru_hits"),
    ("engine.classify", "repro.engine.residue", None, "classify_lru_hits"),
    ("engine.page_table_pass", "repro.engine.residue", None, "page_table_pass"),
    ("engine.plan_walks", "repro.engine.residue", None, "plan_walks"),
    ("engine.apply_walk_plan", "repro.engine.residue", None, "apply_walk_plan"),
    ("core.pcc_access", "repro.core.pcc", "PromotionCandidateCache", "access"),
    ("core.pcc_access_many", "repro.core.pcc", "PromotionCandidateCache",
     "access_many"),
    ("os.handle_fault", "repro.os.kernel", "SimulatedKernel", "handle_fault"),
    ("os.handle_faults_bulk", "repro.os.kernel", "SimulatedKernel",
     "handle_faults_bulk"),
    ("os.promotion_tick", "repro.os.kernel", "SimulatedKernel",
     "promotion_tick"),
    ("os.allocate_huge", "repro.os.physmem", "PhysicalMemory", "allocate_huge"),
    ("vm.is_mapped", "repro.vm.pagetable", "PageTable", "is_mapped"),
    ("tlb.shootdown", "repro.engine.cpu", "Core", "shootdown"),
    ("obs.note_walk", "repro.obs.observer", "RunObserver", "note_walk"),
    ("obs.finalize", "repro.obs.tracer", "SpanTracer", "finalize"),
)

#: Layers whose call opens a new run id (the argument names the run).
RUN_ROOTS = {
    "experiments.run_spec": lambda spec: (
        f"{spec.app}/{spec.policy}{'+demote' if spec.demotion else ''}"
    ),
    "serve.execute_job": lambda job: job.id,
}


class Recorder:
    """Aggregated span records; one frame stack per thread."""

    def __init__(self) -> None:
        self.records: dict[tuple, list] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self.phase = "setup"

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.run = None
        return local

    def wrap(self, name: str, fn):
        """``fn`` timed as layer ``name``."""
        records = self.records
        state = self._state
        clock = time.perf_counter
        root = RUN_ROOTS.get(name)
        lock = self._lock

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            local = state()
            stack = local.stack
            outer_run = local.run
            if root is not None and outer_run is None:
                local.run = root(args[0])
            frame = [0.0, name]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = None
                if stack:
                    stack[-1][0] += elapsed
                    parent = stack[-1][1]
                key = (self.phase, local.run, parent, name)
                local.run = outer_run
                # a run id lives on one thread at a time, so only the
                # insertion of a new key can race (serve's executors)
                entry = records.get(key)
                if entry is None:
                    with lock:
                        entry = records.setdefault(key, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]

        return timed

    def by_phase(self) -> dict[str, dict[str, list]]:
        """``phase -> layer -> [calls, total_s, self_s]``, summed over
        runs and parents."""
        out: dict[str, dict[str, list]] = {}
        for (phase, _run, _parent, name), values in list(
                self.records.items()):
            entry = out.setdefault(phase, {}).setdefault(name, [0, 0.0, 0.0])
            for i, value in enumerate(values):
                entry[i] += value
        return out

    def dump(self, path: str) -> None:
        """Write every record as JSON (the run's span export)."""
        rows = [
            {"phase": phase, "run": run, "parent": parent, "layer": name,
             "calls": calls, "total_s": total, "self_s": own}
            for (phase, run, parent, name), (calls, total, own)
            in sorted(self.records.items(), key=lambda kv: str(kv[0]))
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"records": rows}, handle)


def install(recorder: Recorder) -> None:
    """Replace every layer's entry point with a timed wrapper."""
    for name, module_name, owner, attr in LAYERS:
        module = importlib.import_module(module_name)
        target = getattr(module, owner) if owner else module
        raw = target.__dict__[attr] if owner else getattr(target, attr)
        if isinstance(raw, classmethod):
            setattr(target, attr,
                    classmethod(recorder.wrap(name, raw.__func__)))
        else:
            setattr(target, attr, recorder.wrap(name, raw))
