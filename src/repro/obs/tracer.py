"""Hierarchical span tracing with Chrome trace-event export.

The tracer is process-global and **off by default**: :func:`enable`
installs a :class:`SpanTracer`, and until then every module-level hook
(:func:`span`, :func:`traced`) short-circuits on a single ``is None``
check. Instrumented code therefore never pays for tracing it is not
doing; hot loops additionally keep their own ``obs is not None`` guard
so they skip even the generator construction.

Spans use ``time.perf_counter_ns`` (CLOCK_MONOTONIC on Linux, so
timestamps are comparable across processes on one host) relative to a
shared epoch, and are emitted as Chrome trace-event ``"X"`` complete
events — the JSON that Perfetto and ``chrome://tracing`` load directly.

Cross-process story (``fan_out`` workers):

- the parent :func:`enable` exports ``REPRO_TRACE_SPOOL`` (shard
  directory — its presence is the "tracing is on" signal for workers),
  ``REPRO_TRACE_EPOCH`` (shared time origin) and ``REPRO_TRACE_OWNER``
  (parent pid) before the pool spawns;
- each worker's initializer calls :func:`worker_setup`, which builds a
  fresh tracer against the shared epoch (and defuses a tracer object
  inherited through ``fork`` so parent events are never re-reported);
- after every task the worker ships its accumulated events to the
  spool as an atomically renamed shard file keyed by run id and pid;
- the parent's :meth:`SpanTracer.finalize` merges its own events with
  every shard of the same run id, sorts them deterministically by
  ``(ts, pid, tid, name)`` and writes one trace file.

Span identity: each span gets an id ``"<pid>:<seq>"`` unique across
processes; ids and parent links ride in the event ``args`` (the Chrome
format has no native span ids) so ``repro inspect`` and the structured
log can reconstruct the hierarchy. Parent linkage crosses the process
boundary via the task's pickled ``trace_parent`` attribute plus a
``"s"``/``"f"`` flow-event pair that draws the arrow in Perfetto.

The pipeline is single-threaded per process, so the open-span stack is
a plain list; lanes within a process are modelled with explicit ``tid``
values instead (lane 1 = machine/OS phases, lane ``10 + core_id`` =
per-core quanta and epochs).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from functools import wraps
from pathlib import Path

from repro.obs.runid import current_run_id, set_run_id

#: Schema tag stamped into exported trace files (``otherData.schema``).
TRACE_SCHEMA = "repro.trace/v1"

#: Shard directory for worker span shards; presence enables worker tracing.
SPOOL_ENV = "REPRO_TRACE_SPOOL"
#: Shared ``perf_counter_ns`` origin so worker timestamps line up.
EPOCH_ENV = "REPRO_TRACE_EPOCH"
#: Pid of the process that owns the trace (writes the final file).
OWNER_ENV = "REPRO_TRACE_OWNER"

#: Default lane for machine phases, OS ticks, and experiment spans.
MAIN_TID = 1
#: Per-core scheduling lanes start here: lane = CORE_TID_BASE + core_id.
CORE_TID_BASE = 10


def thread_lane_name(tid: int) -> str:
    """Human name for a ``tid`` lane, by convention rather than registry."""
    if tid == MAIN_TID:
        return "main"
    if tid >= CORE_TID_BASE:
        return f"core-{tid - CORE_TID_BASE}"
    return f"lane-{tid}"


class SpanTracer:
    """Collects trace events for one process of one observed run."""

    def __init__(
        self,
        run_id: str | None = None,
        epoch_ns: int | None = None,
        spool_dir: str | os.PathLike | None = None,
    ) -> None:
        self.run_id = run_id or current_run_id()
        self.epoch_ns = int(epoch_ns) if epoch_ns is not None else time.perf_counter_ns()
        self.spool_dir = Path(spool_dir) if spool_dir is not None else None
        self.pid = os.getpid()
        self.events: list[dict] = []
        self._stack: list[str] = []
        self._seq = 0
        self._shard = 0

    # ------------------------------------------------------------------
    # identity / clock

    def next_id(self) -> str:
        """Fresh span/flow id, unique across every process of the run."""
        self._seq += 1
        return f"{self.pid}:{self._seq}"

    def current_span_id(self) -> str | None:
        """Id of the innermost open span, or ``None`` outside any span."""
        return self._stack[-1] if self._stack else None

    def _now_us(self) -> float:
        return (time.perf_counter_ns() - self.epoch_ns) / 1000.0

    # ------------------------------------------------------------------
    # emitting

    @contextmanager
    def span(self, name: str, cat: str = "repro", tid: int = MAIN_TID, **args):
        """Time a block as one ``"X"`` complete event; exception-safe.

        ``args`` become the event's ``args`` (values must be JSON-safe).
        A reserved ``parent=`` argument links to an explicit parent span
        id — used by worker task spans, whose real parent lives in the
        parent process — but an enclosing local span always wins.
        An exception propagates unchanged; the span still closes, tagged
        with ``args.error`` naming the exception type.
        """
        explicit_parent = args.pop("parent", None)
        parent = self._stack[-1] if self._stack else explicit_parent
        span_id = self.next_id()
        self._stack.append(span_id)
        error = None
        start = time.perf_counter_ns()
        try:
            yield span_id
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            event_args = {"span": span_id}
            if parent is not None:
                event_args["parent"] = parent
            if error is not None:
                event_args["error"] = error
            event_args.update(args)
            self.events.append(
                {
                    "ph": "X",
                    "name": name,
                    "cat": cat,
                    "ts": round((start - self.epoch_ns) / 1000.0, 3),
                    "dur": round((end - start) / 1000.0, 3),
                    "pid": self.pid,
                    "tid": tid,
                    "args": event_args,
                }
            )

    def instant(self, name: str, cat: str = "repro", tid: int = MAIN_TID, **args) -> None:
        """Emit a zero-duration ``"i"`` instant event (thread scope)."""
        self.events.append(
            {
                "ph": "i",
                "s": "t",
                "name": name,
                "cat": cat,
                "ts": round(self._now_us(), 3),
                "pid": self.pid,
                "tid": tid,
                "args": args,
            }
        )

    def flow_start(self, flow_id: str, name: str = "task", cat: str = "fanout",
                   tid: int = MAIN_TID) -> None:
        """Open a flow arrow (``"s"``) — pair with :meth:`flow_end`."""
        self.events.append(
            {
                "ph": "s",
                "id": flow_id,
                "name": name,
                "cat": cat,
                "ts": round(self._now_us(), 3),
                "pid": self.pid,
                "tid": tid,
            }
        )

    def flow_end(self, flow_id: str, name: str = "task", cat: str = "fanout",
                 tid: int = MAIN_TID) -> None:
        """Close a flow arrow (``"f"``, binding to the enclosing slice)."""
        self.events.append(
            {
                "ph": "f",
                "bp": "e",
                "id": flow_id,
                "name": name,
                "cat": cat,
                "ts": round(self._now_us(), 3),
                "pid": self.pid,
                "tid": tid,
            }
        )

    # ------------------------------------------------------------------
    # cross-process shards

    def ship_shard(self) -> Path | None:
        """Spool accumulated events to a shard file and clear the buffer.

        Called by workers after each task. Atomic rename, shard name
        keyed by ``(run_id, pid, sequence)`` so concurrent workers never
        collide and the parent can glob one run's shards.
        """
        if self.spool_dir is None or not self.events:
            return None
        self._shard += 1
        path = self.spool_dir / f"shard-{self.run_id}-{self.pid}-{self._shard:04d}.json"
        tmp = self.spool_dir / (path.name + ".tmp")
        tmp.write_text(json.dumps(self.events))
        os.replace(tmp, path)
        self.events = []
        return path

    def collect_shards(self) -> list[dict]:
        """Read every spooled shard of this run id (unreadable ones skipped)."""
        if self.spool_dir is None:
            return []
        events: list[dict] = []
        for path in sorted(self.spool_dir.glob(f"shard-{self.run_id}-*.json")):
            try:
                events.extend(json.loads(path.read_text()))
            except (OSError, json.JSONDecodeError, ValueError):
                continue
        return events

    # ------------------------------------------------------------------
    # export

    def export(self) -> dict:
        """Merged, deterministically ordered Chrome trace-event document."""
        events = list(self.events) + self.collect_shards()
        events.sort(
            key=lambda e: (e.get("ts", 0.0), e.get("pid", 0), e.get("tid", 0), e.get("name", ""))
        )
        lanes = {(e.get("pid", self.pid), e.get("tid", MAIN_TID)) for e in events}
        metadata: list[dict] = []
        for pid in sorted({pid for pid, _tid in lanes}):
            label = "repro" if pid == self.pid else f"worker-{pid}"
            metadata.append(
                {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                 "args": {"name": label}}
            )
        for pid, tid in sorted(lanes):
            metadata.append(
                {"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                 "args": {"name": thread_lane_name(tid)}}
            )
        return {
            "traceEvents": metadata + events,
            "displayTimeUnit": "ms",
            "otherData": {"schema": TRACE_SCHEMA, "run_id": self.run_id},
        }

    def finalize(self, path: str | os.PathLike) -> dict:
        """Write the merged trace document to ``path`` and return it."""
        doc = self.export()
        out = Path(path)
        if out.parent != Path(""):
            out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
        return doc


# ----------------------------------------------------------------------
# process-global switch

_ACTIVE: SpanTracer | None = None


def active_tracer() -> SpanTracer | None:
    """The process's installed tracer, or ``None`` when tracing is off."""
    return _ACTIVE


def tracing_enabled() -> bool:
    """Whether a tracer is installed in this process."""
    return _ACTIVE is not None


def enable(run_id: str | None = None,
           spool_dir: str | os.PathLike | None = None) -> SpanTracer:
    """Install a tracer as this run's owner and export the worker env.

    Pins the run id (``REPRO_RUN_ID``), publishes the shared epoch and
    owner pid, and — when ``spool_dir`` is given — creates the shard
    spool and advertises it so fan-out workers trace themselves too.
    """
    global _ACTIVE
    run_id = set_run_id(run_id)
    epoch = os.environ.get(EPOCH_ENV)
    tracer = SpanTracer(
        run_id=run_id,
        epoch_ns=int(epoch) if epoch else None,
        spool_dir=spool_dir,
    )
    os.environ[EPOCH_ENV] = str(tracer.epoch_ns)
    os.environ[OWNER_ENV] = str(tracer.pid)
    if tracer.spool_dir is not None:
        tracer.spool_dir.mkdir(parents=True, exist_ok=True)
        os.environ[SPOOL_ENV] = str(tracer.spool_dir)
    _ACTIVE = tracer
    return tracer


def disable() -> SpanTracer | None:
    """Uninstall the tracer; the owning process also retracts the env."""
    global _ACTIVE
    tracer, _ACTIVE = _ACTIVE, None
    if tracer is not None and tracer.pid == os.getpid():
        for env in (SPOOL_ENV, EPOCH_ENV, OWNER_ENV):
            os.environ.pop(env, None)
    return tracer


def worker_setup() -> SpanTracer | None:
    """Initialise tracing inside a fan-out worker process.

    With no spool advertised, tracing stays off — but a tracer object
    inherited through ``fork`` is defused so the child can never
    re-report (or mutate) the parent's event buffer. With a spool, the
    worker gets a fresh tracer on the shared epoch; the run id arrives
    via ``REPRO_RUN_ID``.
    """
    global _ACTIVE
    if _ACTIVE is not None and _ACTIVE.pid != os.getpid():
        _ACTIVE = None
    spool = os.environ.get(SPOOL_ENV)
    if not spool:
        return None
    owner = os.environ.get(OWNER_ENV)
    if owner and owner.isdigit() and int(owner) == os.getpid():
        return _ACTIVE
    epoch = os.environ.get(EPOCH_ENV)
    tracer = SpanTracer(epoch_ns=int(epoch) if epoch else None, spool_dir=spool)
    _ACTIVE = tracer
    return tracer


# ----------------------------------------------------------------------
# module-level instrumentation API

@contextmanager
def span(name: str, cat: str = "repro", tid: int = MAIN_TID, **args):
    """Trace a block against the active tracer; no-op when tracing is off."""
    tracer = _ACTIVE
    if tracer is None:
        yield None
        return
    with tracer.span(name, cat=cat, tid=tid, **args) as span_id:
        yield span_id


def traced(name=None, cat: str = "repro"):
    """Decorator form of :func:`span`; usable bare or with arguments.

    The enabled/disabled decision happens at call time, so decorated
    functions respond to :func:`enable`/:func:`disable` dynamically.
    """

    def decorate(fn):
        label = name if isinstance(name, str) else fn.__qualname__

        @wraps(fn)
        def wrapper(*fn_args, **fn_kwargs):
            tracer = _ACTIVE
            if tracer is None:
                return fn(*fn_args, **fn_kwargs)
            with tracer.span(label, cat=cat):
                return fn(*fn_args, **fn_kwargs)

        return wrapper

    if callable(name):
        return decorate(name)
    return decorate


def current_span_id() -> str | None:
    """Innermost open span id in this process, or ``None``."""
    tracer = _ACTIVE
    return tracer.current_span_id() if tracer is not None else None
