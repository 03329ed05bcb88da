"""Live job-progress reporting (``repro.progress/v1``).

The streaming counterpart of :mod:`repro.obs.tracer`: where the tracer
records *what happened* for post-hoc inspection, the progress reporter
answers *how far along is this run, right now* — accesses retired,
epochs, OS ticks, promotions, the engine tier currently executing, and
an ETA derived from a throughput EWMA.

Like every ``repro.obs`` facility it is **off by default and free when
disabled**: :func:`progress_for_run` returns ``None`` unless a sink is
installed, and the engine's hot loop guards on ``prog is not None``
plus a single :meth:`ProgressReporter.due` clock check per scheduler
round. Progress is *independent* of the
:class:`~repro.obs.observer.RunObserver` path: it only reads counters
at round boundaries, so a progress-reported run executes the same
tiers and reports bit-identical statistics (as does an observed run).

Three delivery paths compose freely:

- **thread-scoped sinks** (:func:`progress_scope`): the serving daemon
  labels in-process runs with the job id without touching process
  globals, so concurrent executor threads never cross streams;
- **process-global sinks** (:func:`add_sink`): tests and the CLI;
- **the spool** (``REPRO_PROGRESS_SPOOL``): the cross-process path,
  mirroring ``REPRO_TRACE_SPOOL``. Every reporter appends snapshots to
  ``progress-<runid>-<pid>.jsonl`` as single atomic ``O_APPEND``
  writes; :class:`SpoolTailer` incrementally reads complete lines, so
  a fan-out worker's progress reaches the parent (or the serving
  daemon) with no pipe plumbing. Worker attribution rides per-pool
  initargs (:func:`set_worker_label`), not env vars, so two concurrent
  pools never mislabel each other's snapshots.

Snapshot cadence is ``REPRO_PROGRESS_EVERY_MS`` (default 250 ms; ``0``
emits on every feed point — useful in tests).
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

from repro.obs.runid import current_run_id

#: Versioned schema tag stamped into every snapshot.
PROGRESS_SCHEMA = "repro.progress/v1"

#: Spool directory for cross-process snapshots; presence enables spooling.
SPOOL_ENV = "REPRO_PROGRESS_SPOOL"
#: Minimum milliseconds between snapshots (``0`` = every feed point).
CADENCE_ENV = "REPRO_PROGRESS_EVERY_MS"
#: Default cadence when ``REPRO_PROGRESS_EVERY_MS`` is unset.
DEFAULT_CADENCE_MS = 250

#: EWMA smoothing factor for the records/second throughput estimate.
RATE_ALPHA = 0.3

Sink = Callable[[dict], None]

_SINKS: list[Sink] = []
_LOCAL = threading.local()
_WORKER_LABEL: str | None = None


# ----------------------------------------------------------------------
# sink installation

def add_sink(sink: Sink) -> Sink:
    """Install a process-global snapshot sink; returns it for removal."""
    _SINKS.append(sink)
    return sink


def remove_sink(sink: Sink) -> None:
    """Uninstall a process-global sink (ignores one already removed)."""
    try:
        _SINKS.remove(sink)
    except ValueError:
        pass


@contextmanager
def progress_scope(label: str, sink: Sink | None = None):
    """Label (and optionally sink) runs on this thread only.

    The serving daemon wraps each in-process job execution in a scope so
    snapshots carry the job id; concurrent executor threads each see
    their own scope. Scopes nest; the innermost wins.
    """
    prev = getattr(_LOCAL, "scope", None)
    _LOCAL.scope = (label, sink)
    try:
        yield
    finally:
        _LOCAL.scope = prev


def set_worker_label(label: str | None) -> None:
    """Pin the snapshot label for this (worker) process.

    Called from the fan-out pool initializer with the per-pool
    ``progress_label`` initarg — the process is dedicated to one pool,
    so a process global is the right scope there (unlike the serving
    parent, where threads multiplex jobs and scopes are used instead).
    """
    global _WORKER_LABEL
    _WORKER_LABEL = label


def current_label() -> str | None:
    """The label a reporter created now would carry, or ``None``."""
    scope = getattr(_LOCAL, "scope", None)
    if scope is not None and scope[0] is not None:
        return scope[0]
    return _WORKER_LABEL


# ----------------------------------------------------------------------
# the spool (cross-process path)

class SpoolSink:
    """Append snapshots to ``progress-<runid>-<pid>.jsonl`` in a spool.

    Each snapshot is one JSON line written with a single ``os.write``
    on an ``O_APPEND`` descriptor — atomic on POSIX for writes of this
    size, so concurrent emitters into one directory never interleave
    and a tailer only ever sees whole lines (modulo the final partial
    one, which :class:`SpoolTailer` leaves for the next poll).
    """

    def __init__(self, spool_dir: str | os.PathLike) -> None:
        self.spool_dir = Path(spool_dir)

    def __call__(self, snapshot: dict) -> None:
        path = self.spool_dir / (
            f"progress-{snapshot.get('run_id', 'run')}-{snapshot['pid']}.jsonl"
        )
        line = json.dumps(snapshot, separators=(",", ":")) + "\n"
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)


class SpoolTailer:
    """Incrementally read new snapshots from a progress spool.

    Tracks a byte offset per spool file and only consumes complete
    lines, so it can be polled while emitters are mid-append. Corrupt
    lines (torn by a crashed emitter) are skipped, not fatal.
    """

    def __init__(self, spool_dir: str | os.PathLike) -> None:
        self.spool_dir = Path(spool_dir)
        self._offsets: dict[str, int] = {}

    def poll(self) -> list[dict]:
        """Every snapshot appended since the previous poll, in file order."""
        snapshots: list[dict] = []
        if not self.spool_dir.is_dir():
            return snapshots
        for path in sorted(self.spool_dir.glob("progress-*.jsonl")):
            offset = self._offsets.get(path.name, 0)
            try:
                with open(path, "rb") as handle:
                    handle.seek(offset)
                    chunk = handle.read()
            except OSError:
                continue
            if not chunk:
                continue
            complete, _, _partial = chunk.rpartition(b"\n")
            if not complete and b"\n" not in chunk:
                continue
            self._offsets[path.name] = offset + len(complete) + 1
            for line in complete.split(b"\n"):
                if not line:
                    continue
                try:
                    snapshot = json.loads(line)
                except (ValueError, UnicodeDecodeError):
                    continue
                if isinstance(snapshot, dict):
                    snapshots.append(snapshot)
        return snapshots


def read_spool(spool_dir: str | os.PathLike) -> list[dict]:
    """Read every complete snapshot currently in ``spool_dir``."""
    return SpoolTailer(spool_dir).poll()


def enable_spool(spool_dir: str | os.PathLike) -> Path:
    """Create ``spool_dir`` and advertise it via ``REPRO_PROGRESS_SPOOL``.

    After this, every run in this process *and* every fan-out worker it
    spawns spools progress snapshots there.
    """
    path = Path(spool_dir)
    path.mkdir(parents=True, exist_ok=True)
    os.environ[SPOOL_ENV] = str(path)
    return path


def disable_spool() -> None:
    """Retract the spool advertisement (existing files are untouched)."""
    os.environ.pop(SPOOL_ENV, None)


# ----------------------------------------------------------------------
# the reporter

def _cadence_s(cadence_ms: float | None) -> float:
    if cadence_ms is None:
        raw = os.environ.get(CADENCE_ENV, "")
        try:
            cadence_ms = float(raw) if raw else DEFAULT_CADENCE_MS
        except ValueError:
            cadence_ms = DEFAULT_CADENCE_MS
    return max(0.0, cadence_ms) / 1000.0


class ProgressReporter:
    """Rate-limited snapshot emitter for one engine run.

    The engine calls :meth:`due` once per scheduler round (one
    ``monotonic()`` read) and :meth:`emit` only when due, so enabled
    progress costs a clock check per round and a dict + sink fan-out
    a few times per second — never per record.
    """

    __slots__ = (
        "label", "total", "run_id", "pid",
        "_sinks", "_clock", "_every_s", "_next_due",
        "_seq", "_rate", "_last_t", "_last_done",
    )

    def __init__(
        self,
        label: str | None,
        total: int | None,
        sinks: list[Sink],
        cadence_ms: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.label = label
        self.total = int(total) if total else None
        self.run_id = current_run_id()
        self.pid = os.getpid()
        self._sinks = list(sinks)
        self._clock = clock
        self._every_s = _cadence_s(cadence_ms)
        # First feed point emits immediately: SSE clients see a
        # snapshot as soon as the run starts, not one cadence later.
        self._next_due = clock()
        self._seq = 0
        self._rate = 0.0
        self._last_t: float | None = None
        self._last_done = 0

    def due(self) -> bool:
        """Whether enough time has passed to emit another snapshot."""
        return self._clock() >= self._next_due

    def emit(
        self,
        *,
        done: int = 0,
        accesses: int = 0,
        ticks: int = 0,
        promotions: int = 0,
        epochs: int = 0,
        tier: str = "scalar",
        final: bool = False,
    ) -> dict:
        """Build one snapshot, update the EWMA, and fan out to sinks.

        Sinks must never break the run: a raising sink is dropped from
        this reporter (the run continues; remaining sinks still fire).
        """
        now = self._clock()
        if self._last_t is not None:
            dt = now - self._last_t
            if dt > 0:
                inst = (done - self._last_done) / dt
                if self._seq <= 1:
                    self._rate = inst
                else:
                    self._rate = RATE_ALPHA * inst + (1.0 - RATE_ALPHA) * self._rate
        self._last_t = now
        self._last_done = done
        self._next_due = now + self._every_s
        self._seq += 1
        eta_s: float | None = None
        if not final and self.total and self._rate > 0 and done < self.total:
            eta_s = round((self.total - done) / self._rate, 3)
        snapshot = {
            "schema": PROGRESS_SCHEMA,
            "run_id": self.run_id,
            "pid": self.pid,
            "job": self.label,
            "seq": self._seq,
            "ts_ms": int(time.time() * 1000),
            "records_done": int(done),
            "records_total": self.total,
            "accesses": int(accesses),
            "ticks": int(ticks),
            "promotions": int(promotions),
            "epochs": int(epochs),
            "tier": tier,
            "rate_rps": round(self._rate, 3),
            "eta_s": eta_s,
            "final": bool(final),
        }
        for sink in list(self._sinks):
            try:
                sink(snapshot)
            except Exception:
                self._sinks.remove(sink)
        return snapshot

    def finish(self, **fields) -> dict:
        """Emit the terminal snapshot (ignores the cadence gate)."""
        return self.emit(final=True, **fields)


def progress_enabled() -> bool:
    """Whether a reporter created now would have at least one sink."""
    scope = getattr(_LOCAL, "scope", None)
    if scope is not None and scope[1] is not None:
        return True
    return bool(_SINKS) or bool(os.environ.get(SPOOL_ENV))


def progress_for_run(
    label: str | None = None,
    total: int | None = None,
) -> ProgressReporter | None:
    """One progress decision per run: a reporter, or ``None`` when off.

    Sinks are gathered from the thread scope, the process-global list,
    and the spool (in that order); with no sink anywhere the answer is
    ``None`` and the engine pays nothing further. The label defaults to
    the innermost scope label, then the worker label.
    """
    sinks: list[Sink] = []
    scope = getattr(_LOCAL, "scope", None)
    if scope is not None and scope[1] is not None:
        sinks.append(scope[1])
    sinks.extend(_SINKS)
    spool = os.environ.get(SPOOL_ENV)
    if spool:
        sinks.append(SpoolSink(spool))
    if not sinks:
        return None
    if label is None:
        label = current_label()
    return ProgressReporter(label, total, sinks)
