"""Graceful degradation: circuit breaker and engine-tier ladder.

Two independent mechanisms keep the service answering when its fastest
machinery is failing:

* The :class:`CircuitBreaker` watches
  :class:`~repro.experiments.parallel.FanOutReport` outcomes. Repeated
  worker quarantines or pool deaths trip it **open**: jobs then run
  serially in-process (``jobs=1``), trading throughput for certainty
  that no process pool is involved. After a cooldown the breaker goes
  **half-open** and lets one job try the pool again; success closes
  the circuit, failure reopens it.

* The tier ladder (:data:`TIER_LADDER`) degrades the engine itself:
  when a job fails on the default columnar tier (numba probe-compile
  blowups, columnar encoding failures, or anything else the fast path
  trips over), the job is retried on the ``fast`` tier and finally the
  ``scalar`` reference tier. The three tiers are bit-identical by
  construction (the differential oracle's core invariant), so a
  degraded answer is a *slower* answer, never a different one.

Every degradation a job absorbs is recorded on the job's ``degraded``
list and surfaced in its response envelope — the client sees exactly
what the service did on its behalf instead of a 500.
"""

from __future__ import annotations

import time

from repro.resilience import bus

#: Engine tiers tried in order. ``None`` means "engine default" (the
#: columnar whole-epoch tier); each later rung switches the Simulator
#: to a strictly simpler, strictly better-understood path.
TIER_LADDER: tuple[str | None, ...] = (None, "fast", "scalar")

#: Degradation tag recorded when the breaker forces serial execution.
SERIAL_TAG = "serial-execution"

#: Breaker states.
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"


class CircuitBreaker:
    """Trips from pooled to serial execution on repeated fan-out damage.

    ``clock`` is injectable for tests; production uses
    ``time.monotonic``. The breaker is loop-confined like the admission
    controller — no locking.
    """

    def __init__(
        self,
        trip_after: int = 3,
        cooldown_s: float = 30.0,
        clock=time.monotonic,
    ) -> None:
        self.trip_after = trip_after
        self.cooldown_s = cooldown_s
        self._clock = clock
        self.state = CLOSED
        self.consecutive_failures = 0
        self.trips = 0
        self._opened_at = 0.0
        #: True while one half-open trial job is in flight
        self._probing = False

    # ------------------------------------------------------------------
    # observations

    def record_report(self, report: dict) -> None:
        """Account one fan-out report that carried quarantine damage."""
        damage = bool(report.get("quarantined")) or bool(
            report.get("pool_rebuilds")
        )
        if damage:
            self.record_failure()
        else:
            self.record_success()

    def record_failure(self) -> None:
        """One damaged execution; may trip or re-open the circuit."""
        self.consecutive_failures += 1
        if self.state == HALF_OPEN:
            self._open()
        elif self.state == CLOSED and self.consecutive_failures >= self.trip_after:
            self._open()
        self._probing = False

    def record_success(self) -> None:
        """One clean execution; closes a half-open circuit."""
        self.consecutive_failures = 0
        if self.state == HALF_OPEN:
            self.state = CLOSED
        self._probing = False

    def _open(self) -> None:
        self.state = OPEN
        self.trips += 1
        self._opened_at = self._clock()
        bus.counter("breaker.trips").add()

    # ------------------------------------------------------------------
    # decisions

    def allow_pooled(self) -> bool:
        """Whether the next job may use the process pool.

        While open, everything is serial. After the cooldown the first
        caller becomes the half-open probe; concurrent jobs stay serial
        until the probe's outcome is recorded.
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if self._clock() - self._opened_at < self.cooldown_s:
                return False
            self.state = HALF_OPEN
        if self.state == HALF_OPEN:
            if self._probing:
                return False
            self._probing = True
            return True
        return True

    def snapshot(self) -> dict:
        """JSON-safe state for /readyz and /v1/metrics."""
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "trips": self.trips,
        }
