"""The ``serve-mixed`` workload: ``repro serve`` under a closed-loop client.

Each round has two passes over the same ``ROUND_JOBS`` small BFS specs,
every one with its own graph seed:

1. the *distinct* pass submits each spec once, so every job computes;
2. the *hit* pass resubmits the same specs under new job ids, so every
   result is read back from the server's results journal.

A benchmark run splits its rounds over several fresh servers, started
one after another.

The client waits for its job's terminal state on the job's SSE event
stream (``GET /v1/jobs/<id>/events``) before sending the next one, and
holds at most two connections: one keep-alive connection for requests
and the event stream of the job in flight. One client, not more: on a
2-CPU host the server and a second client thread contend for the same
CPUs and the latencies measure the scheduler.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import subprocess
import threading
import time

from child import ENGINE_COUNTERS, reference_ms
from repro.metrics.prometheus import metric_name, parse_exposition
from repro.serve.events import TERMINAL_STATES, read_events

CLIENTS = 1
EXECUTORS = 2
#: specs per round: every pass has enough samples (100) for a tail
#: percentile of its own
ROUND_JOBS = 100
#: graph scale and access count of one job: small, so the service
#: layers (admission, journal, event stream) weigh against the engine
JOB_RUN = {"app": "BFS", "policy": "pcc", "graph_scale": 8,
           "proxy_accesses": 2000}
#: room for one round's specs between consecutive seeds' seed ranges
SEED_STRIDE = 1_000_000
#: jobs the client sends between two timings of the reference kernel
REF_CHUNK = 25


class Server:
    """One ``repro serve`` process on a free port, stdout drained."""

    def __init__(self, argv: list[str], env: dict, cwd: str) -> None:
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            argv, env=env, cwd=cwd, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        self.port: int | None = None
        self.ready_at: float | None = None
        self.output: list[str] = []
        self._listening = threading.Event()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.output.append(line)
            if self.port is None and "listening on" in line:
                address = line.split("listening on", 1)[1].split()[0]
                self.port = int(address.rsplit(":", 1)[1])
                self.ready_at = time.monotonic()
                self._listening.set()
        self._listening.set()

    def wait_ready(self, timeout: float) -> float:
        """Seconds from spawn to the listening line."""
        if not self._listening.wait(timeout) or self.port is None:
            self.kill()
            raise RuntimeError(
                "server never listened:\n" + "".join(self.output[-20:])
            )
        return self.ready_at - self.spawned

    def request(self, method: str, path: str, doc=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            return _exchange(conn, method, path, doc)
        finally:
            conn.close()

    def counters(self) -> dict[str, float]:
        """Every counter family of ``/metrics``, by family name."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", "/metrics")
            text = conn.getresponse().read().decode("utf-8")
        finally:
            conn.close()
        return {
            family: sum(value for _name, _labels, value in data["samples"])
            for family, data in parse_exposition(text).items()
            if data["type"] == "counter"
        }

    def stop(self, timeout: float) -> int:
        """Drain the server; returns its peak resident set in KiB."""
        self.request("POST", "/v1/drain")
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self._reader.join(timeout=5)
                return usage.ru_maxrss
            time.sleep(0.02)
        self.kill()
        raise RuntimeError("server did not exit after drain")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=5)


def counter_family(name: str) -> str:
    """The ``/metrics`` family a bus counter is exposed as."""
    return metric_name(name) + "_total"


def _exchange(conn, method: str, path: str, doc=None):
    body = None if doc is None else json.dumps(doc)
    headers = {} if doc is None else {"Content-Type": "application/json"}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, json.loads(response.read() or b"null")


def run_job(conn, port: int, job_id: str, run: dict) -> dict:
    """Submit one job and follow its event stream to a terminal state."""
    begun = time.perf_counter()
    status, _doc = _exchange(conn, "POST", "/v1/jobs", {
        "id": job_id, "tenant": "bench", "runs": [run],
    })
    submitted = time.perf_counter()
    record = {"id": job_id, "status": status,
              "submit_ms": (submitted - begun) * 1e3, "begun": begun}
    if status != 202:
        record["end"] = submitted
        return record
    stream = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        stream.request("GET", f"/v1/jobs/{job_id}/events")
        response = stream.getresponse()
        for event in read_events(response):
            data = event["data"]
            if event["event"] == "state" and data.get("state") in TERMINAL_STATES:
                break
    finally:
        stream.close()
    record["end"] = time.perf_counter()
    record["latency_ms"] = (record["end"] - begun) * 1e3
    _status, envelope = _exchange(conn, "GET", f"/v1/jobs/{job_id}")
    record["envelope"] = envelope
    return record


def drive(port: int, jobs: list[tuple[str, dict]]) -> list[dict]:
    """Run ``jobs`` through ``CLIENTS`` closed-loop clients."""
    pending: queue.Queue = queue.Queue()
    for job in jobs:
        pending.put(job)
    records: list[dict] = []
    errors: list[Exception] = []

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            while True:
                try:
                    job_id, run = pending.get_nowait()
                except queue.Empty:
                    return
                records.append(run_job(conn, port, job_id, run))
        except Exception as error:  # re-raised by the caller
            errors.append(error)
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return records


def drive_timed(port: int, jobs: list[tuple[str, dict]]) -> tuple:
    """``drive`` in chunks of ``REF_CHUNK`` jobs, timing the reference
    kernel between chunks (while the server idles). Every record gets
    ``ref``, the mean reference time around its chunk; also returns each
    chunk's (span in seconds, ref)."""
    records, chunks = [], []
    before = reference_ms()
    for start in range(0, len(jobs), REF_CHUNK):
        chunk = drive(port, jobs[start:start + REF_CHUNK])
        after = reference_ms()
        ref = (before + after) / 2
        for record in chunk:
            record["ref"] = ref
        chunks.append((max(r["end"] for r in chunk)
                       - min(r["begun"] for r in chunk), ref))
        records += chunk
        before = after
    return records, chunks


def ok(record: dict) -> bool:
    """Whether a job was accepted, finished and neither degraded nor empty."""
    envelope = record.get("envelope") or {}
    return (record["status"] == 202
            and (envelope.get("job") or {}).get("state") == "done"
            and not envelope.get("degraded")
            and bool(envelope.get("result")))


def run_rounds(server: Server, seed: int, first_round: int,
               rounds: int) -> dict:
    """Rounds ``first_round`` to ``first_round + rounds - 1`` (distinct
    pass + hit pass) against a ready server."""
    resumed_name = counter_family("resilience.tasks.resumed")
    commits_name = counter_family("resilience.journal.commits")
    out = {"rounds": [], "failed": 0, "attempted": 0, "checks": []}
    first = server.counters()
    for index in range(first_round, first_round + rounds):
        base = seed * SEED_STRIDE + index * ROUND_JOBS
        runs = [dict(JOB_RUN, seed=base + i) for i in range(ROUND_JOBS)]
        before = server.counters()
        computed, distinct_chunks = drive_timed(server.port, [
            (f"d{index}-{i}", run) for i, run in enumerate(runs)
        ])
        middle = server.counters()
        hits, hit_chunks = drive_timed(server.port, [
            (f"h{index}-{i}", run) for i, run in enumerate(runs)
        ])
        after = server.counters()

        resumed_distinct = middle[resumed_name] - before[resumed_name]
        resumed_hits = after[resumed_name] - middle[resumed_name]
        if resumed_distinct != 0:
            out["checks"].append(
                f"round {index}: {resumed_distinct:g} distinct jobs resumed")
        if resumed_hits != len(hits):
            out["checks"].append(
                f"round {index}: {resumed_hits:g} of {len(hits)} hit jobs "
                f"resumed")
        twin = {r["id"].rsplit("-", 1)[1]: r for r in computed}
        failed = sum(not ok(r) for r in computed)
        for record in hits:
            computed_twin = twin[record["id"].rsplit("-", 1)[1]]
            same = (ok(computed_twin) and record.get("envelope", {}).get(
                "result") == computed_twin["envelope"]["result"])
            failed += not (ok(record) and same)
        out["failed"] += failed
        out["attempted"] += len(computed) + len(hits)
        out["rounds"].append({
            "computed": computed,
            "hits": hits,
            "distinct_chunks": distinct_chunks,
            "chunks": distinct_chunks + hit_chunks,
            "distinct_s": sum(span for span, _ in distinct_chunks),
            "wall_s": sum(span for span, _ in distinct_chunks + hit_chunks),
            "commits": middle[commits_name] - before[commits_name],
            "resumed": resumed_hits,
        })
    # the server folds every result's tier counters onto the bus as engine.*
    out["engine"] = {
        name: after.get(counter_family(f"engine.{name}"), 0.0)
        - first.get(counter_family(f"engine.{name}"), 0.0)
        for name in ENGINE_COUNTERS
    }
    return out


def merge(outcomes: list[dict]) -> dict:
    """One outcome of several servers' ``run_rounds`` and peak RSS."""
    return {
        "rounds": [rnd for o in outcomes for rnd in o["rounds"]],
        "failed": sum(o["failed"] for o in outcomes),
        "attempted": sum(o["attempted"] for o in outcomes),
        "checks": [check for o in outcomes for check in o["checks"]],
        "engine": {name: sum(o["engine"][name] for o in outcomes)
                   for name in ENGINE_COUNTERS},
        "maxrss_kb": max(o["maxrss_kb"] for o in outcomes),
    }
