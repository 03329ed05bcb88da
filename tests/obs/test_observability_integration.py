"""End-to-end observability: bit-identical stats, merged worker spans.

The layer's contract is that observing a run changes nothing about the
run: enabling tracing (or ``REPRO_OBS``) must leave every simulation
statistic bit-identical, add a ``distributions`` section to the metrics
export, and produce a Perfetto-loadable trace whose spans nest through
the OS tick phases — including spans shipped back from fan-out worker
processes.
"""

import json
import os

import pytest

from repro.engine.simulation import Simulator
from repro.experiments.common import (
    ExperimentScale,
    build_named_workload,
    clone_workload,
    config_for,
)
from repro.obs import tracer as tracer_module
from repro.obs.inspect import validate_trace
from repro.obs.observer import OBS_ENV
from repro.os.kernel import HugePagePolicy

TINY = ExperimentScale(name="tiny", graph_scale=10, proxy_accesses=25_000)


@pytest.fixture(autouse=True)
def _tracing_off_between_tests(monkeypatch):
    from repro.obs.runid import RUN_ID_ENV

    monkeypatch.delenv(OBS_ENV, raising=False)
    monkeypatch.delenv(RUN_ID_ENV, raising=False)
    tracer_module.disable()
    yield
    tracer_module.disable()


def _fingerprint(result) -> tuple:
    # Every counter, engine-tier instrumentation (fastpath.*) included:
    # an observed run executes the same columnar epochs, fallbacks and
    # quanta as an unobserved one, so even the tier counters match.
    counters = result.metrics["counters"]
    return (
        result.policy,
        result.total_cycles,
        result.accesses,
        result.walks,
        result.l1_hits,
        result.l2_hits,
        result.promotions,
        result.demotions,
        tuple(result.promotion_timeline),
        json.dumps(counters, sort_keys=True),
    )


def _run(observe=None, **engine):
    workload = build_named_workload(
        "BFS", graph_scale=TINY.graph_scale, proxy_accesses=TINY.proxy_accesses
    )
    config = config_for(workload)
    simulator = Simulator(config, policy=HugePagePolicy.PCC, observe=observe,
                          **engine)
    return simulator.run([clone_workload(workload)])


def _tier_total(result, counter: str) -> int:
    return sum(value for name, value in result.metrics["counters"].items()
               if name.endswith(f".fastpath.{counter}"))


def _walk_histograms(result) -> dict:
    distributions = result.metrics["distributions"]
    return {name: distributions[name]
            for name in ("walk_latency_cycles", "promotion_lag_accesses")}


class TestBitIdentity:
    def test_traced_run_matches_untraced_run_exactly(self, tmp_path):
        baseline = _run(observe=False)
        tracer_module.enable(spool_dir=tmp_path / "spool")
        try:
            traced = _run()
        finally:
            tracer_module.disable()
        assert _fingerprint(traced) == _fingerprint(baseline)

    def test_env_observed_run_matches_too(self, monkeypatch):
        baseline = _run(observe=False)
        monkeypatch.setenv(OBS_ENV, "1")
        observed = _run()
        assert _fingerprint(observed) == _fingerprint(baseline)

    def test_unobserved_run_exports_empty_distributions(self):
        result = _run()
        assert result.metrics["distributions"] == {}

    def test_observed_run_populates_engine_histograms(self, monkeypatch):
        monkeypatch.setenv(OBS_ENV, "1")
        result = _run()
        distributions = result.metrics["distributions"]
        assert distributions["walk_latency_cycles"]["count"] == result.walks
        assert distributions["tick_duration_us"]["count"] > 0
        percentiles = distributions["walk_latency_cycles"]["percentiles"]
        assert set(percentiles) == {"p50", "p95", "p99"}
        assert percentiles["p50"] <= percentiles["p95"] <= percentiles["p99"]

    def test_observed_run_stays_columnar_with_fast_tier_histograms(self):
        # (epoch counts equal to an unobserved run's: _fingerprint)
        observed = _run(observe=True)
        assert _tier_total(observed, "columnar_epochs") > 0
        fast = _run(observe=True, columnar=False)
        assert _tier_total(fast, "columnar_epochs") == 0
        histograms = _walk_histograms(observed)
        assert histograms["promotion_lag_accesses"]["count"] > 0
        assert histograms == _walk_histograms(fast)

    def test_replayed_epoch_window_keeps_fast_tier_promotion_lag(
            self, monkeypatch):
        # A declined classification replays the planned window quantum
        # by quantum while the tick clock advances once per window; the
        # walks' first-walk stamps must still be per quantum.
        from repro.engine.machine import TranslationPipeline

        fast = _run(observe=True, columnar=False)
        monkeypatch.setattr(TranslationPipeline, "_epoch_classify",
                            lambda self, *args: None)
        replayed = _run(observe=True)
        assert _tier_total(replayed, "columnar_fallbacks") > 0
        assert _tier_total(replayed, "columnar_epochs") == 0
        lag = replayed.metrics["distributions"]["promotion_lag_accesses"]
        assert lag["count"] > 0
        assert lag == fast.metrics["distributions"]["promotion_lag_accesses"]

    def test_metrics_meta_carries_run_id(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_ID", "abcd12340001")
        result = _run()
        assert result.metrics["meta"]["run_id"] == "abcd12340001"


class TestTraceContents:
    def test_span_taxonomy_nests_through_tick_phases(self, tmp_path):
        tracer = tracer_module.enable(spool_dir=tmp_path / "spool")
        try:
            _run()
            doc = tracer.export()
        finally:
            tracer_module.disable()
        assert validate_trace(doc) == []
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        by_name = {}
        for event in spans:
            by_name.setdefault(event["name"], []).append(event)
        for required in ("machine.sim_loop", "epoch", "os_tick", "tick.scan",
                         "tick.rank", "tick.promote", "machine.collect"):
            assert required in by_name, f"missing span {required!r}"
        loop_id = by_name["machine.sim_loop"][0]["args"]["span"]
        # in-loop ticks nest under the sim loop; the final drain tick
        # fires after the loop closes and is legitimately parentless
        in_loop = [t for t in by_name["os_tick"] if not t["args"]["final"]]
        assert in_loop
        assert all(t["args"]["parent"] == loop_id for t in in_loop)
        scan_parents = {t["args"]["parent"] for t in by_name["tick.scan"]}
        tick_ids = {t["args"]["span"] for t in by_name["os_tick"]}
        assert scan_parents <= tick_ids
        # epoch spans ride per-core lanes, off the main lane
        assert {e["tid"] for e in by_name["epoch"]} == {10}

    def test_pcc_snapshots_carry_topk_and_tlb(self, tmp_path):
        tracer = tracer_module.enable(spool_dir=tmp_path / "spool")
        try:
            _run()
            doc = tracer.export()
        finally:
            tracer_module.disable()
        snapshots = [e for e in doc["traceEvents"]
                     if e["ph"] == "i" and e["name"] == "pcc_state"]
        assert snapshots
        args = snapshots[-1]["args"]
        assert args["top_regions"], "expected ranked PCC regions"
        assert all(len(row) == 3 for row in args["top_regions"])
        assert args["tlb"], "expected TLB occupancy map"


def _traced_task(x: int) -> int:
    return x * x


class TestFanOutTracing:
    def test_worker_spans_merge_into_parent_trace(self, tmp_path, monkeypatch):
        from repro.experiments.parallel import fan_out

        monkeypatch.setenv("REPRO_RUN_ID", "feed43210001")
        tracer = tracer_module.enable(spool_dir=tmp_path / "spool")
        try:
            results = fan_out(_traced_task, [1, 2, 3, 4], jobs=2)
            doc = tracer.export()
        finally:
            tracer_module.disable()
        assert results == [1, 4, 9, 16]
        assert validate_trace(doc) == []
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        fanout = [e for e in spans if e["name"] == "fanout"]
        tasks = [e for e in spans if e["name"] == "fanout.task"]
        assert len(fanout) == 1 and len(tasks) == 4
        parent_pid = os.getpid()
        assert {e["pid"] for e in tasks} - {parent_pid}, (
            "expected at least one task span from a worker process"
        )
        fanout_id = fanout[0]["args"]["span"]
        assert all(t["args"]["parent"] == fanout_id for t in tasks)

    def test_serial_fan_out_traces_without_spool(self):
        from repro.experiments.parallel import fan_out

        tracer = tracer_module.enable()
        try:
            results = fan_out(_traced_task, [3], jobs=1)
            doc = tracer.export()
        finally:
            tracer_module.disable()
        assert results == [9]
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"fanout", "fanout.task"} <= names

    def test_fan_out_wall_time_histogram_recorded(self, monkeypatch):
        from repro.experiments.parallel import fan_out
        from repro.resilience import bus

        monkeypatch.setenv(OBS_ENV, "1")
        before = bus.registry().histogram("fanout.task_wall_us", unit="us").count
        fan_out(_traced_task, [5, 6], jobs=1)
        after = bus.registry().histogram("fanout.task_wall_us", unit="us").count
        assert after == before + 2


class TestRunIdCorrelation:
    def test_journal_shards_record_the_invocations_run_id(self, tmp_path,
                                                          monkeypatch):
        from repro.resilience.journal import RunJournal

        monkeypatch.setenv("REPRO_RUN_ID", "beef56780001")
        journal = RunJournal(tmp_path)
        key = journal.key_for(_traced_task, 9)
        journal.commit(key, 81)
        assert journal.run_id_of(key) == "beef56780001"
        assert journal.load(key) == 81

    def test_collector_and_trace_agree_on_run_id(self, tmp_path, monkeypatch):
        from repro.metrics import collecting

        monkeypatch.setenv("REPRO_RUN_ID", "dead90120001")
        tracer = tracer_module.enable()
        try:
            with collecting() as collector:
                _run()
            doc = tracer.export()
        finally:
            tracer_module.disable()
        assert collector.export()["run_id"] == "dead90120001"
        assert doc["otherData"]["run_id"] == "dead90120001"
        assert collector.runs[0]["meta"]["run_id"] == "dead90120001"

    def test_resilience_publications_carry_run_id(self, monkeypatch):
        from repro.metrics import collecting
        from repro.resilience import bus

        monkeypatch.setenv("REPRO_RUN_ID", "face34560001")
        with collecting() as collector:
            bus.publish()
        assert collector.runs[0]["meta"]["run_id"] == "face34560001"
        assert collector.runs[0]["meta"]["component"] == "resilience"
