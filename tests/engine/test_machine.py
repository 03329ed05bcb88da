"""Units for the staged machine pipeline and the Simulator facade."""

import numpy as np
import pytest

from repro.config import tiny_config
from repro.engine.machine import (
    Machine,
    OsTickDriver,
    ThreadScheduler,
    TranslationPipeline,
)
from repro.engine.cpu import Core
from repro.engine.simulation import Simulator
from repro.os.kernel import HugePagePolicy
from tests.conftest import make_workload

BASE = 0x5555_5540_0000


def _addresses(pages):
    return np.uint64(BASE) + np.array(pages, dtype=np.uint64) * np.uint64(4096)


class TestThreadScheduler:
    def test_round_robin_retires_exhausted_slots(self):
        scheduler = ThreadScheduler(quantum=4)
        a = scheduler.add([1, 2], [1, 1], pid=1, core_id=0,
                          seen=set(), fault=lambda v: None)
        b = scheduler.add([3], [1], pid=2, core_id=1,
                          seen=set(), fault=lambda v: None)
        assert scheduler.remaining == 3
        assert list(scheduler.next_round()) == [a, b]
        scheduler.advance(a, 2)
        scheduler.advance(b, 1)
        assert scheduler.remaining == 0
        assert list(scheduler.next_round()) == []
        assert not a.live and not b.live

    def test_advance_tracks_partial_progress(self):
        scheduler = ThreadScheduler(quantum=4)
        slot = scheduler.add([1, 2, 3], [1, 1, 1], pid=1, core_id=0,
                             seen=set(), fault=lambda v: None)
        scheduler.advance(slot, 1)
        assert scheduler.remaining == 2
        assert list(scheduler.next_round()) == [slot]


class TestTranslationPipelineHints:
    def _pipeline(self):
        return TranslationPipeline(Core(tiny_config()), fast_path=True)

    def test_invalidate_hints_counts_and_clears(self):
        pipeline = self._pipeline()
        pipeline._base_mru[0] = 42
        pipeline._huge_mru[0] = 7
        pipeline.invalidate_hints()
        assert pipeline.invalidations == 1
        assert set(pipeline._base_mru) == {-1}
        assert set(pipeline._huge_mru) == {-1}

    def test_sync_flushes_batched_counters_exactly_once(self):
        """Fast hits reach the canonical stats via sync, not before."""
        machine = Machine(tiny_config(), policy=HugePagePolicy.NONE)
        # alternate two pages: after each page's first (slow) access,
        # both stay MRU of their distinct sets, so the rest memo-hit
        result = machine.run([make_workload(_addresses([0, 1] * 25))])
        pipeline = machine.pipelines[0]
        assert pipeline.fast_hits > 0
        assert pipeline._pending_accesses == 0  # fully flushed
        core = machine.cores[0]
        assert core.stats.accesses == result.accesses == 50
        assert core.stats.l1_hits == result.l1_hits
        assert core.tlb.accesses == core.tlb.l1_base.stats.accesses

    def test_fast_path_off_never_counts_fast_hits(self):
        machine = Machine(
            tiny_config(), policy=HugePagePolicy.NONE, fast_path=False
        )
        machine.run([make_workload(_addresses([0, 1] * 25))])
        assert machine.pipelines[0].fast_hits == 0
        assert machine.pipelines[0].slow_records == 50


class TestOsTickDriver:
    def test_regular_tick_resets_interval_and_samples(self):
        # small quantum so round boundaries (where ticks fire) are hit
        # many times across the 800-access trace
        machine = Machine(
            tiny_config(), policy=HugePagePolicy.PCC, thread_quantum=64
        )
        result = machine.run([make_workload(_addresses(list(range(200)) * 4))])
        # tiny_config ticks every 64 accesses: several regular ticks
        assert len(result.promotion_timeline) >= 2
        assert len(result.huge_page_timeline) == len(result.promotion_timeline)
        # metrics samples align 1:1 with the promotion timeline
        sample_ats = [s["at"] for s in result.metrics["samples"]]
        assert sample_ats == [at for at, _ in result.promotion_timeline]

    def test_final_tick_records_when_nothing_ever_ticked(self):
        driver_config = tiny_config()
        machine = Machine(driver_config, policy=HugePagePolicy.NONE)
        result = machine.run([make_workload(_addresses([1, 2, 3]))])
        # run far below the interval: exactly the final-tick record
        assert len(result.promotion_timeline) == 1

    def test_due_flag(self):
        ticks = OsTickDriver(kernel=None, interval=10, tick_fn=None)
        ticks.note(9)
        assert not ticks.due
        ticks.note(1)
        assert ticks.due


class TestPerPidWalkAttribution:
    def test_processes_sharing_a_core_do_not_double_count(self):
        """Two processes pinned to one core: per-process walks must
        partition the total, not each inherit the core's sum."""
        w1 = make_workload(_addresses(range(0, 120)), name="p1")
        w2 = make_workload(_addresses(range(200, 320)), name="p2")
        for w in (w1, w2):
            w.threads[0].core = 0
        result = Simulator(
            tiny_config(), policy=HugePagePolicy.NONE
        ).run([w1, w2])
        per_process = [p.walks for p in result.processes]
        assert sum(per_process) == result.walks
        assert all(w > 0 for w in per_process)

    def test_single_process_gets_all_walks(self):
        result = Simulator(tiny_config(), policy=HugePagePolicy.NONE).run(
            [make_workload(_addresses(range(100)))]
        )
        assert result.processes[0].walks == result.walks


class TestSimulatorFacade:
    def test_delegated_surface(self):
        config = tiny_config()
        simulator = Simulator(config, policy=HugePagePolicy.PCC)
        assert simulator.config is config
        assert simulator.policy is HugePagePolicy.PCC
        assert simulator.kernel is simulator.machine.kernel
        assert simulator.dump_region is simulator.machine.dump_region
        simulator.thread_quantum = 128
        assert simulator.machine.thread_quantum == 128

    def test_promotion_tick_override_is_honored(self):
        """Subclass ticks must flow through the machine's tick driver."""
        calls = []

        class Custom(Simulator):
            def _promotion_tick(self, cores, ledgers):
                calls.append(len(cores))
                return super()._promotion_tick(cores, ledgers)

        simulator = Custom(tiny_config(), policy=HugePagePolicy.PCC)
        simulator.run([make_workload(_addresses(list(range(100)) * 3))])
        assert calls  # at least the final tick
        assert all(n == 1 for n in calls)

    def test_pinning_beyond_core_count_raises(self):
        workload = make_workload(_addresses([1, 2, 3]))
        workload.threads[0].core = 5
        with pytest.raises(ValueError, match="pinned to core 5"):
            Simulator(tiny_config(), policy=HugePagePolicy.NONE).run([workload])

    def test_result_carries_metrics_export(self):
        result = Simulator(tiny_config(), policy=HugePagePolicy.NONE).run(
            [make_workload(_addresses([1, 2, 3]))]
        )
        assert result.metrics["schema"] == "repro.metrics/v1"
        assert result.metrics["meta"]["policy"] == "none"
        assert result.metrics["meta"]["fast_path"] is True
