"""The translation fast path must be invisible in every statistic.

The memoized VPN fast path in :class:`~repro.engine.machine.
TranslationPipeline` bypasses the TLB object graph for repeated hits;
its correctness claim is *bit-identical behavior*: the same walks, the
same per-structure hit counts, the same cycles, the same promotions —
on any trace, under any interleaving, across promotion ticks and the
shootdowns they broadcast. These properties drive randomized
multi-thread traces with frequent promotion intervals through both
modes and compare the results field by field.

The default engine (the columnar epoch tier, falling back to the fast
loop between epochs) carries the same claim one level up: on bursty
streams, tight promotion intervals, fragmentation with demotion, and
1GB-promoted regions it must match both the fast loop and the scalar
reference bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import tiny_config
from repro.engine.simulation import SimulationResult, Simulator
from repro.engine.system import ProcessWorkload
from repro.experiments.common import engine_tier_switches
from repro.os.kernel import HugePagePolicy, KernelParams
from repro.trace.events import Trace
from tests.conftest import make_workload

BASE = 0x5555_5540_0000

POLICIES = [
    HugePagePolicy.NONE,
    HugePagePolicy.LINUX_THP,
    HugePagePolicy.HAWKEYE,
    HugePagePolicy.PCC,
    HugePagePolicy.IDEAL,
]


def _result_fingerprint(result: SimulationResult) -> dict:
    """Every observable statistic of a run, for exact comparison."""
    return {
        "policy": result.policy,
        "total_cycles": result.total_cycles,
        "accesses": result.accesses,
        "walks": result.walks,
        "l1_hits": result.l1_hits,
        "l2_hits": result.l2_hits,
        "promotions": result.promotions,
        "demotions": result.demotions,
        "promotion_timeline": result.promotion_timeline,
        "huge_page_timeline": result.huge_page_timeline,
        "per_core": result.per_core,
        "processes": [
            (p.pid, p.name, p.accesses, p.walks, p.huge_pages,
             p.footprint_regions)
            for p in result.processes
        ],
    }


def _non_fastpath_counters(result: SimulationResult) -> dict:
    """Metrics counters minus the fast path's own instrumentation."""
    return {
        name: value
        for name, value in result.metrics["counters"].items()
        if ".fastpath." not in name
    }


@st.composite
def thread_page_streams(draw):
    """1-3 threads of bounded page accesses over a shared window.

    The window (400 pages ~ 4 x 2MB regions) is small enough that the
    tiny TLB thrashes and promotion candidates accumulate, so runs
    exercise hits, evictions, walks, faults, promotions and shootdowns.
    """
    threads = draw(st.integers(1, 3))
    streams = []
    for _ in range(threads):
        length = draw(st.integers(20, 400))
        pages = draw(
            st.lists(st.integers(0, 400), min_size=length, max_size=length)
        )
        streams.append(
            np.uint64(BASE)
            + np.array(pages, dtype=np.uint64) * np.uint64(4096)
        )
    return streams


def _workload(streams) -> ProcessWorkload:
    single = make_workload(np.concatenate(streams))
    if len(streams) == 1:
        return single
    traces = [
        Trace(
            name=f"t{i}",
            addresses=stream,
            footprint_bytes=single.footprint_bytes,
        )
        for i, stream in enumerate(streams)
    ]
    return ProcessWorkload.multi_thread(traces, single.layout, name="prop")


def _run(streams, policy, fast_path, cores=2):
    config = tiny_config(cores=cores)
    simulator = Simulator(config, policy=policy, fast_path=fast_path)
    return simulator.run([_workload(streams)])


@given(
    streams=thread_page_streams(),
    policy=st.sampled_from(
        [HugePagePolicy.NONE, HugePagePolicy.LINUX_THP, HugePagePolicy.PCC]
    ),
)
@settings(max_examples=50, deadline=None)
def test_fast_path_is_bit_identical(streams, policy):
    baseline = _run(streams, policy, fast_path=False)
    fast = _run(streams, policy, fast_path=True)
    assert _result_fingerprint(fast) == _result_fingerprint(baseline)


@given(streams=thread_page_streams())
@settings(max_examples=25, deadline=None)
def test_fast_path_metrics_counters_match(streams):
    """The metrics bus sees identical counters too (fastpath.* aside)."""
    baseline = _run(streams, HugePagePolicy.PCC, fast_path=False)
    fast = _run(streams, HugePagePolicy.PCC, fast_path=True)
    assert _non_fastpath_counters(fast) == _non_fastpath_counters(baseline)


@given(streams=thread_page_streams())
@settings(max_examples=25, deadline=None)
def test_fast_path_survives_tight_promotion_intervals(streams):
    """Frequent ticks (interval 32) maximize shootdown/invalidation
    traffic — the fast path's riskiest regime."""
    from dataclasses import replace

    config = tiny_config(cores=2)
    config = config.with_(os=replace(config.os, promote_every_accesses=32))
    results = []
    for fast_path in (False, True):
        simulator = Simulator(
            config, policy=HugePagePolicy.PCC, fast_path=fast_path
        )
        results.append(simulator.run([_workload(streams)]))
    assert _result_fingerprint(results[1]) == _result_fingerprint(results[0])


# ----------------------------------------------------------------------
# the default engine against the fast loop and the scalar reference


@st.composite
def bursty_page_streams(draw):
    """1-2 threads alternating hot bursts with random strides.

    Bursts over a handful of pages produce long same-set repeat runs
    (tier-1 hint hits, classified L1 hits); the random tail breaks them
    up so hits, misses and walks interleave within one epoch.
    """
    threads = draw(st.integers(1, 2))
    streams = []
    for _ in range(threads):
        pages: list[int] = []
        for _ in range(draw(st.integers(1, 4))):
            hot = draw(st.integers(0, 40))
            burst = draw(st.integers(4, 60))
            stride = draw(st.integers(0, 2))
            pages.extend(hot + (k % 3) * stride for k in range(burst))
            tail = draw(
                st.lists(st.integers(0, 700), min_size=0, max_size=30)
            )
            pages.extend(tail)
        streams.append(
            np.uint64(BASE)
            + np.array(pages, dtype=np.uint64) * np.uint64(4096)
        )
    return streams


def _run_tier(streams, policy, tier=None, *, config=None, params=None,
              fragmentation=0.0):
    """One run on a named engine tier (``None``: the engine default)."""
    simulator = Simulator(
        config or tiny_config(cores=2),
        policy=policy,
        params=params,
        fragmentation=fragmentation,
        **engine_tier_switches(tier),
    )
    return simulator.run([_workload(streams)])


@given(streams=thread_page_streams(), policy=st.sampled_from(POLICIES))
@settings(max_examples=50, deadline=None)
def test_default_engine_is_bit_identical_to_scalar(streams, policy):
    baseline = _run_tier(streams, policy, "scalar")
    default = _run_tier(streams, policy)
    assert _result_fingerprint(default) == _result_fingerprint(baseline)


@given(streams=bursty_page_streams(), policy=st.sampled_from(POLICIES))
@settings(max_examples=50, deadline=None)
def test_default_engine_is_bit_identical_on_bursty_streams(streams, policy):
    """Hit-heavy traces: long repeat runs interleaved with misses."""
    fast = _run_tier(streams, policy, "fast")
    default = _run_tier(streams, policy)
    assert _result_fingerprint(default) == _result_fingerprint(fast)


@given(streams=bursty_page_streams())
@settings(max_examples=25, deadline=None)
def test_default_engine_metrics_counters_match(streams):
    """The metrics bus sees identical counters too (fastpath.* aside)."""
    baseline = _run_tier(streams, HugePagePolicy.PCC, "scalar")
    default = _run_tier(streams, HugePagePolicy.PCC)
    assert _non_fastpath_counters(default) == _non_fastpath_counters(baseline)


@given(streams=bursty_page_streams())
@settings(max_examples=25, deadline=None)
def test_default_engine_survives_tight_promotion_intervals(streams):
    """Frequent ticks (interval 32) end an epoch almost every quantum
    and invalidate the hints behind it."""
    from dataclasses import replace

    config = tiny_config(cores=2)
    config = config.with_(os=replace(config.os, promote_every_accesses=32))
    fast = _run_tier(streams, HugePagePolicy.PCC, "fast", config=config)
    default = _run_tier(streams, HugePagePolicy.PCC, config=config)
    assert _result_fingerprint(default) == _result_fingerprint(fast)


@given(
    streams=bursty_page_streams(),
    fragmentation=st.sampled_from([0.5, 0.9]),
)
@settings(max_examples=25, deadline=None)
def test_default_engine_survives_fragmentation_and_demotion(streams,
                                                            fragmentation):
    """Fragmented memory forces fault-time huge failures and demotion
    churn — the region-state transitions the epoch tier must respect."""
    config = tiny_config(cores=2)
    params = KernelParams(
        regions_to_promote=config.os.regions_to_promote,
        demotion_enabled=True,
    )
    fast = _run_tier(streams, HugePagePolicy.PCC, "fast", params=params,
                     fragmentation=fragmentation)
    default = _run_tier(streams, HugePagePolicy.PCC, params=params,
                        fragmentation=fragmentation)
    assert _result_fingerprint(default) == _result_fingerprint(fast)


def test_default_engine_handles_giga_promoted_regions():
    """1GB-backed regions are answered by a structure the MRU hints do
    not cover; the epoch tier classifies them as their own stream."""
    import copy

    from repro.experiments.ablations import giant_span_workload
    from repro.experiments.common import config_for

    workload = giant_span_workload(giga_regions=2, accesses=20_000)
    config = config_for(workload)
    results = []
    for tier in ("fast", None):
        sim = Simulator(config, policy=HugePagePolicy.PCC,
                        **engine_tier_switches(tier))
        results.append(sim.run([copy.deepcopy(workload)]))
    assert _result_fingerprint(results[1]) == _result_fingerprint(results[0])
