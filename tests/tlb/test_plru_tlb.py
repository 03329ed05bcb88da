"""Deterministic unit tests for the tree-PLRU replacement knob.

The property suite (``tests/props/test_plru.py``) and the reference
oracle cover PLRU breadth; these are the hand-auditable scripted cases
— the examples a reviewer can trace on paper — plus the config-layer
contract: knob validation, hierarchy policy consistency, and the
guarantee that page-walk caches stay LRU whatever the D-TLB runs.
"""

import pytest

from repro.config import (
    TLBConfig,
    scaled_config,
    tiny_config,
)
from repro.tlb.hierarchy import TLBHierarchy
from repro.tlb.tlb import TLB
from repro.tlb.walker import PageTableWalker
from repro.vm.address import PageSize


def _plru_tlb(entries=4, ways=4):
    return TLB(
        TLBConfig(entries, ways, (PageSize.BASE,), replacement="plru"),
        "unit",
    )


class TestPLRUTLB:
    def test_fill_prefers_lowest_empty_way(self):
        tlb = _plru_tlb()
        for tag in (10, 11, 12):
            assert tlb.fill(tag, PageSize.BASE) is None
        _, way_tags = tlb.plru_state(0)
        assert way_tags == [10, 11, 12, -1]

    def test_full_set_evicts_the_tree_victim_not_the_mru(self):
        tlb = _plru_tlb()
        for tag in (10, 11, 12, 13):
            tlb.fill(tag, PageSize.BASE)
        assert tlb.lookup(13)
        victim = tlb.fill(14, PageSize.BASE)
        assert victim is not None and victim != 13
        assert tlb.stats.evictions == 1

    def test_hit_refreshes_but_probe_does_not(self):
        tlb = _plru_tlb(2, 2)
        tlb.fill(0, PageSize.BASE)
        tlb.fill(2, PageSize.BASE)  # same set (1 set at 2 entries/2 ways)
        assert tlb.lookup(0)  # way 0 becomes MRU
        assert tlb.probe(2)  # a probe must not promote way 1
        assert tlb.fill(4, PageSize.BASE) == 2

    def test_invalidate_frees_the_way_but_keeps_direction_bits(self):
        tlb = _plru_tlb()
        for tag in (10, 11, 12, 13):
            tlb.fill(tag, PageSize.BASE)
        bits_before, _ = tlb.plru_state(0)
        assert tlb.invalidate(11)
        bits_after, way_tags = tlb.plru_state(0)
        assert bits_after == bits_before  # hardware does not rewind
        assert way_tags[1] == -1
        # the freed way is refilled before anyone is evicted
        assert tlb.fill(15, PageSize.BASE) is None
        assert tlb.plru_state(0)[1][1] == 15

    def test_flush_resets_entries_and_tree(self):
        tlb = _plru_tlb()
        for tag in (10, 11, 12, 13):
            tlb.fill(tag, PageSize.BASE)
        tlb.flush()
        bits, way_tags = tlb.plru_state(0)
        assert bits == 0
        assert way_tags == [-1] * 4
        assert tlb.occupancy() == 0
        assert tlb.stats.invalidations == 4

    def test_two_way_plru_equals_lru(self):
        """A 2-way tree is one direction bit — exactly LRU. This is why
        the all-2-way tiny config alone cannot validate the knob."""
        lru = TLB(TLBConfig(2, 2, (PageSize.BASE,)), "lru")
        plru = _plru_tlb(2, 2)
        import random

        rng = random.Random(42)
        for _ in range(400):
            tag = rng.randrange(6)
            if rng.random() < 0.5:
                assert lru.lookup(tag) == plru.lookup(tag)
            else:
                assert lru.fill(tag, PageSize.BASE) == plru.fill(
                    tag, PageSize.BASE
                )
        assert lru.resident_tags() == plru.resident_tags()

    def test_recency_sets_hide_entries_only_under_plru(self):
        """Dict order is recency only under LRU, so only LRU exposes
        its live sets to callers that refresh recency by reinsert."""
        lru = TLB(TLBConfig(4, 4, (PageSize.BASE,)), "lru")
        assert lru.recency_sets is lru.sets
        plru = _plru_tlb()
        plru.fill(10, PageSize.BASE)
        assert plru.recency_sets == [{}]
        assert 10 in plru.sets[0]


class TestConfigKnob:
    def test_bad_replacement_name_is_rejected(self):
        with pytest.raises(ValueError, match="replacement"):
            TLBConfig(4, 2, (PageSize.BASE,), replacement="fifo")

    def test_mixed_policy_hierarchy_is_rejected(self):
        config = tiny_config().tlb
        mixed = config.__class__(
            l1_base=TLBConfig(4, 2, (PageSize.BASE,), replacement="plru"),
            l1_huge=config.l1_huge,
            l1_giga=config.l1_giga,
            l2=config.l2,
        )
        with pytest.raises(ValueError, match="mixed"):
            TLBHierarchy(mixed)

    def test_with_tlb_replacement_rewrites_all_four_structures(self):
        config = scaled_config().with_tlb_replacement("plru")
        tlb = config.tlb
        assert {
            tlb.l1_base.replacement,
            tlb.l1_huge.replacement,
            tlb.l1_giga.replacement,
            tlb.l2.replacement,
        } == {"plru"}
        # geometry is untouched
        assert tlb.l1_base.entries == scaled_config().tlb.l1_base.entries

    def test_pwcs_stay_lru_under_the_plru_knob(self):
        """Real page-walk caches are LRU regardless of the D-TLB
        policy; the walker must not inherit the hierarchy's knob."""
        config = tiny_config().with_tlb_replacement("plru")
        walker = PageTableWalker(config.walker)
        for pwc in walker._pwcs:
            assert pwc.config.replacement == "lru"


class TestHierarchyUnderPLRU:
    def test_lookup_rebinding_keeps_attribution(self):
        config = tiny_config().with_tlb_replacement("plru").tlb
        hierarchy = TLBHierarchy(config)
        assert hierarchy.lookup.__func__ is TLBHierarchy._lookup_plru
        vpn = 0x1234
        result = hierarchy.lookup(vpn)
        assert result.walk_required
        # the clean miss is attributed once, to the 4KB structure
        assert hierarchy.l1_base.stats.misses == 1
        assert hierarchy.l2.stats.misses == 1
        hierarchy.fill(vpn, PageSize.BASE)
        assert not hierarchy.lookup(vpn).walk_required
        assert hierarchy.l1_base.stats.hits == 1
