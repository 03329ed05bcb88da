"""One simulated core: TLB hierarchy + walker + per-core PCCs.

The core consumes page-granular trace records and produces translation
cycle costs. It is the hardware half of the co-design: everything here
runs "below" the OS, and the only southbound interface is the ranked
candidate dump; the only northbound one is the shootdown.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SystemConfig
from repro.core.pcc import PromotionCandidateCache
from repro.tlb.hierarchy import HitLevel, TLBHierarchy
from repro.tlb.walker import PageTableWalker
from repro.vm.address import BASE_PAGE_SHIFT
from repro.vm.pagetable import PageTable


@dataclass
class CoreStats:
    """Per-core access/translation counters."""

    accesses: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    walks: int = 0
    translation_cycles: int = 0

    @property
    def walk_rate(self) -> float:
        """Fraction of accesses requiring a page table walk (PTW %)."""
        return self.walks / self.accesses if self.accesses else 0.0

    def as_metrics(self, prefix: str) -> dict[str, int]:
        """Counter readings for the metrics registry, under ``prefix``."""
        return {
            f"{prefix}.accesses": self.accesses,
            f"{prefix}.l1_hits": self.l1_hits,
            f"{prefix}.l2_hits": self.l2_hits,
            f"{prefix}.walks": self.walks,
            f"{prefix}.translation_cycles": self.translation_cycles,
        }


class Core:
    """TLBs, walker and PCCs for one hardware thread."""

    def __init__(
        self,
        config: SystemConfig,
        core_id: int = 0,
        shared_pcc: PromotionCandidateCache | None = None,
    ) -> None:
        self.config = config
        self.core_id = core_id
        self.tlb = TLBHierarchy(config.tlb)
        self.walker = PageTableWalker(config.walker)
        # §3.2.2: per-core PCCs by default; a single global structure
        # can be injected to model the shared design alternative.
        # (Explicit None-check: an empty PCC is falsy via __len__.)
        self.pcc = (
            shared_pcc
            if shared_pcc is not None
            else PromotionCandidateCache(config.pcc)
        )
        self.pcc_1gb = (
            PromotionCandidateCache(config.pcc, capacity=config.pcc.giga_entries)
            if config.pcc.giga_enabled and config.pcc.giga_entries > 0
            else None
        )
        self.stats = CoreStats()
        # Hot-path constants and bound methods hoisted out of the
        # config dataclasses / object graph: translate() runs per TLB
        # probe and each saved attribute chain is two dict lookups.
        self._l1_hit_cycles = config.timing.l1_tlb_hit_cycles
        self._l2_hit_cycles = config.timing.l2_tlb_hit_cycles
        self._tlb_lookup = self.tlb.lookup
        self._tlb_fill = self.tlb.fill
        self._walker_walk = self.walker.walk
        self._pcc_access = self.pcc.access
        self._pcc_1gb_access = (
            self.pcc_1gb.access if self.pcc_1gb is not None else None
        )

    def translate(self, vpn: int, page_table: PageTable, repeat: int = 1):
        """Simulate ``repeat`` consecutive accesses to 4KB page ``vpn``.

        Only the first access can miss (the rest hit the just-filled L1
        entry); the translation cycles returned cover all ``repeat``
        accesses. Base (non-translation) cycles are the timing model's
        concern, not the core's.

        Returns ``(cycles, level, page_size)``: the translation cycles,
        the :class:`~repro.tlb.hierarchy.HitLevel` that answered, and
        the effective :class:`~repro.vm.address.PageSize` of the
        translation (on a miss, the size the walk resolved and filled).
        The extra outputs let the translation pipeline maintain its
        fast-path hints without re-probing any structure.
        """
        stats = self.stats
        stats.accesses += repeat
        result = self._tlb_lookup(vpn)
        extra_hits = repeat - 1
        level = result.level
        if level is HitLevel.L1:
            stats.l1_hits += repeat
            return self._l1_hit_cycles * repeat, level, result.page_size
        if level is HitLevel.L2:
            stats.l2_hits += 1
            stats.l1_hits += extra_hits
            return (
                self._l2_hit_cycles + self._l1_hit_cycles * extra_hits,
                level,
                result.page_size,
            )

        # Full hierarchy miss: hardware walk + PCC admission (Fig. 3).
        vaddr = vpn << BASE_PAGE_SHIFT
        walk = self._walker_walk(vaddr, page_table)
        stats.walks += 1
        stats.l1_hits += extra_hits
        cycles = walk.cycles + self._l1_hit_cycles * extra_hits
        if walk.pcc_2mb_candidate is not None:
            self._pcc_access(
                walk.pcc_2mb_candidate, promoted_leaf=walk.leaf_is_promoted
            )
        if self._pcc_1gb_access is not None and walk.pcc_1gb_candidate is not None:
            self._pcc_1gb_access(
                walk.pcc_1gb_candidate, promoted_leaf=walk.leaf_is_promoted
            )
        page_size = walk.mapping.page_size
        self._tlb_fill(vpn, page_size)
        stats.translation_cycles += cycles
        return cycles, level, page_size

    def access_page(self, vpn: int, page_table: PageTable, repeat: int = 1) -> int:
        """Cycles for ``repeat`` accesses to ``vpn`` (see :meth:`translate`)."""
        return self.translate(vpn, page_table, repeat)[0]

    def shootdown(self, huge_region: int) -> None:
        """Invalidate a 2MB region everywhere on this core.

        Promotion-triggered shootdowns also invalidate the region from
        the PCC (§3.3), preventing stale candidates. The 1GB PCC keeps
        its entry for the enclosing gigabyte, as hardware would.
        """
        self.tlb.shootdown_region(huge_region)
        self.pcc.invalidate(huge_region)

    def dump_pcc(self):
        """Ranked 2MB candidates without clearing (on-demand OS read)."""
        return self.pcc.ranked()

    def dump_pcc_1gb(self):
        """Ranked 1GB candidates (empty when the 1GB PCC is disabled)."""
        return self.pcc_1gb.ranked() if self.pcc_1gb is not None else []
