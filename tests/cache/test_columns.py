"""The column store behind the cache's tag state.

Covers the storage contract the chunked hot loop depends on: column
shapes and initial values, the cache attributes aliasing the store,
and the fast install/ownership twins producing the same column state
as their legacy counterparts, with deferred bookkeeping from which the
legacy stats derive.
"""

from repro.cache.cache import (
    TALLY_BUS,
    TALLY_CACHE_SLOTS,
    TALLY_COLD_FILLS,
    TALLY_WRITE_BACKS,
    VirtualCache,
)
from repro.cache.columns import COLUMNS, FLAG_COLUMNS, ColumnStore
from repro.cache.bus import SnoopyBus
from repro.common.params import CacheGeometry, MemoryTiming
from repro.common.types import Protection

def small_cache(name="c0"):
    return VirtualCache(
        CacheGeometry(size_bytes=1024, block_bytes=32),
        MemoryTiming(),
        name=name,
    )


class TestColumnStore:
    def test_shapes_and_initial_values(self):
        store = ColumnStore(32)
        names = dict(store.columns())
        assert set(names) == set(COLUMNS)
        assert set(FLAG_COLUMNS) < set(COLUMNS)
        for name, column in names.items():
            assert type(column) is list and len(column) == 32
            assert set(column) == {-1 if name == "line_block" else 0}

    def test_cache_attributes_alias_the_store(self):
        cache = small_cache()
        for name, column in cache.columns.columns():
            assert getattr(cache, name) is column


class TestFastTwins:
    """fill_fast / acquire_ownership_fast mirror the legacy methods:
    identical column state, with bookkeeping deferred into the tally
    instead of the live stats/counters."""

    FILLS = 3  # fills per drive()

    def tally(self):
        return [0] * TALLY_CACHE_SLOTS

    def columns_state(self, cache):
        state = {name: list(col) for name, col in cache.columns.columns()}
        state["state"] = list(cache.state)
        return state

    def drive(self, cache, fast, tally):
        fills = [
            (0x400, int(Protection.READ_WRITE), False, False, False),
            (0x800, int(Protection.READ_WRITE), True, True, False),
            # Conflicts with 0x400's line after it was dirtied below,
            # forcing the eviction + write-back path.
            (0x400 + 1024, int(Protection.KERNEL), True, False, True),
        ]
        cycles = 0
        for step, (vaddr, prot, page_dirty, by_write, holds) in enumerate(
            fills
        ):
            if fast:
                cycles += cache.fill_fast(vaddr, prot, page_dirty,
                                          by_write, holds, tally)
            else:
                _, fill_cycles = cache.fill(
                    vaddr, Protection(prot), page_dirty=page_dirty,
                    by_write=by_write, holds_pte=holds,
                )
                cycles += fill_cycles
            if step == 0:
                index = cache.probe(vaddr)
                cache.block_dirty[index] = True
                if fast:
                    cache.acquire_ownership_fast(index, tally)
                else:
                    cache.acquire_ownership(index)
        return cycles

    def test_fast_matches_legacy_columns_and_cycles(self):
        legacy = small_cache("legacy")
        SnoopyBus().attach(legacy)
        fast = small_cache("fast")
        SnoopyBus().attach(fast)
        tally = self.tally()

        legacy_cycles = self.drive(legacy, fast=False, tally=tally)
        fast_cycles = self.drive(fast, fast=True, tally=tally)

        assert fast_cycles == legacy_cycles
        assert self.columns_state(fast) == self.columns_state(legacy)

    def test_tally_carries_the_deferred_bookkeeping(self):
        legacy = small_cache("legacy")
        SnoopyBus().attach(legacy)
        fast = small_cache("fast")
        SnoopyBus().attach(fast)
        tally = self.tally()

        self.drive(legacy, fast=False, tally=tally)
        self.drive(fast, fast=True, tally=tally)

        # The owner counts its fill_fast calls; the tally supplies what
        # the legacy stats and private bus derive from.
        assert fast.stats["fills"] == 0
        assert legacy.stats["fills"] == self.FILLS
        assert self.FILLS - tally[TALLY_COLD_FILLS] == (
            legacy.stats["evictions"]
        )
        assert tally[TALLY_WRITE_BACKS] == legacy.stats["write_backs"]
        assert self.FILLS + tally[TALLY_WRITE_BACKS] + tally[TALLY_BUS] == (
            legacy.bus.transactions
        )
        assert fast.bus.transactions == 0

    def test_fast_ownership_broadcasts_live_with_peers(self):
        bus = SnoopyBus()
        a = small_cache("a")
        b = small_cache("b")
        bus.attach(a)
        bus.attach(b)
        assert a.has_peers and b.has_peers
        a.fill(0x400, Protection.READ_WRITE, False, False)
        b.fill(0x400, Protection.READ_WRITE, False, False)
        tally = self.tally()
        index = a.probe(0x400)
        a.acquire_ownership_fast(index, tally)
        # Live broadcast, not tallied: the peer must have snooped.
        assert tally[TALLY_BUS] == 0
        assert bus.transactions == 3  # two fills + the ownership op
        assert b.probe(0x400) < 0  # invalidated by the snoop
