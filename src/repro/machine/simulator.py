"""The SPUR machine: cache + translation + VM + policies + counters.

Two loops process references.  :meth:`SpurMachine.run` consumes
``(kind, vaddr)`` tuples one at a time and is the *spec*: the simplest
statement of the cache/translation/fault semantics, which every faster
path must match bit for bit.  :meth:`SpurMachine.run_chunks` is the
hot path every experiment uses: it consumes flat reference chunks,
reads the cache's tag columns directly (they are public for
exactly this purpose), keeps its bookkeeping in local variables and a
deferred tally, and falls into method calls only on the rare paths:
misses, write hits needing dirty-bit work, faults.

Cycle model (Table 2.1, Section 3.2):

* cache hit — 1 cycle;
* cache miss — 1 cycle plus translation (3 cycles if the PTE is
  cached, block fetches otherwise) plus the block transfer;
* dirty/reference faults, flushes, page faults, paging I/O — charged
  by the policy and VM code via :class:`repro.common.params.
  FaultTiming`.
"""

import sys

from repro.common.errors import ProtectionFault
from repro.common.types import AccessKind, Protection
from repro.common.units import SPUR_CYCLE_TIME_SECONDS
from repro.counters.counters import PerformanceCounters
from repro.counters.events import Event
from repro.cache.bus import SnoopyBus
from repro.cache.cache import (
    TALLY_BUS,
    TALLY_CACHE_SLOTS,
    TALLY_COLD_FILLS,
    TALLY_WRITE_BACKS,
    VirtualCache,
)
from repro.cache.coherence import BusOp, CoherencyState
from repro.cache.flush import TagCheckedFlush, TaglessFlush
from repro.machine.cpu import ReferenceMix
from repro.policies.dirty import make_dirty_policy
from repro.policies.reference import make_reference_policy
from repro.translation.incache import InCacheTranslator
from repro.translation.pagetable import PTE_BYTES, PageTable, PageTableLayout
from repro.vm.swap import SwapDevice
from repro.vm.system import VirtualMemorySystem, VmPage

_WRITE = int(AccessKind.WRITE)
_RW = int(Protection.READ_WRITE)
_PROT_KERNEL = int(Protection.KERNEL)
_UNOWNED = CoherencyState.UNOWNED
_OWNED_EXCLUSIVE = CoherencyState.OWNED_EXCLUSIVE
_BUS_READ = BusOp.READ
_BUS_READ_OWNED = BusOp.READ_OWNED
_BUS_WRITE_BACK = BusOp.WRITE_BACK
_BUS_FOR_OWNERSHIP = BusOp.WRITE_FOR_OWNERSHIP

# Simulator-side slots in the chunked loop's deferred tally (the cache
# owns slots [0, TALLY_CACHE_SLOTS); see repro.cache.cache).  Each slot
# accumulates one counter event; ``_flush_tally`` applies them in one
# ``increment(event, n)`` per event, which is exact because counter
# arithmetic is modular addition and nothing samples the counter bank
# mid-call.  The three kind-miss slots are consecutive, in kind order,
# so a miss tallies ``_T_MISSES + kind``.
#
# Everything else is derived at flush time instead of paying a tally op
# per event.  Every miss translates, fills its data block and looks the
# PTE up in the cache (TRANSLATION = BLOCK_FILL = misses, PTE hits =
# misses - PTE misses); every PTE miss makes one second-level lookup
# that either hits or fetches from memory (SECOND_LEVEL_LOOKUP = PTE
# misses, second-level hits = PTE misses - memory fetches); the fast
# path commits a write miss only after the writability checks
# (WRITE_MISS_FILL = write misses); cache fills are data fills + PTE
# fills + second-level fills; and a clean block hit by a write is
# always one that a read filled (WRITE_TO_READ_FILLED_BLOCK =
# WRITE_HIT_CLEAN_BLOCK; see repro.cache.columns).
_T_MISSES = TALLY_CACHE_SLOTS
_T_IFETCH_MISS = _T_MISSES + 0
_T_READ_MISS = _T_MISSES + 1
_T_WRITE_MISS = _T_MISSES + 2
_T_PTE_MISS = TALLY_CACHE_SLOTS + 3
_T_SECOND_MEMORY = TALLY_CACHE_SLOTS + 4
_T_WRITE_HIT_CLEAN = TALLY_CACHE_SLOTS + 5
_TALLY_SLOTS = TALLY_CACHE_SLOTS + 6

# Byte patterns for C-speed kind tallies over a flat chunk's kind
# slice (``array('q')``, so 8 bytes per element, native byte order).
# Kinds are 0/1/2 by protocol, so the only nonzero bytes in the slice
# are aligned kind bytes: a zero element is exactly one aligned 8-zero
# run (maximal runs of 7+8k or 8k zero bytes yield k greedy matches),
# and a WRITE match can only start at an aligned 2-byte.  Both counts
# are therefore exact.
_KIND_ZERO_BYTES = bytes(8)
_KIND_WRITE_BYTES = (2).to_bytes(8, sys.byteorder)


def _make_flusher(strategy, cost_scale=1):
    if strategy == "tag-checked":
        return TagCheckedFlush(
            loop_cycles=2 * cost_scale,
            check_cycles=1 * cost_scale,
            flush_cycles=10 * cost_scale,
        )
    if strategy == "tagless":
        return TaglessFlush(op_cycles=12 * cost_scale)
    raise ValueError(f"unknown flush strategy {strategy!r}")


class SpurMachine:
    """One SPUR processor board plus memory, swap, and Sprite VM.

    Parameters
    ----------
    config:
        :class:`repro.machine.config.MachineConfig`.
    space_map:
        The workload's :class:`repro.vm.segments.AddressSpaceMap`.
    counters:
        Optional pre-built counter bank (defaults to the omniscient
        mode; pass a moded bank to reproduce the hardware's
        sixteen-at-a-time limitation).
    bus:
        Optional shared :class:`SnoopyBus` for multiprocessor setups;
        a private bus is created when omitted.
    """

    def __init__(self, config, space_map, counters=None, bus=None,
                 name=None, page_table=None, vm=None, swap=None):
        self.config = config
        self.name = name or config.name
        self.counters = counters or PerformanceCounters()
        self.fault_timing = config.fault_timing
        self.page_bytes = config.page_bytes
        self.page_bits = config.page_geometry.page_bits
        self.zero_fill_cycles = config.zero_fill_cycles

        self.cache = VirtualCache(
            config.cache, config.memory_timing, name=f"{self.name}.cache"
        )
        self.cache.counters = self.counters
        self.bus = bus or SnoopyBus(name=f"{self.name}.bus",
                                    counters=self.counters)
        self.bus.attach(self.cache)
        self.flusher = _make_flusher(
            config.flush_strategy, config.flush_cost_scale
        )

        # Page table, swap, and VM may be shared across processors of
        # an SmpSystem; a standalone machine builds its own.
        if page_table is None:
            layout = PageTableLayout(
                page_bytes=config.page_bytes,
                pte_base=config.pte_base,
                second_level_base=config.second_level_base,
                user_limit=config.user_limit,
            )
            page_table = PageTable(layout)
        self.page_table = page_table
        self.translator = InCacheTranslator(
            self.page_table, self.cache, counters=self.counters
        )

        self.swap = swap or SwapDevice(
            io_cycles=config.fault_timing.page_io
        )
        if vm is None:
            vm = VirtualMemorySystem.from_config(
                config, self.page_table, space_map, self.swap
            )
            vm.attach_machine(self)
        self.vm = vm

        self.dirty_policy = make_dirty_policy(config.dirty_policy)
        self.reference_policy = make_reference_policy(
            config.reference_policy
        )
        # The batched resolver's per-policy miss work, bound once (see
        # the contracts on DirtyBitPolicy): the install's page-dirty
        # copy is set outright unless it tracks the PTE, and a set
        # dirty bit (or, where the policy says so, a set software
        # dirty bit) makes ``on_write_miss`` a no-op to skip.
        self._install_page_dirty = (
            not self.dirty_policy.cached_dirty_tracks_pte
        )
        self._write_miss_software_settles = (
            self.dirty_policy.write_miss_settled_by_software_dirty
        )

        self.cycles = 0
        self.references = 0
        self.reference_mix = ReferenceMix()
        #: Set by SmpSystem when this processor joins a shared-memory
        #: system; page flushes then cover every cache in the domain.
        self.system = None

        # Batched-resolver prebinds: structural constants of the page
        # table layout and translator timing (both frozen), plus bound
        # dict lookups for side-effect-free PTE / page-record probes.
        # The dicts themselves are created once and never rebound.
        layout = self.page_table.layout
        self._pte_base = layout.pte_base
        self._second_level_base = layout.second_level_base
        self._pte_peek = self.page_table.peek
        self._page_records = self.vm.pages
        self._page_peek = self.vm.pages.get
        self._region_of = self.vm.space_map.region_of
        self._vm_page_bytes = self.vm.page_bytes
        self._pte_check_cycles = self.translator.timing.pte_check_cycles
        self._second_check_cycles = (
            self.translator.timing.second_level_check_cycles
        )

    # -- coherence-domain operations ---------------------------------------

    def caches(self):
        """All caches page-granularity operations must cover."""
        if self.system is not None:
            return self.system.caches()
        return (self.cache,)

    def flush_page(self, page_vaddr):
        """Flush one page from every cache in the coherence domain.

        This is the primitive behind the FLUSH dirty-bit alternative,
        the REF policy's flush-on-clear, and page eviction.  On a
        multiprocessor it must run on *all* caches — the cost the
        paper cites when arguing the REF policy gets worse with more
        processors.  Returns total cycles.
        """
        cycles = 0
        lines_checked = 0
        write_backs = 0
        for cache in self.caches():
            result = self.flusher.flush_page(
                cache, page_vaddr, self.page_bytes
            )
            lines_checked += result.lines_checked
            write_backs += result.write_backs
            cycles += result.cycles
        self.counters.increment(Event.FLUSH_OPERATION, lines_checked)
        self.counters.increment(Event.FLUSH_WRITE_BACK, write_backs)
        return cycles

    # -- reference loops -------------------------------------------------

    def run(self, accesses):
        """Simulate a stream of ``(kind, vaddr)`` references.

        The spec loop: :meth:`run_chunks` must match it bit for bit.
        ``kind`` is an ``int(AccessKind)``; workload generators yield
        plain ints to keep this loop allocation-free.  Returns the
        number of references processed.
        """
        cache = self.cache
        line_block = cache.line_block
        block_dirty = cache.block_dirty
        page_dirty = cache.page_dirty
        prot = cache.prot
        block_bits = cache.block_bits
        index_mask = cache.index_mask
        slow_write_hit = self._slow_write_hit
        miss = self._miss

        interval = self.config.daemon_poll_refs
        poll = self.vm.daemon.poll if interval else None
        # Countdown to the next daemon poll: the schedule polls before
        # every ``interval``-th reference of the call, for any positive
        # interval.  With polling disabled the countdown starts at
        # (float) infinity so the zero test below never fires and the
        # loop stays branch-light.
        until_poll = interval if poll is not None else float("inf")

        cycles = 0
        kind_counts = [0, 0, 0]
        processed = 0
        for kind, vaddr in accesses:
            processed += 1
            until_poll -= 1
            if not until_poll:
                cycles += poll()
                until_poll = interval
            kind_counts[kind] += 1
            block = vaddr >> block_bits
            index = block & index_mask
            if line_block[index] == block:
                if kind != _WRITE:
                    cycles += 1
                    continue
                if (
                    block_dirty[index]
                    and page_dirty[index]
                    and prot[index] == _RW
                ):
                    cycles += 1
                    continue
                cycles += 1 + slow_write_hit(index, vaddr)
                continue
            cycles += 1 + miss(kind, vaddr)

        self.cycles += cycles
        self.references += processed
        mix = ReferenceMix(
            ifetches=kind_counts[0],
            reads=kind_counts[1],
            writes=kind_counts[2],
        )
        mix.flush_to_counters(self.counters)
        self.reference_mix.add(mix.ifetches, mix.reads, mix.writes)
        return processed

    def run_chunks(self, chunks):
        """Simulate a stream of flat reference chunks.

        ``chunks`` yields ``array('q')`` buffers of interleaved
        ``kind, vaddr`` pairs (see
        :meth:`repro.workloads.base.WorkloadInstance.access_chunks`).
        Bit-identical to feeding the same references through
        :meth:`run`, but several times faster: each chunk is cut into
        poll-free segments (computed arithmetically, so any positive
        ``daemon_poll_refs`` works) and every segment goes through
        :meth:`_run_refs`, a single-compare per-reference loop against
        the cache's tag columns.  Kind tallies come from byte-pattern
        counts over the chunk's kind slice (memchr speed, no
        per-element boxing), the per-reference cycle charge is folded
        into one addition per call, and miss-path bookkeeping is
        deferred into a per-call tally flushed by :meth:`_flush_tally`.
        Returns the number of references processed.
        """
        run_refs = self._run_refs
        interval = self.config.daemon_poll_refs
        poll = self.vm.daemon.poll if interval else None
        tally = [0] * _TALLY_SLOTS

        cycles = 0
        extra = 0
        ifetches = 0
        reads = 0
        writes = 0
        processed = 0
        try:
            for chunk in chunks:
                pairs = len(chunk) >> 1
                if not pairs:
                    continue
                kind_bytes = chunk[0::2].tobytes()
                chunk_ifetches = kind_bytes.count(_KIND_ZERO_BYTES)
                chunk_writes = kind_bytes.count(_KIND_WRITE_BYTES)
                ifetches += chunk_ifetches
                writes += chunk_writes
                reads += pairs - chunk_ifetches - chunk_writes
                # Kind-uniform read or ifetch chunks let the segment
                # loop carry vaddrs only (kind held constant); chunks
                # containing writes stay mixed because write hits need
                # the settled-dirty test.
                if chunk_writes:
                    uniform = -1
                elif chunk_ifetches == 0:
                    uniform = 1
                elif chunk_ifetches == pairs:
                    uniform = 0
                else:
                    uniform = -1
                start = 0
                while start < pairs:
                    if poll is None:
                        stop = pairs
                    else:
                        # References left before the next poll
                        # boundary: the legacy loop polls before
                        # handling every ``interval``-th reference of
                        # the call, so ``processed % interval ==
                        # interval - 1`` means the next reference
                        # polls first.
                        stop = start + interval - 1 - (
                            processed % interval
                        )
                        if stop > pairs:
                            stop = pairs
                    if stop > start:
                        extra += run_refs(
                            chunk, start, stop, tally, uniform
                        )
                        processed += stop - start
                        start = stop
                    if start < pairs:
                        # The next reference lands on the poll
                        # boundary: poll first, then process it as a
                        # one-reference segment.
                        cycles += poll()
                        extra += run_refs(
                            chunk, start, start + 1, tally, uniform
                        )
                        processed += 1
                        start += 1
        finally:
            # Deferred bookkeeping must land even when a slow path
            # raises (protection faults propagate to the caller with
            # the same counter state the legacy loop would leave).
            self._flush_tally(tally)

        # Deferred accounting: every reference costs its base cycle
        # (hence ``+ processed``); slow paths and the resolver added
        # theirs to ``extra``, polls to ``cycles``.
        self.cycles += cycles + extra + processed
        self.references += processed
        mix = ReferenceMix(
            ifetches=ifetches, reads=reads, writes=writes
        )
        mix.flush_to_counters(self.counters)
        self.reference_mix.add(mix.ifetches, mix.reads, mix.writes)
        return processed

    def _run_refs(self, chunk, start, end, tally, uniform):
        """Per-reference loop over the poll-free segment
        ``chunk[start:end)`` (pair indices).

        ``uniform`` >= 0 pins every reference's kind (a kind-uniform
        read/ifetch chunk), enabling a vaddr-only loop.  Returns extra
        cycles beyond the base charge.
        """
        cache = self.cache
        line_block = cache.line_block
        block_dirty = cache.block_dirty
        page_dirty = cache.page_dirty
        prot = cache.prot
        block_bits = cache.block_bits
        index_mask = cache.index_mask
        write_hit = self._resolve_write_hit
        resolve = self._resolve_miss
        extra = 0
        lo = start << 1
        hi = end << 1
        if uniform >= 0:
            for vaddr in chunk[lo + 1:hi:2]:
                block = vaddr >> block_bits
                if line_block[block & index_mask] != block:
                    extra += resolve(uniform, vaddr, tally)
            return extra
        it = iter(chunk[lo:hi])
        for kind, vaddr in zip(it, it):
            block = vaddr >> block_bits
            if line_block[block & index_mask] == block:
                if kind != 2:
                    continue
                index = block & index_mask
                if (
                    block_dirty[index]
                    and page_dirty[index]
                    and prot[index] == _RW
                ):
                    continue
                extra += write_hit(index, vaddr, tally)
                continue
            extra += resolve(kind, vaddr, tally)
        return extra

    def _resolve_miss(self, kind, vaddr, tally):
        """Batched-path twin of :meth:`_miss` with deferred counters.

        Commits every miss that cannot raise: page faults (first
        touches included), reference-bit faults and write misses
        needing dirty-bit work run here, with the VM and policy hooks
        called live in :meth:`_miss`'s order — page fault, reference
        check, dirty-bit work, then the install — so a daemon run or a
        FLUSH page flush mutates the columns before the data block
        lands, exactly as on the legacy path.  Only the two
        :class:`~repro.common.errors.ProtectionFault` cases (an
        unmapped address, a write to a read-only region) delegate to
        :meth:`_miss`, and they are detected *before* any state or
        tally slot is touched, so the derived counters and the counter
        state at the raise stay exact.  :meth:`_miss`,
        :meth:`~repro.translation.incache.InCacheTranslator.translate`
        and :meth:`~repro.cache.cache.VirtualCache.fill` otherwise
        serve only the spec :meth:`run`.

        The per-policy work is bound when the machine is built: the
        install's page-dirty copy (set under WRITE, the PTE's modified
        state otherwise, as :meth:`~repro.policies.dirty.
        DirtyBitPolicy.fill_page_dirty` returns) and the test under
        which :meth:`~repro.policies.dirty.DirtyBitPolicy.
        on_write_miss` is a zero-cycle no-op, so the call is skipped.
        A first touch creates the page record once, here, and hands
        it to :meth:`~repro.vm.system.VirtualMemorySystem.
        handle_page_fault`.

        The in-cache PTE walk of
        :class:`~repro.translation.incache.InCacheTranslator` is
        replayed as plain arithmetic against the ``line_block``
        column; PTE blocks are installed through :meth:`~repro.cache.
        cache.VirtualCache.fill_fast` and the data block's install is
        the same column sequence inlined (this method is a sanctioned
        tag-array writer), recording in ``tally`` only what
        :meth:`_flush_tally` cannot derive.  Returns cycles.
        """
        vpn = vaddr >> self.page_bits
        pte = self._pte_peek(vpn)
        is_write = kind == 2
        faults = pte is None or not pte.valid
        if faults or is_write:
            # The legacy path looks the page record up (and raises on
            # an unmapped address) when it faults or writes.
            page = self._page_peek(vpn)
            if page is None:
                region = self._region_of(vpn * self._vm_page_bytes)
                if region is None or (is_write and not region.writable):
                    return self._miss(kind, vaddr)
                # First touch: the one lookup of the page's region.
                page = self._page_records[vpn] = VmPage(vpn, region)
            elif is_write and not page.region.writable:
                return self._miss(kind, vaddr)
            if pte is None:
                pte = self.page_table.entry(vpn)

        cache = self.cache
        line_block = cache.line_block
        block_bits = cache.block_bits
        index_mask = cache.index_mask
        tally[_T_MISSES + kind] += 1
        cycles = self._pte_check_cycles
        pte_vaddr = self._pte_base + vpn * PTE_BYTES
        block = pte_vaddr >> block_bits
        if line_block[block & index_mask] != block:
            tally[_T_PTE_MISS] += 1
            cycles += self._second_check_cycles
            second_vaddr = self._second_level_base + (
                pte_vaddr >> self.page_bits
            ) * PTE_BYTES
            sblock = second_vaddr >> block_bits
            if line_block[sblock & index_mask] != sblock:
                tally[_T_SECOND_MEMORY] += 1
                cycles += cache.fill_fast(
                    second_vaddr, _PROT_KERNEL, 1, 0, 1, tally
                )
            cycles += cache.fill_fast(
                pte_vaddr, _PROT_KERNEL, 1, 0, 1, tally
            )
        if faults:
            cycles += self.vm.handle_page_fault(vpn, page)
        if not pte.referenced:
            # Every reference policy's miss hook is a no-op on a set
            # bit.
            cycles += self.reference_policy.on_cache_miss(self, pte)
        if is_write and not (
            pte.dirty
            or (self._write_miss_software_settles and pte.software_dirty)
        ):
            cycles += self.dirty_policy.on_write_miss(self, pte, page)
        # Data-block install: fill_fast's exact column sequence,
        # inlined to reuse this frame's locals on the per-miss hot
        # path.  The hooks above may have flushed or evicted lines, so
        # the target line is read only now.
        block = vaddr >> block_bits
        index = block & index_mask
        transfer = cache.block_transfer_cycles
        cycles += transfer
        if line_block[index] < 0:
            tally[TALLY_COLD_FILLS] += 1
        elif cache.block_dirty[index]:
            cycles += transfer
            tally[TALLY_WRITE_BACKS] += 1
            if cache.has_peers:
                cache.bus.broadcast(cache, _BUS_WRITE_BACK,
                                    line_block[index] << block_bits)
        line_block[index] = block
        cache.prot[index] = pte.protection
        cache.page_dirty[index] = (
            self._install_page_dirty or pte.dirty or pte.software_dirty
        )
        cache.holds_pte[index] = 0
        if is_write:
            cache.block_dirty[index] = 1
            cache.state[index] = _OWNED_EXCLUSIVE
            bus_op = _BUS_READ_OWNED
        else:
            cache.block_dirty[index] = 0
            cache.state[index] = _UNOWNED
            bus_op = _BUS_READ
        if cache.has_peers:
            cache.bus.broadcast(cache, bus_op, vaddr)
        return cycles

    def _resolve_write_hit(self, index, vaddr, tally):
        """Batched-path twin of :meth:`_slow_write_hit`.

        Commits only when the hit is provably free of policy work: the
        PTE and page record already exist (so no first-touch creation),
        the region is writable, and the dirty policy's write-hit hook
        is a zero-cycle no-op
        (:meth:`~repro.policies.dirty.DirtyBitPolicy.
        write_hit_settled`).  Everything else — protection faults,
        dirty-bit faults, cached-copy refreshes, page flushes —
        delegates to the legacy :meth:`_slow_write_hit` *before* any
        state or tally is touched.

        The commit path mirrors the legacy bookkeeping exactly: the
        clean-block counter is deferred into a tally slot (the
        read-filled-block counter is derived from it), the block-dirty
        bit is set, and the Berkeley write-hit transition is applied
        (the two common cases inline, the rest through
        :meth:`~repro.cache.cache.VirtualCache.acquire_ownership_fast`;
        the settled handler cannot have moved the block, so no
        re-probe is needed).  The slow path's region-writable recheck
        is covered by the predicate's contract — settled implies the
        write cannot protection-fault — so only the record-existence
        peeks remain.  Returns cycles (always 0: a settled write hit
        is free).
        """
        cache = self.cache
        if not self.dirty_policy.write_hit_settled(cache, index):
            return self._slow_write_hit(index, vaddr)
        vpn = vaddr >> self.page_bits
        if self._pte_peek(vpn) is None or self._page_peek(vpn) is None:
            return self._slow_write_hit(index, vaddr)
        if not cache.block_dirty[index]:
            tally[_T_WRITE_HIT_CLEAN] += 1
            cache.block_dirty[index] = 1
        state = cache.state[index]
        if state is not _OWNED_EXCLUSIVE:
            if state is _UNOWNED:
                cache.state[index] = _OWNED_EXCLUSIVE
                if cache.has_peers:
                    cache.bus.broadcast(
                        cache, _BUS_FOR_OWNERSHIP,
                        cache.line_block[index] << cache.block_bits,
                    )
                elif cache.bus is not None:
                    tally[TALLY_BUS] += 1
            else:
                cache.acquire_ownership_fast(index, tally)
        return 0

    def _flush_tally(self, tally):
        """Apply one chunk run's deferred tallies to the live books.

        Exact regardless of where the run stopped: counter increments
        are modular sums, stats are plain sums, and nothing samples
        the books mid-call (the observer and sanitizer both cut
        between calls).  The derived events follow the tally-slot
        table at the top of this module.
        """
        cache = self.cache
        stats = cache.stats
        misses = (tally[_T_IFETCH_MISS] + tally[_T_READ_MISS]
                  + tally[_T_WRITE_MISS])
        pte_misses = tally[_T_PTE_MISS]
        second_memory = tally[_T_SECOND_MEMORY]
        write_backs = tally[TALLY_WRITE_BACKS]
        fills = misses + pte_misses + second_memory
        if fills:
            stats["fills"] += fills
            stats["evictions"] += fills - tally[TALLY_COLD_FILLS]
        if write_backs:
            stats["write_backs"] += write_backs
        # Live broadcasts already counted every transaction on a
        # shared bus; a private bus carries one per fill and one per
        # write-back besides the tallied ownership upgrades.
        bus_count = tally[TALLY_BUS]
        if not cache.has_peers:
            bus_count += fills + write_backs
        if bus_count:
            cache.bus.transactions += bus_count
        write_hits_clean = tally[_T_WRITE_HIT_CLEAN]
        increment = self.counters.increment
        for event, count in (
            (Event.WRITE_BACK, write_backs),
            (Event.BUS_TRANSACTION, bus_count),
            (Event.TRANSLATION, misses),
            (Event.BLOCK_FILL, misses),
            (Event.SECOND_LEVEL_LOOKUP, pte_misses),
            (Event.WRITE_MISS_FILL, tally[_T_WRITE_MISS]),
            (Event.PTE_CACHE_HIT, misses - pte_misses),
            (Event.PTE_CACHE_MISS, pte_misses),
            (Event.SECOND_LEVEL_CACHE_HIT, pte_misses - second_memory),
            (Event.SECOND_LEVEL_MEMORY_ACCESS, second_memory),
            (Event.IFETCH_MISS, tally[_T_IFETCH_MISS]),
            (Event.READ_MISS, tally[_T_READ_MISS]),
            (Event.WRITE_MISS, tally[_T_WRITE_MISS]),
            (Event.WRITE_HIT_CLEAN_BLOCK, write_hits_clean),
            (Event.WRITE_TO_READ_FILLED_BLOCK, write_hits_clean),
        ):
            if count:
                increment(event, count)

    # -- slow paths ------------------------------------------------------

    def _slow_write_hit(self, index, vaddr):
        """A write hit whose dirty-bit state is not settled."""
        cache = self.cache
        vpn = vaddr >> self.page_bits
        pte = self.page_table.entry(vpn)
        page = self.vm.page(vpn)
        if not page.region.writable:
            raise ProtectionFault(vaddr, "write to read-only region")

        if not cache.block_dirty[index]:
            # First modification of a block: a valid clean block is
            # one that entered on a read, so this is also one of the
            # paper's N_w-hit events (counted per block).
            self.counters.increment(Event.WRITE_HIT_CLEAN_BLOCK)
            self.counters.increment(Event.WRITE_TO_READ_FILLED_BLOCK)

        cycles = self.dirty_policy.handle_write_hit(
            self, index, vaddr, pte, page
        )

        # The policy may have flushed and refilled the block (FLUSH);
        # find where the written block lives now and mark it dirty.
        target = cache.probe(vaddr)
        if target >= 0:
            cache.block_dirty[target] = 1
            cache.acquire_ownership(target)
        return cycles

    def _miss(self, kind, vaddr):
        """Reference missed in the cache: translate, maybe fault, fill.

        The spec :meth:`run` loop's miss handler.  The batched path
        reaches it only for the two misses that raise
        :class:`ProtectionFault` (see :meth:`_resolve_miss`).
        """
        counters = self.counters
        if kind == 0:
            counters.increment(Event.IFETCH_MISS)
        elif kind == 1:
            counters.increment(Event.READ_MISS)
        else:
            counters.increment(Event.WRITE_MISS)

        result = self.translator.translate(vaddr)
        cycles = result.cycles
        pte = result.pte

        vpn = vaddr >> self.page_bits
        if not pte.valid:
            cycles += self.vm.handle_page_fault(vpn)

        cycles += self.reference_policy.on_cache_miss(self, pte)

        is_write = kind == _WRITE
        if is_write:
            page = self.vm.page(vpn)
            if not page.region.writable:
                raise ProtectionFault(vaddr, "write to read-only region")
            counters.increment(Event.WRITE_MISS_FILL)
            cycles += self.dirty_policy.on_write_miss(self, pte, page)

        _, fill_cycles = self.cache.fill(
            vaddr,
            pte.protection,
            page_dirty=self.dirty_policy.fill_page_dirty(pte),
            by_write=is_write,
        )
        counters.increment(Event.BLOCK_FILL)
        return cycles + fill_cycles

    # -- results -----------------------------------------------------------

    @property
    def elapsed_seconds(self):
        """Simulated wall-clock time at the prototype's cycle time."""
        return self.cycles * SPUR_CYCLE_TIME_SECONDS

    def snapshot(self):
        """Counter snapshot (delta arithmetic supported)."""
        return self.counters.snapshot()

    def observe_state(self):
        """Cumulative ``(references, cycles, counter snapshot)``.

        The sampling hook the observability layer polls at epoch
        boundaries; reads existing state only, never mutates.
        """
        return self.references, self.cycles, self.counters.snapshot()

    def observation_alignment(self):
        """Reference alignment an observer's epochs must respect.

        ``run``/``run_chunks`` restart the page-daemon poll schedule
        per call, so an observer that re-segments the stream must cut
        only at multiples of the poll interval to replay the exact
        unobserved schedule.  With polling disabled any boundary works.
        """
        return self.config.daemon_poll_refs or 1

    def __repr__(self):
        return (
            f"SpurMachine({self.name!r}, "
            f"dirty={self.dirty_policy.name}, "
            f"ref={self.reference_policy.name}, "
            f"{self.references} refs, {self.cycles} cycles)"
        )
