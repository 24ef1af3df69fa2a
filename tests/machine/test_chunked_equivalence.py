"""The chunked hot loop is bit-identical to the spec loop.

The contract behind ``run_chunks``: for any workload, policy pair, and
chunk size, the batched path produces exactly the same RunResult —
counters, cycles, paging totals — and the same machine state as the
per-tuple spec :meth:`SpurMachine.run` over the same references.
"""

import dataclasses

import pytest

from repro.common.errors import ProtectionFault
from repro.counters.events import Event
from repro.machine.config import scaled_config
from repro.machine.runner import ExperimentRunner
from repro.machine.simulator import SpurMachine
from repro.machine.smp import SmpSystem
from repro.policies.costs import DIRTY_POLICY_NAMES
from repro.policies.reference import REFERENCE_POLICY_NAMES
from repro.sanitize import sanitizer as sanitize_mod
from repro.workloads.base import IFETCH, READ, WRITE, chunk_accesses
from repro.workloads.devsystems import (
    DEV_SYSTEM_PROFILES,
    DevSystemWorkload,
)
from repro.workloads.recorded import RecordedWorkload, record_workload
from repro.workloads.scripted import ScriptedWorkload
from repro.workloads.slc import SlcWorkload
from repro.workloads.workload1 import Workload1

from tests.conftest import (
    TINY_CACHE,
    fault_heavy_trace,
    simple_space,
    spec_interleave,
    spec_result,
    tiny_config,
)

DIRTY_POLICIES = ("SPUR", "FAULT", "FLUSH", "WRITE")
REFERENCE_POLICIES = ("MISS", "REF", "NOREF")

SCRIPT_SPEC = {
    "name": "equiv-script",
    "quantum": 256,
    "processes": [
        {"name": "p0", "code_pages": 4, "heap_pages": 32,
         "file_pages": 8,
         "phases": [{"duration": 3000, "ws_pages": 12,
                     "write_frac": 0.4, "rmw_frac": 0.3,
                     "alloc_pages": 4, "scan_pages": 4}]},
        {"name": "p1", "weight": 0.5, "code_pages": 2,
         "heap_pages": 16,
         "phases": [{"duration": 1500, "ws_pages": 8,
                     "write_frac": 0.2}]},
    ],
}

PAGE_BYTES = scaled_config(scale=8).page_bytes


@pytest.fixture(scope="module")
def recorded_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "equiv.bin"
    record_workload(
        ScriptedWorkload(SCRIPT_SPEC), PAGE_BYTES, path, seed=9,
        max_references=3000,
    )
    return str(path)


def make_workload(name, recorded_path):
    if name == "workload1":
        return Workload1(length_scale=0.01)
    if name == "slc":
        return SlcWorkload(length_scale=0.01)
    if name == "devsystem":
        return DevSystemWorkload(DEV_SYSTEM_PROFILES[0],
                                 length_scale=0.01)
    if name == "scripted":
        return ScriptedWorkload(SCRIPT_SPEC)
    if name == "recorded":
        return RecordedWorkload(recorded_path)
    raise AssertionError(name)


class TestRunResultCrossProduct:
    @pytest.mark.parametrize("dirty,ref", [
        (dirty, ref)
        for dirty in DIRTY_POLICIES
        for ref in REFERENCE_POLICIES
    ])
    @pytest.mark.parametrize("workload_name", [
        "workload1", "slc", "devsystem", "scripted", "recorded",
    ])
    def test_chunked_equals_legacy(self, workload_name, dirty, ref,
                                   recorded_trace):
        config = scaled_config(
            memory_ratio=24, scale=8,
            dirty_policy=dirty, reference_policy=ref,
        )
        legacy = spec_result(
            config, make_workload(workload_name, recorded_trace),
            seed=1, max_references=2000,
        )
        chunked = ExperimentRunner().run(
            config, make_workload(workload_name, recorded_trace),
            seed=1, max_references=2000,
        )
        assert chunked == legacy


def machine_state(machine):
    """Everything observable about a machine after a run."""
    cache = machine.cache
    return {
        "cycles": machine.cycles,
        "references": machine.references,
        "events": machine.counters.snapshot().as_dict(),
        "line_block": list(cache.line_block),
        "prot": list(cache.prot),
        "page_dirty": list(cache.page_dirty),
        "block_dirty": list(cache.block_dirty),
        "state": list(cache.state),
        "holds_pte": list(cache.holds_pte),
        "cache_stats": dict(cache.stats),
        "bus_transactions": cache.bus.transactions,
        "swap": (machine.swap.stats.page_ins,
                 machine.swap.stats.page_outs,
                 machine.swap.stats.zero_fills),
    }


def mixed_trace(regions, count):
    heap = regions["heap"].start
    code = regions["code"].start
    refs = []
    for i in range(count):
        if i % 5 == 0:
            refs.append((IFETCH, code + (i % 3) * 32))
        elif i % 3 == 0:
            refs.append((WRITE, heap + (i * 13 % 96) * 32))
        else:
            refs.append((READ, heap + (i * 37 % 96) * 32))
    return refs


class TestMachineStatePollSchedule:
    @pytest.mark.parametrize("chunk_refs", [1, 7, 96, 256])
    def test_poll_schedule_preserved(self, chunk_refs):
        from repro.machine.simulator import SpurMachine

        space_map, regions = simple_space()
        config = tiny_config(daemon_poll_refs=64)
        trace = mixed_trace(regions, 3000)

        legacy = SpurMachine(config, space_map)
        legacy.run(trace)

        space_map2, regions2 = simple_space()
        chunked = SpurMachine(tiny_config(daemon_poll_refs=64),
                              space_map2)
        chunked.run_chunks(chunk_accesses(iter(trace), chunk_refs))

        assert machine_state(chunked) == machine_state(legacy)

    def test_poll_every_reference(self):
        # daemon_poll_refs=1 polls before every reference: the
        # segmented path's inline handler carries the whole chunk.
        from repro.machine.simulator import SpurMachine

        space_map, regions = simple_space()
        trace = mixed_trace(regions, 500)
        legacy = SpurMachine(tiny_config(daemon_poll_refs=1),
                             space_map)
        legacy.run(trace)

        space_map2, _ = simple_space()
        chunked = SpurMachine(tiny_config(daemon_poll_refs=1),
                              space_map2)
        chunked.run_chunks(chunk_accesses(iter(trace), 64))
        assert machine_state(chunked) == machine_state(legacy)

    def test_state_carries_across_calls(self):
        # `processed` restarts per call; the poll schedule must too,
        # exactly like consecutive legacy run() calls.
        from repro.machine.simulator import SpurMachine

        space_map, regions = simple_space()
        trace = mixed_trace(regions, 1000)
        legacy = SpurMachine(tiny_config(daemon_poll_refs=64),
                             space_map)
        legacy.run(trace[:400])
        legacy.run(trace[400:])

        space_map2, _ = simple_space()
        chunked = SpurMachine(tiny_config(daemon_poll_refs=64),
                              space_map2)
        chunked.run_chunks(chunk_accesses(iter(trace[:400]), 96))
        chunked.run_chunks(chunk_accesses(iter(trace[400:]), 96))
        assert machine_state(chunked) == machine_state(legacy)


def conflict_trace(regions, count):
    """Read stream striding over 3x the cache's line count: nearly
    every reference misses, exercising the batched miss resolver."""
    heap = regions["heap"].start
    return [(READ, heap + (i * 37 % 96) * 32) for i in range(count)]


def write_pair_trace(regions, count):
    """Read-then-write pairs: every write is a clean-block write hit,
    exercising the batched write-hit resolver."""
    heap = regions["heap"].start
    refs = []
    for i in range(count // 2):
        vaddr = heap + (i % 64) * 32
        refs.append((READ, vaddr))
        refs.append((WRITE, vaddr))
    return refs


def conflicting_pair_trace(regions, count):
    """Stable hits interleaved with two blocks that share one line:
    each pair member evicts the other, so a reference that hit when
    its segment started misses by the time it is reached."""
    heap = regions["heap"].start
    a, b = heap, heap + 32 * 32          # same line, different blocks
    stable = [heap + line * 32 for line in range(1, 9)]
    refs = []
    for i in range(count // 4):
        refs.append((READ, a))
        refs.append((READ, stable[i % 8]))
        refs.append((READ, b))
        refs.append((READ, stable[(i + 3) % 8]))
    return refs


class TestNonPowerOfTwoPoll:
    """daemon_poll_refs was once restricted to powers of two; the
    arithmetic segmentation must handle any positive interval."""

    def test_poll_1000_matches_legacy(self):
        from repro.machine.simulator import SpurMachine

        space_map, regions = simple_space()
        trace = mixed_trace(regions, 3500)
        legacy = SpurMachine(tiny_config(daemon_poll_refs=1000),
                             space_map)
        legacy.run(trace)

        space_map2, _ = simple_space()
        chunked = SpurMachine(tiny_config(daemon_poll_refs=1000),
                              space_map2)
        chunked.run_chunks(chunk_accesses(iter(trace), 256))
        assert machine_state(chunked) == machine_state(legacy)

    @pytest.mark.parametrize("chunk_refs", [1, 63, 64, 65])
    def test_chunk_size_poll_interval_edges(self, chunk_refs):
        # Chunk sizes of exactly the poll interval and one either
        # side hit every boundary case of the segment arithmetic.
        from repro.machine.simulator import SpurMachine

        space_map, regions = simple_space()
        trace = mixed_trace(regions, 700)
        legacy = SpurMachine(tiny_config(daemon_poll_refs=64),
                             space_map)
        legacy.run(trace)

        space_map2, _ = simple_space()
        chunked = SpurMachine(tiny_config(daemon_poll_refs=64),
                              space_map2)
        chunked.run_chunks(chunk_accesses(iter(trace), chunk_refs))
        assert machine_state(chunked) == machine_state(legacy)

    def test_trace_ends_on_poll_boundary(self):
        # The final reference is itself a poll boundary: the schedule
        # must not fire a trailing poll the legacy loop would skip.
        from repro.machine.simulator import SpurMachine

        space_map, regions = simple_space()
        trace = mixed_trace(regions, 200)
        legacy = SpurMachine(tiny_config(daemon_poll_refs=100),
                             space_map)
        legacy.run(trace)

        space_map2, _ = simple_space()
        chunked = SpurMachine(tiny_config(daemon_poll_refs=100),
                              space_map2)
        chunked.run_chunks(chunk_accesses(iter(trace), 128))
        assert machine_state(chunked) == machine_state(legacy)


class TestResolverDominatedTraces:
    """Miss- and write-dominated streams, chunked under the full
    invariant sanitizer (including the column-store-agreement check),
    stay bit-identical to the legacy loop."""

    @pytest.mark.parametrize("builder", [conflict_trace,
                                         write_pair_trace,
                                         conflicting_pair_trace])
    def test_dominated_trace_sanitized(self, builder):
        from repro.machine.simulator import SpurMachine
        from repro.sanitize import sanitizer as sanitize_mod

        space_map, regions = simple_space()
        trace = builder(regions, 3000)
        legacy = SpurMachine(tiny_config(), space_map)
        legacy.run(trace)

        space_map2, _ = simple_space()
        chunked = SpurMachine(tiny_config(), space_map2)
        guard = sanitize_mod.attach(chunked, mode="full")
        try:
            chunked.run_chunks(chunk_accesses(iter(trace), 512))
            guard.check_now()
        finally:
            guard.detach()
        assert machine_state(chunked) == machine_state(legacy)


class TestClassifierPaths:
    """The chunked segment loop matches the spec loop on hit-, miss-
    and conflict-heavy streams."""

    @pytest.mark.parametrize("builder", [mixed_trace, conflict_trace,
                                         write_pair_trace,
                                         conflicting_pair_trace])
    def test_chunked_matches_legacy(self, builder):
        space_map, regions = simple_space()
        trace = builder(regions, 2000)
        legacy = SpurMachine(tiny_config(), space_map)
        legacy.run(trace)

        space_map2, _ = simple_space()
        chunked = SpurMachine(tiny_config(), space_map2)
        chunked.run_chunks(chunk_accesses(iter(trace), 512))
        assert machine_state(chunked) == machine_state(legacy)


class TestSmpInterleaving:
    def test_chunked_interleave_matches_legacy(self):
        def build():
            space_map, regions = simple_space()
            system = SmpSystem(tiny_config(), space_map, num_cpus=2)
            streams = [
                mixed_trace(regions, 2100),
                [(READ, regions["heap"].start + (i * 7 % 64) * 32)
                 for i in range(1500)],
            ]
            return system, streams

        legacy_system, streams = build()
        total_legacy = spec_interleave(
            legacy_system, streams, quantum=512
        )

        chunked_system, streams = build()
        total_chunked = chunked_system.run_interleaved_chunks(
            [chunk_accesses(iter(stream), 512) for stream in streams],
            quantum=512,
        )

        assert total_chunked == total_legacy
        assert (chunked_system.cycles, chunked_system.references) == (
            legacy_system.cycles, legacy_system.references
        )
        for legacy_cpu, chunked_cpu in zip(
            legacy_system.cpus, chunked_system.cpus
        ):
            assert machine_state(chunked_cpu) == machine_state(
                legacy_cpu
            )


def fault_state(machine):
    """:func:`machine_state` plus every VM and swap total."""
    state = machine_state(machine)
    state["vm"] = dataclasses.astuple(machine.vm.stats)
    state["swap"] = dataclasses.astuple(machine.swap.stats)
    state["resident"] = sorted(machine.vm.resident_pages())
    return state


def fault_machine(dirty="SPUR", ref="MISS", daemon="clock"):
    """A machine with 30 allocatable frames over a 78-page space: the
    fault-heavy trace first-touches the heap, runs the daemon inside
    page faults and pages evicted pages back in."""
    space_map, regions = simple_space(heap_pages=64)
    config = tiny_config(
        memory_bytes=4 * 1024, daemon_poll_refs=500,
        dirty_policy=dirty, reference_policy=ref, daemon_kind=daemon,
    )
    return SpurMachine(config, space_map), regions


@pytest.fixture
def miss_calls(monkeypatch):
    """Spy on ``SpurMachine._miss``: records ``(machine, kind, vaddr)``
    for every call, on either path, and delegates."""
    calls = []
    original = SpurMachine._miss

    def spy(self, kind, vaddr):
        calls.append((self, kind, vaddr))
        return original(self, kind, vaddr)

    monkeypatch.setattr(SpurMachine, "_miss", spy)
    return calls


def run_both_sanitized(builder, trace, chunk_refs=512):
    legacy, _ = builder()
    legacy.run(trace)
    chunked, _ = builder()
    guard = sanitize_mod.attach(chunked, mode="full")
    try:
        chunked.run_chunks(chunk_accesses(iter(trace), chunk_refs))
        guard.check_now()
    finally:
        guard.detach()
    return legacy, chunked


class TestFaultPaths:
    """Page faults (first touches included), reference faults and
    dirty-bit work commit in the batched miss resolver, bit-identical
    to the spec loop; ``_miss`` is reached only to raise a
    :class:`ProtectionFault`."""

    @pytest.mark.parametrize("dirty,ref", [
        (dirty, ref)
        for dirty in DIRTY_POLICY_NAMES
        for ref in REFERENCE_POLICY_NAMES
    ])
    def test_first_touch_heavy_trace(self, dirty, ref, miss_calls):
        _, regions = fault_machine()
        trace = fault_heavy_trace(regions, 4000, seed=5)
        legacy, chunked = run_both_sanitized(
            lambda: fault_machine(dirty, ref), trace
        )
        assert fault_state(chunked) == fault_state(legacy)
        # The daemon ran inside page faults, and pages were both
        # zero-filled on first touch and paged back in.
        assert legacy.vm.stats.daemon_cycles > 0
        assert legacy.swap.stats.zero_fills > 0
        assert legacy.swap.stats.page_ins > 0
        assert [call for call in miss_calls if call[0] is chunked] == []

    @pytest.mark.parametrize("dirty", DIRTY_POLICY_NAMES)
    def test_segfifo_soft_fault_reactivation(self, dirty, miss_calls):
        _, regions = fault_machine()
        trace = fault_heavy_trace(regions, 4000, seed=6)
        legacy, chunked = run_both_sanitized(
            lambda: fault_machine(dirty, "MISS", "segfifo"), trace
        )
        assert fault_state(chunked) == fault_state(legacy)
        assert legacy.counters.read(Event.PAGE_REACTIVATE) > 0
        assert [call for call in miss_calls if call[0] is chunked] == []

    @pytest.mark.parametrize("dirty,ref", [("FLUSH", "REF"),
                                           ("SPUR", "MISS")])
    def test_smp_fault_heavy_interleave(self, dirty, ref, miss_calls):
        # Two processors share one VM under memory pressure: faults
        # taken by one CPU run the daemon and flush pages from both
        # caches, with bus transactions broadcast live to the peer.
        def build():
            space_map, regions = simple_space(heap_pages=64)
            config = tiny_config(
                memory_bytes=4 * 1024, daemon_poll_refs=500,
                dirty_policy=dirty, reference_policy=ref,
            )
            system = SmpSystem(config, space_map, num_cpus=2)
            streams = [fault_heavy_trace(regions, 2500, seed=seed)
                       for seed in (11, 12)]
            return system, streams

        legacy, streams = build()
        spec_interleave(legacy, streams, quantum=256)
        chunked, streams = build()
        chunked.run_interleaved_chunks(
            [chunk_accesses(iter(stream), 256) for stream in streams],
            quantum=256,
        )
        assert (chunked.cycles, chunked.references) == (
            legacy.cycles, legacy.references
        )
        assert legacy.vm.stats.daemon_cycles > 0
        for legacy_cpu, chunked_cpu in zip(legacy.cpus, chunked.cpus):
            assert fault_state(chunked_cpu) == fault_state(legacy_cpu)
        assert not [call for call in miss_calls
                    if call[0] in chunked.cpus]

    @pytest.mark.parametrize("case", [
        "unmapped", "read-only-resident", "read-only-first-touch",
    ])
    @pytest.mark.parametrize("dirty", ["SPUR", "FLUSH"])
    def test_protection_fault_mid_chunk(self, case, dirty, miss_calls):
        _, regions = fault_machine()
        prefix = fault_heavy_trace(regions, 700, seed=7)
        code = regions["code"]
        if case == "unmapped":
            # The guard page after the heap belongs to no region.
            bad = (READ, regions["heap"].end + 64)
        elif case == "read-only-resident":
            # Fetch the block (mapping its page), then evict it with a
            # conflicting heap read, so the write misses on a valid PTE.
            heap = regions["heap"].start
            bad = (WRITE, code.start + 32)
            conflict = heap + (bad[1] - heap) % TINY_CACHE
            prefix = prefix + [(IFETCH, bad[1]), (READ, conflict)]
        else:
            # No fetch touches the code region before the write.
            prefix = [ref for ref in prefix if ref[0] != IFETCH]
            bad = (WRITE, code.start + 64)
        trace = prefix + [bad] + fault_heavy_trace(regions, 300, seed=8)
        # Mid-chunk: the faulting reference is neither first nor last
        # of its 512-reference chunk.
        assert 0 < len(prefix) % 512 < 511

        outcomes = []
        for chunked in (False, True):
            machine, _ = fault_machine(dirty)
            with pytest.raises(ProtectionFault) as raised:
                if chunked:
                    machine.run_chunks(chunk_accesses(iter(trace), 512))
                else:
                    machine.run(trace)
            outcomes.append((machine, str(raised.value)))
        (legacy, legacy_error), (chunked, chunked_error) = outcomes
        assert chunked_error == legacy_error
        assert fault_state(chunked) == fault_state(legacy)
        assert [(kind, vaddr) for machine, kind, vaddr in miss_calls
                if machine is chunked] == [bad]
