"""Property test: the chunked hot loop matches the spec loop.

Arbitrary conflict- and fault-heavy reference streams run through the
spec
:meth:`~repro.machine.simulator.SpurMachine.run` and, under the
full-mode sanitizer, through
:meth:`~repro.machine.simulator.SpurMachine.run_chunks` at an
arbitrary chunk size, poll schedule and policy pair.  Every address
falls in 16 heap pages, every cache line is shared by two of them, and
memory holds fewer pages than that, so hits, misses, dirty evictions,
unsettled write hits, page faults and page-daemon scans interleave.
Both machines must end in the same observable state.

The counter bank may be moded (``PerformanceCounters(mode=0..3)``),
so every tallied or derived event is also checked where
``increment`` drops it; a second property runs two processors on one
bus, where fills, write-backs and ownership upgrades broadcast live.
"""

from hypothesis import given, settings, strategies as st

from repro.counters.counters import PerformanceCounters
from repro.machine.simulator import SpurMachine
from repro.machine.smp import SmpSystem
from repro.policies.costs import DIRTY_POLICY_NAMES
from repro.policies.reference import REFERENCE_POLICY_NAMES
from repro.sanitize import sanitizer as sanitize_mod
from repro.workloads.base import IFETCH, READ, WRITE, chunk_accesses

from tests.conftest import (
    BLOCK,
    TINY_PAGE,
    simple_space,
    spec_interleave,
    tiny_config,
)
from tests.machine.test_chunked_equivalence import machine_state

references = st.lists(
    st.tuples(
        st.sampled_from([IFETCH, READ, WRITE]),
        st.integers(0, 15),                         # heap page
        st.integers(0, TINY_PAGE // BLOCK - 1),     # block in page
        st.integers(0, BLOCK // 4 - 1),             # word in block
    ),
    min_size=50,
    max_size=300,
)

counter_modes = st.sampled_from([None, 0, 1, 2, 3])


def heap_trace(regions, refs):
    """``(kind, vaddr)`` pairs for drawn ``(kind, page, block, word)``."""
    heap = regions["heap"].start
    return [
        (kind, heap + page * TINY_PAGE + block * BLOCK + word * 4)
        for kind, page, block, word in refs
    ]


@settings(max_examples=60, deadline=None)
@given(
    refs=references,
    chunk_refs=st.sampled_from([1, 3, 64, 4096]),
    poll=st.sampled_from([0, 1, 5, 64]),
    dirty=st.sampled_from(DIRTY_POLICY_NAMES),
    ref_policy=st.sampled_from(REFERENCE_POLICY_NAMES),
    mode=counter_modes,
)
def test_run_chunks_matches_spec_run(refs, chunk_refs, poll, dirty,
                                     ref_policy, mode):
    config = tiny_config(dirty_policy=dirty, reference_policy=ref_policy,
                         daemon_poll_refs=poll, memory_bytes=2048)
    space_map, regions = simple_space()
    trace = heap_trace(regions, refs)
    spec = SpurMachine(config, space_map,
                       counters=PerformanceCounters(mode=mode))
    spec.run(trace)

    space_map2, _ = simple_space()
    chunked = SpurMachine(config, space_map2,
                          counters=PerformanceCounters(mode=mode))
    guard = sanitize_mod.attach(chunked, mode="full")
    try:
        chunked.run_chunks(chunk_accesses(iter(trace), chunk_refs))
        guard.check_now()
    finally:
        guard.detach()
    assert machine_state(chunked) == machine_state(spec)


@settings(max_examples=25, deadline=None)
@given(
    streams=st.tuples(references, references),
    quantum=st.sampled_from([1, 7, 64]),
    dirty=st.sampled_from(DIRTY_POLICY_NAMES),
    ref_policy=st.sampled_from(REFERENCE_POLICY_NAMES),
    mode=counter_modes,
)
def test_two_cpu_chunks_match_spec_interleave(streams, quantum, dirty,
                                              ref_policy, mode):
    config = tiny_config(dirty_policy=dirty, reference_policy=ref_policy,
                         memory_bytes=2048)

    def build():
        space_map, regions = simple_space()
        system = SmpSystem(config, space_map, num_cpus=2,
                           counters=PerformanceCounters(mode=mode))
        return system, [heap_trace(regions, refs) for refs in streams]

    spec, traces = build()
    spec_interleave(spec, traces, quantum=quantum)

    chunked, traces = build()
    guard = sanitize_mod.attach(chunked, mode="full")
    try:
        chunked.run_interleaved_chunks(
            [chunk_accesses(iter(trace), quantum) for trace in traces],
            quantum=quantum,
        )
        guard.check_now()
    finally:
        guard.detach()
    assert chunked.counters.snapshot().as_dict() == (
        spec.counters.snapshot().as_dict()
    )
    bus_totals = [
        (system.bus.transactions, system.bus.snoop_hits,
         system.bus.ownership_transfers, system.bus.invalidations)
        for system in (chunked, spec)
    ]
    assert bus_totals[0] == bus_totals[1]
    for chunked_cpu, spec_cpu in zip(chunked.cpus, spec.cpus):
        assert machine_state(chunked_cpu) == machine_state(spec_cpu)
