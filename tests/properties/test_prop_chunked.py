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
"""

from hypothesis import given, settings, strategies as st

from repro.machine.simulator import SpurMachine
from repro.policies.costs import DIRTY_POLICY_NAMES
from repro.policies.reference import REFERENCE_POLICY_NAMES
from repro.sanitize import sanitizer as sanitize_mod
from repro.workloads.base import IFETCH, READ, WRITE, chunk_accesses

from tests.conftest import BLOCK, TINY_PAGE, simple_space, tiny_config
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


@settings(max_examples=60, deadline=None)
@given(
    refs=references,
    chunk_refs=st.sampled_from([1, 3, 64, 4096]),
    poll=st.sampled_from([0, 1, 5, 64]),
    dirty=st.sampled_from(DIRTY_POLICY_NAMES),
    ref_policy=st.sampled_from(REFERENCE_POLICY_NAMES),
)
def test_run_chunks_matches_spec_run(refs, chunk_refs, poll, dirty,
                                     ref_policy):
    config = tiny_config(dirty_policy=dirty, reference_policy=ref_policy,
                         daemon_poll_refs=poll, memory_bytes=2048)
    space_map, regions = simple_space()
    heap = regions["heap"].start
    trace = [
        (kind, heap + page * TINY_PAGE + block * BLOCK + word * 4)
        for kind, page, block, word in refs
    ]
    spec = SpurMachine(config, space_map)
    spec.run(trace)

    space_map2, _ = simple_space()
    chunked = SpurMachine(config, space_map2)
    guard = sanitize_mod.attach(chunked, mode="full")
    try:
        chunked.run_chunks(chunk_accesses(iter(trace), chunk_refs))
        guard.check_now()
    finally:
        guard.detach()
    assert machine_state(chunked) == machine_state(spec)
