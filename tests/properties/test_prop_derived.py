"""Property test: a write to a clean block is a write to a read-filled one.

The cache stores no "filled by a read" flag: a valid line holds a block
that entered on a read and has not been written since exactly when it
is block-clean (fills set block-dirty to "filled by a write", the first
write hit sets it, and only invalidation clears it).  So the paper's
N_w-hit event (a write to a read-filled block,
``WRITE_TO_READ_FILLED_BLOCK``) fires exactly when a write hits a clean
block (``WRITE_HIT_CLEAN_BLOCK``).  The spec loop must count them alike
on arbitrary conflict- and fault-heavy streams under every dirty
policy.
"""

from hypothesis import given, settings, strategies as st

from repro.counters.events import Event
from repro.machine.simulator import SpurMachine
from repro.policies.dirty import _DIRTY_POLICIES
from repro.policies.reference import REFERENCE_POLICY_NAMES

from tests.conftest import simple_space, tiny_config
from tests.properties.test_prop_chunked import heap_trace, references


@settings(max_examples=40, deadline=None)
@given(
    refs=references,
    poll=st.sampled_from([0, 5, 64]),
    dirty=st.sampled_from(sorted(_DIRTY_POLICIES)),
    ref_policy=st.sampled_from(REFERENCE_POLICY_NAMES),
)
def test_read_filled_blocks_are_the_clean_ones(refs, poll, dirty,
                                               ref_policy):
    config = tiny_config(dirty_policy=dirty, reference_policy=ref_policy,
                         daemon_poll_refs=poll, memory_bytes=2048)
    space_map, regions = simple_space()
    machine = SpurMachine(config, space_map)
    machine.run(heap_trace(regions, refs))
    counters = machine.counters
    assert counters.read(Event.WRITE_TO_READ_FILLED_BLOCK) == (
        counters.read(Event.WRITE_HIT_CLEAN_BLOCK)
    )
