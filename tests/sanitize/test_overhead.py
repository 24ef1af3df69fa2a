"""Overhead acceptance: the sanitizer must stay affordable.

The budgets from the issue: full mode under 3x the bare hot loop,
sampled mode under 15% overhead.  Each repeat times a bare, a full and
a sampled run back to back on an identical pre-generated reference
stream, and the budgets apply to the median of the per-repeat ratios.
Timing is process CPU time, so load from other processes on the host
does not stretch one arm of a pair; pairing and the median absorb
what remains (cache and frequency effects, allocator noise).  The
measured ratios are ~1.1x (full) and ~1.0x (sampled).
"""

import random
import statistics
import time

from repro.sanitize import Sanitizer
from repro.workloads.base import IFETCH, READ, WRITE

from tests.conftest import make_machine, simple_space

NUM_REFS = 40_000
REPEATS = 7


def reference_stream(regions, num_refs=NUM_REFS, seed=7):
    rng = random.Random(seed)
    heap = regions["heap"].start
    span = 32 * 128                     # heap pages the tiny VM holds
    refs = []
    for _ in range(num_refs):
        draw = rng.random()
        kind = IFETCH if draw < 0.5 else (READ if draw < 0.8 else WRITE)
        refs.append((kind, heap + rng.randrange(0, span, 4)))
    return refs


def timed_run(space_map, refs, mode):
    """CPU seconds of one run of ``refs`` on a fresh machine."""
    machine = make_machine(space_map)
    sanitizer = None
    if mode is not None:
        sanitizer = Sanitizer(mode=mode)
        sanitizer.attach(machine)
    started = time.process_time()
    machine.run(refs)
    if sanitizer is not None:
        sanitizer.check_now()
    return time.process_time() - started


def median_ratios(space_map, refs):
    """Median full/bare and sampled/bare ratios over paired repeats."""
    full, sampled = [], []
    for _ in range(REPEATS):
        bare = timed_run(space_map, refs, None)
        full.append(timed_run(space_map, refs, "full") / bare)
        sampled.append(timed_run(space_map, refs, "sampled") / bare)
    return statistics.median(full), statistics.median(sampled)


def test_overhead_within_budget():
    space_map, regions = simple_space()
    refs = reference_stream(regions)
    full, sampled = median_ratios(space_map, refs)
    assert full < 3.0, (
        f"full mode {full:.2f}x exceeds the 3x budget"
    )
    assert sampled < 1.15, (
        f"sampled mode {sampled:.2f}x exceeds the "
        f"15% overhead budget"
    )
