"""Absolute pin: fault-heavy runs have fixed, recorded results.

The equivalence tests compare the tuple path with the chunked path,
so a change that moves both alike (a VM, policy, translation or cache
change) passes them.  This pin holds a digest of the counter bank,
cycles, VM and swap totals for every cell of a small fault-heavy
policy grid at a fixed seed, and checks both paths against it.  A
deliberate semantic change must re-record the digests and bump
``repro.parallel.cache.CACHE_FORMAT``.
"""

import hashlib
import json

import pytest

from repro.machine.simulator import SpurMachine
from repro.workloads.base import chunk_accesses

from tests.conftest import fault_heavy_trace, simple_space, tiny_config

SEED = 3
REFS = 6000

#: Digest per ``(dirty, reference, daemon)`` cell.  Memory holds 30
#: allocatable frames against a 78-page address space, so the run
#: first-touches every heap page, runs the daemon inside faults and
#: pages evicted pages back in.
GOLDEN = {
    ("MIN", "MISS", "clock"): "ade93fef64fee9ce",
    ("MIN", "REF", "clock"): "20881b4e321fe653",
    ("MIN", "NOREF", "clock"): "5432e6d37d2529c5",
    ("FAULT", "MISS", "clock"): "dad727ebd34208e8",
    ("FAULT", "REF", "clock"): "033804ab573e6cc5",
    ("FAULT", "NOREF", "clock"): "e4e3fdc8ebae29b4",
    ("FLUSH", "MISS", "clock"): "79c0b0c168027bf6",
    ("FLUSH", "REF", "clock"): "1bef4702fa346c30",
    ("FLUSH", "NOREF", "clock"): "65a3f2601229e77c",
    ("SPUR", "MISS", "clock"): "06cee076534badd2",
    ("SPUR", "REF", "clock"): "b0f8190af57a7699",
    ("SPUR", "NOREF", "clock"): "eed47b1d4d14dd09",
    ("WRITE", "MISS", "clock"): "a8d621a67beaca72",
    ("WRITE", "REF", "clock"): "e6ef30d2b3fe68aa",
    ("WRITE", "NOREF", "clock"): "c0bf24b526aa16c5",
    ("PROTMISS", "MISS", "clock"): "06cee076534badd2",
    ("PROTMISS", "REF", "clock"): "b0f8190af57a7699",
    ("PROTMISS", "NOREF", "clock"): "eed47b1d4d14dd09",
    ("FLUSH", "MISS", "segfifo"): "487e6a5708da8fff",
    ("SPUR", "MISS", "segfifo"): "360306c84f5e055a",
    ("WRITE", "NOREF", "segfifo"): "435b225595e57b12",
}


def run_cell(dirty, ref, daemon, chunked):
    space_map, regions = simple_space(heap_pages=64)
    machine = SpurMachine(
        tiny_config(memory_bytes=4 * 1024, daemon_poll_refs=500,
                    dirty_policy=dirty, reference_policy=ref,
                    daemon_kind=daemon),
        space_map,
    )
    trace = fault_heavy_trace(regions, REFS, seed=SEED)
    if chunked:
        machine.run_chunks(chunk_accesses(iter(trace), 512))
    else:
        machine.run(trace)
    return machine


def machine_digest(machine):
    """16-hex-digit digest of everything a run measured."""
    swap = machine.swap.stats
    record = {
        "cycles": machine.cycles,
        "references": machine.references,
        "events": sorted(
            (event.name, count)
            for event, count in machine.counters.snapshot().as_dict()
            .items() if count
        ),
        "page_faults": machine.vm.stats.page_faults,
        "swap": [swap.page_ins, swap.page_outs, swap.zero_fills,
                 swap.potentially_modified, swap.not_modified],
    }
    encoded = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("chunked", [False, True],
                         ids=["run", "run_chunks"])
@pytest.mark.parametrize("cell", sorted(GOLDEN), ids="-".join)
def test_fault_heavy_grid_matches_golden(cell, chunked):
    machine = run_cell(*cell, chunked=chunked)
    assert machine.vm.stats.page_faults > 0
    assert machine_digest(machine) == GOLDEN[cell]
