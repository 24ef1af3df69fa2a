"""Extension bench: multiprocessor scaling of the paper's mechanisms.

Not a paper table — the prototype was a uniprocessor — but a
quantification of two multiprocessor claims the paper makes in prose:

* Section 3.1: software dirty-bit updates need no atomic PTE-update
  hardware; one processor's fault marks the shared PTE for everyone.
* Section 4.1: flushing a page on reference-bit clear "is especially
  [expensive] in a multiprocessor, which must flush the page from all
  the caches".
"""

import pytest

from repro.analysis.tables import Table
from repro.counters.events import Event
from repro.machine.config import scaled_config
from repro.machine.smp import SmpSystem
from repro.vm.segments import (
    AddressSpaceMap,
    ProcessAddressSpace,
    RegionKind,
)
from repro.workloads.base import READ, WRITE, chunk_accesses

from conftest import once

#: References per board per interleaving round.
QUANTUM = 2048


def build_system(num_cpus):
    config = scaled_config(memory_ratio=48, daemon_poll_refs=0)
    space_map = AddressSpaceMap(config.page_bytes)
    space = ProcessAddressSpace(
        0, config.page_bytes, 1 << 26, space_map
    )
    heap = space.add_region("shared-heap", RegionKind.HEAP,
                            256 * config.page_bytes)
    space_map.seal()
    return SmpSystem(config, space_map, num_cpus=num_cpus), heap


def run_scaling():
    table = Table(
        "Extension: multiprocessor scaling of flushes and dirty "
        "faults",
        ["Boards", "Bus txns", "Snoop hits", "Dirty faults",
         "Flush cycles/page"],
    )
    measurements = {}
    for num_cpus in (1, 2, 4, 8):
        system, heap = build_system(num_cpus)
        streams = []
        for cpu in range(num_cpus):
            refs = []
            for i in range(12_000):
                if i % 3 == 0:
                    offset = ((i * 13 + cpu) % (64 * 16)) * 32
                else:
                    base = (64 + 24 * cpu) * 512
                    offset = base + ((i * 7) % (24 * 16)) * 32
                kind = WRITE if (i + cpu) % 5 == 0 else READ
                refs.append((kind, heap.start + offset))
            streams.append(chunk_accesses(refs, QUANTUM))
        system.run_interleaved_chunks(streams, quantum=QUANTUM)
        flush_cycles = system.flush_page(heap.start)
        measurements[num_cpus] = {
            "bus": system.bus.transactions,
            "snoops": system.bus.snoop_hits,
            "dirty_faults": system.counters.read(Event.DIRTY_FAULT),
            "flush": flush_cycles,
        }
        m = measurements[num_cpus]
        table.add_row(num_cpus, m["bus"], m["snoops"],
                      m["dirty_faults"], m["flush"])
    return measurements, table


def test_multiprocessor_scaling(benchmark, record_result):
    measurements, table = once(benchmark, run_scaling)
    record_result("extension_multiprocessor", table.render())

    # Dirty faults are per-*page*, not per-processor: each system
    # takes exactly one fault per distinct written page (64 shared
    # pages + 24 private pages per board), no matter how many boards
    # write the shared ones.  That is the paper's software-update
    # argument made exact.
    for num_cpus, m in measurements.items():
        assert m["dirty_faults"] == 64 + 24 * num_cpus, num_cpus
    # Flush cost grows with board count (every cache swept).
    assert measurements[4]["flush"] > 2 * measurements[1]["flush"]
    assert measurements[8]["flush"] > measurements[4]["flush"]
    # Sharing produces real snoop traffic on multiprocessors only.
    assert measurements[1]["snoops"] == 0
    assert measurements[4]["snoops"] > 0
