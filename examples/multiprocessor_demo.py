#!/usr/bin/env python3
"""SPUR as it was designed: a shared-memory multiprocessor.

The prototype measured in the paper was a uniprocessor, but two of the
paper's arguments are about multiprocessors:

* software PTE updates (dirty faults) avoid atomic PTE-update
  hardware, because the shared page table is only written by handlers;
* flushing a page "is especially [expensive] in a multiprocessor,
  which must flush the page from all the caches" — the cost that
  sinks the REF policy and the FLUSH alternative as boards are added.

This example builds 1-, 2-, and 4-board systems, runs write-sharing
traffic across them, and measures both effects.

Run:
    python examples/multiprocessor_demo.py
"""

from repro.counters.events import Event
from repro.machine.config import scaled_config
from repro.machine.smp import SmpSystem
from repro.vm.segments import (
    AddressSpaceMap,
    ProcessAddressSpace,
    RegionKind,
)
from repro.workloads.base import READ, WRITE, chunk_accesses

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


def sharing_stream(heap, cpu_index, length=20_000):
    """Reads and writes over a region partially shared across CPUs."""
    refs = []
    for i in range(length):
        if i % 3 == 0:
            # Shared structure: every CPU touches the same 64 pages.
            offset = ((i * 13 + cpu_index) % (64 * 16)) * 32
        else:
            # Private slice per CPU.
            base = (64 + 48 * cpu_index) * 512
            offset = base + ((i * 7) % (48 * 16)) * 32
        kind = WRITE if (i + cpu_index) % 5 == 0 else READ
        refs.append((kind, heap.start + offset))
    return refs


def main():
    print("SPUR multiprocessor scaling demo\n")
    header = (f"{'boards':>7} {'bus txns':>10} {'snoop hits':>11} "
              f"{'ownership xfers':>16} {'dirty faults':>13} "
              f"{'page-flush cycles/page':>23}")
    print(header)
    for num_cpus in (1, 2, 4):
        system, heap = build_system(num_cpus)
        streams = [
            chunk_accesses(sharing_stream(heap, c), QUANTUM)
            for c in range(num_cpus)
        ]
        system.run_interleaved_chunks(streams, quantum=QUANTUM)

        # Price one REF-style clear: flush a hot page from all caches.
        flush_cycles = system.flush_page(heap.start)
        print(f"{num_cpus:>7} {system.bus.transactions:>10,} "
              f"{system.bus.snoop_hits:>11,} "
              f"{system.bus.ownership_transfers:>16,} "
              f"{system.counters.read(Event.DIRTY_FAULT):>13,} "
              f"{flush_cycles:>23,}")

    print("\nreadings:")
    print("  - dirty faults do not multiply with boards: the first")
    print("    writer's software fault marks the shared PTE for all")
    print("    (the paper's case for software updates);")
    print("  - page-flush cost grows linearly with boards: every")
    print("    cache must be swept, which is why true reference bits")
    print("    (flush-on-clear) age badly on a multiprocessor.")


if __name__ == "__main__":
    main()
