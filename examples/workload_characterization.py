#!/usr/bin/env python3
"""Characterise the synthetic workloads (are they what we claim?).

DESIGN.md argues the synthetic WORKLOAD1 and SLC preserve the memory
behaviour the paper describes.  This example measures that behaviour
directly from the reference streams — mix, footprint, working sets,
write-first allocation, reuse locality — with no simulator involved.

Run:
    python examples/workload_characterization.py [references]
"""

import sys

from repro.analysis.tracestats import analyze_trace
from repro.workloads.base import iter_refs
from repro.workloads.slc import SlcWorkload
from repro.workloads.workload1 import Workload1

PAGE_BYTES = 512  # the default scaled geometry


def main():
    max_references = (
        int(sys.argv[1]) if len(sys.argv) > 1 else 300_000
    )
    for workload in (Workload1(length_scale=0.5),
                     SlcWorkload(length_scale=0.5)):
        instance = workload.instantiate(PAGE_BYTES, seed=0)
        stats = analyze_trace(
            iter_refs(instance.access_chunks()),
            page_bytes=PAGE_BYTES,
            max_references=max_references,
            window=32_768,
        )
        print(f"=== {workload.name} "
              f"(first {stats.references:,} references)")
        for line in stats.summary_lines():
            print(f"  {line}")
        cache_pages = 16 * 1024 // PAGE_BYTES
        ws = stats.mean_working_set_pages
        print(f"  -> working set is {ws / cache_pages:.0f}x the "
              f"32-page cache: plenty of misses for the MISS policy "
              f"to see,")
        print(f"     and {stats.write_first_fraction:.0%} of pages "
              f"are written before read: the zero-fill-fault "
              f"population.")
        print()


if __name__ == "__main__":
    main()
