#!/usr/bin/env python3
"""Measuring like it's 1989: the four-mode counter methodology.

The cache controller's sixteen counters observe one of four event
sets at a time, so the paper's experimenters re-ran each workload
under each mode and stitched the numbers together — which is why the
workloads had to be repeatable scripts.  This example performs that
procedure with :class:`MeasurementCampaign`, shows the mode schedule
needed for the Table 3.3 events, and cross-checks the assembled
result against a single omniscient-simulation run.

Run:
    python examples/counter_methodology.py
"""

from repro.counters import MeasurementCampaign
from repro.counters.events import Event, MODE_SETS
from repro.machine.config import scaled_config
from repro.machine.simulator import SpurMachine
from repro.workloads.base import take_chunks
from repro.workloads.slc import SlcWorkload

TABLE_3_3_EVENTS = (
    Event.DIRTY_FAULT,
    Event.ZERO_FILL_DIRTY_FAULT,
    Event.DIRTY_BIT_MISS,
    Event.WRITE_TO_READ_FILLED_BLOCK,
    Event.WRITE_MISS_FILL,
)

REFERENCES = 200_000


def main():
    config = scaled_config(memory_ratio=48)
    workload = SlcWorkload(length_scale=0.2)

    campaign = MeasurementCampaign(config, workload)
    modes = campaign.runs_needed_for(TABLE_3_3_EVENTS)
    print("planning: Table 3.3 needs counter mode(s) "
          f"{modes} — {len(modes)} run(s) of the workload")
    for mode in modes:
        names = ", ".join(e.name for e in MODE_SETS[mode][:5])
        print(f"  mode {mode} watches: {names}, ...")

    print(f"\nexecuting one {REFERENCES:,}-reference run per mode "
          f"(all four, for the full picture) ...")
    assembled = campaign.execute(max_references=REFERENCES)

    print("\nassembled hardware measurements:")
    for event in TABLE_3_3_EVENTS:
        print(f"  {event.name:<28} {assembled[event]:>8,}")

    # The cross-check the 1989 team could not do: an omniscient run.
    instance = workload.instantiate(config.page_bytes, seed=0)
    machine = SpurMachine(config, instance.space_map)
    machine.run_chunks(take_chunks(instance.access_chunks(), REFERENCES))
    mismatches = [
        event for event in TABLE_3_3_EVENTS
        if assembled[event] != machine.counters.read(event)
    ]
    if mismatches:
        print(f"\nMISMATCH on {mismatches} — the workload is not "
              f"repeatable!")
    else:
        print("\ncross-check: four stitched hardware runs agree "
              "exactly with one\nomniscient run — the repeatable-"
              "workload methodology is sound.")


if __name__ == "__main__":
    main()
