"""Absolute pin: fault-heavy runs have fixed, recorded results.

The equivalence tests compare the tuple path with the chunked path,
so a change that moves both alike (a VM, policy, translation or cache
change) passes them.  This pin holds a digest of the counter bank,
cycles, VM and swap totals for every cell of a small fault-heavy
policy grid at a fixed seed, and checks both paths against it.

A second pin holds the result digests of a small WORKLOAD1/SLC
reference-policy grid run through ``ExperimentRunner.run_many`` on
each of its routes (plain serial, the campaign service, a process
pool), and ties the grid's combined digest to
``repro.parallel.cache.CACHE_FORMAT``.  A deliberate semantic change
must re-record the digests and bump ``CACHE_FORMAT``.

Two more pins cover what those grids do not: the six Table 3.5
dev-system cells the benchmark's campaign grid runs (their combined
digest also tied to ``CACHE_FORMAT``), and one fault-heavy 2-CPU cell
per dirty policy, the only absolute pin on a shared bus.
"""

import hashlib
import json

import pytest

from repro.analysis.experiments import DEV_SYSTEM_PROFILES, run_table_3_5
from repro.machine.config import scaled_config
from repro.machine.runner import ExperimentRunner
from repro.machine.simulator import SpurMachine
from repro.machine.smp import SmpSystem
from repro.options import RunOptions
from repro.parallel.cache import CACHE_FORMAT, result_to_payload
from repro.policies.costs import DIRTY_POLICY_NAMES
from repro.workloads.base import chunk_accesses
from repro.workloads.slc import SlcWorkload
from repro.workloads.workload1 import Workload1

from tests.conftest import (
    fault_heavy_trace,
    simple_space,
    spec_interleave,
    tiny_config,
)

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


# -- runner-level pin --------------------------------------------------

GRID_LENGTH = 0.005
GRID_CAP = 10_000
GRID_SEED = 0
GRID_RECIPES = {"WORKLOAD1": Workload1, "SLC": SlcWorkload}
GRID_RATIOS = (8, 16)
GRID_POLICIES = ("MISS", "REF", "NOREF")

#: Result digest per ``(workload, memory_ratio, reference_policy)``
#: cell, SPUR dirty bits.  Each workload's trace repeats across its six
#: cells, and the smaller memory pages out under every policy.
RUNNER_GOLDEN = {
    ("WORKLOAD1", 8, "MISS"): "5e5f1105c75769d4",
    ("WORKLOAD1", 8, "REF"): "78c07212eda94cd7",
    ("WORKLOAD1", 8, "NOREF"): "75f01ac32270353d",
    ("WORKLOAD1", 16, "MISS"): "ae97427c120acdad",
    ("WORKLOAD1", 16, "REF"): "af98da66cd3bd577",
    ("WORKLOAD1", 16, "NOREF"): "9861f72e6fa800b6",
    ("SLC", 8, "MISS"): "29cd91bba48ca202",
    ("SLC", 8, "REF"): "b92864b5971b28c5",
    ("SLC", 8, "NOREF"): "b128fd7876a7adf1",
    ("SLC", 16, "MISS"): "36956e90c57abd83",
    ("SLC", 16, "REF"): "20fe7833974af57a",
    ("SLC", 16, "NOREF"): "ea86c50758304237",
}

#: The grid's combined digest under each ``CACHE_FORMAT``.  Entries
#: are history: a change that moves the digest adds a new entry under
#: a bumped format and never edits an old one, so warm caches and
#: journals cannot serve results computed under other semantics.
GRID_DIGEST_BY_FORMAT = {
    1: "028622b0d893a5f1",
}


def grid_cells():
    return [
        (name, ratio, policy)
        for name in GRID_RECIPES
        for ratio in GRID_RATIOS
        for policy in GRID_POLICIES
    ]


def grid_specs():
    return [
        (scaled_config(memory_ratio=ratio, dirty_policy="SPUR",
                       reference_policy=policy),
         GRID_RECIPES[name](length_scale=GRID_LENGTH),
         GRID_SEED, GRID_CAP)
        for name, ratio, policy in grid_cells()
    ]


def result_digest(result):
    """16-hex-digit digest of everything a result measured."""
    payload = result_to_payload(result)
    del payload["format"]
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()[:16]


def combined_digest(digests):
    joined = ",".join(digests).encode("utf-8")
    return hashlib.sha256(joined).hexdigest()[:16]


@pytest.fixture(scope="module")
def grid_digests(tmp_path_factory):
    """Route name -> per-cell digests, each route run at most once."""
    routes = {
        "serial": lambda: RunOptions(),
        "service": lambda: RunOptions(
            cache_dir=str(tmp_path_factory.mktemp("grid-cache"))
        ),
        "pool": lambda: RunOptions(workers=2),
    }
    seen = {}

    def digests(route):
        if route not in seen:
            runner = ExperimentRunner(options=routes[route]())
            seen[route] = [
                result_digest(result)
                for result in runner.run_many(grid_specs())
            ]
        return seen[route]

    return digests


@pytest.mark.parametrize("route", ["serial", "service", "pool"])
def test_runner_grid_matches_golden(grid_digests, route):
    assert dict(zip(grid_cells(), grid_digests(route))) == RUNNER_GOLDEN


def test_grid_digest_is_tied_to_cache_format(grid_digests):
    digest = combined_digest(grid_digests("serial"))
    assert GRID_DIGEST_BY_FORMAT.get(CACHE_FORMAT) == digest, (
        f"the grid digest is {digest}, but CACHE_FORMAT "
        f"{CACHE_FORMAT} records "
        f"{GRID_DIGEST_BY_FORMAT.get(CACHE_FORMAT)}: a semantic "
        f"change must bump CACHE_FORMAT and add its digest here"
    )


# -- Table 3.5 dev-system pin --------------------------------------------

DEV_LENGTH = 0.03
DEV_SEED = 0

#: ``(host, result digest)`` per dev-system cell, in profile order:
#: the six SPUR/MISS cells of ``run_table_3_5`` at the length and seed
#: the benchmark's campaign grid runs them.  ``mace`` appears twice,
#: once per uptime.
DEV_SYSTEM_GOLDEN = [
    ("mace", "a2e6f4dd80ea32d3"),
    ("sloth", "5eaca9869e21ef25"),
    ("mace", "2e668813d223d6c0"),
    ("sage", "e077826bc10a84b1"),
    ("fenugreek", "3c30342b1eb95026"),
    ("murder", "ac1c93d1a6283415"),
]

#: The dev-system cells' combined digest under each ``CACHE_FORMAT``;
#: history, like ``GRID_DIGEST_BY_FORMAT``.
DEV_SYSTEM_DIGEST_BY_FORMAT = {
    1: "1d5d67bcc8e3d02f",
}


class RecordingRunner(ExperimentRunner):
    """A runner that keeps every result its ``run_many`` returns."""

    def run_many(self, specs, *args, **kwargs):
        results = super().run_many(specs, *args, **kwargs)
        self.results = list(results)
        return results


@pytest.fixture(scope="module")
def dev_system_digests():
    runner = RecordingRunner()
    run_table_3_5(length_scale=DEV_LENGTH, seed=DEV_SEED, runner=runner)
    return [
        (profile.hostname, result_digest(result))
        for profile, result in zip(DEV_SYSTEM_PROFILES, runner.results)
    ]


def test_dev_system_cells_match_golden(dev_system_digests):
    assert dev_system_digests == DEV_SYSTEM_GOLDEN


def test_dev_system_digest_is_tied_to_cache_format(dev_system_digests):
    digest = combined_digest([digest for _, digest in dev_system_digests])
    assert DEV_SYSTEM_DIGEST_BY_FORMAT.get(CACHE_FORMAT) == digest


# -- shared-bus pin ------------------------------------------------------

SMP_REFS = 2500
SMP_QUANTUM = 256
SMP_POLICIES = DIRTY_POLICY_NAMES + ("PROTMISS",)

#: Digest per dirty policy of a 2-CPU fault-heavy run: both processors
#: walk the same heap, so snoops, ownership transfers and cross-cache
#: page flushes all happen on the shared bus.
SMP_GOLDEN = {
    "MIN": "d55685f39e7820cf",
    "FAULT": "ea57504e40f5edfe",
    "FLUSH": "10e640277e85c3a3",
    "SPUR": "3f7cfc15221795f8",
    "WRITE": "973ccd618c01f691",
    "PROTMISS": "3f7cfc15221795f8",
}


def run_smp_cell(dirty, chunked):
    space_map, regions = simple_space(heap_pages=64)
    system = SmpSystem(
        tiny_config(memory_bytes=4 * 1024, daemon_poll_refs=500,
                    dirty_policy=dirty, reference_policy="MISS"),
        space_map, num_cpus=2,
    )
    streams = [fault_heavy_trace(regions, SMP_REFS, seed=seed)
               for seed in (SEED, SEED + 1)]
    if chunked:
        system.run_interleaved_chunks(
            [chunk_accesses(iter(stream), SMP_QUANTUM)
             for stream in streams],
            quantum=SMP_QUANTUM,
        )
    else:
        spec_interleave(system, streams, quantum=SMP_QUANTUM)
    return system


def smp_digest(system):
    """16-hex-digit digest of everything a 2-CPU run measured."""
    bus = system.bus
    record = {
        "digests": [machine_digest(cpu) for cpu in system.cpus],
        "bus": [bus.transactions, bus.snoop_hits,
                bus.ownership_transfers, bus.invalidations],
        "caches": [sorted(cpu.cache.stats.items())
                   for cpu in system.cpus],
    }
    encoded = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("chunked", [False, True],
                         ids=["spec_interleave", "run_interleaved_chunks"])
@pytest.mark.parametrize("dirty", SMP_POLICIES)
def test_smp_fault_heavy_cells_match_golden(dirty, chunked):
    system = run_smp_cell(dirty, chunked)
    assert system.vm.stats.page_faults > 0
    assert system.bus.snoop_hits > 0
    assert smp_digest(system) == SMP_GOLDEN[dirty]
