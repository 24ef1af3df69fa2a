"""The pooled ``run_many``/``execute_cells`` route through the service.

Every call runs through
:class:`~repro.campaignd.service.CampaignService` on a
:class:`~repro.campaignd.drivers.LocalDriver`, in process at one
worker or over a pool at ``workers=2``.  Its contract
(docs/parallel.md): pooled results bit-identical to the serial ones —
same counters, cycles, page traffic and cached-result keys — across
the full dirty x reference policy grid, poll schedules, trimmed
streams, observation and sanitizer modes.  The chunked machine under
it matches the spec tuple loop per dirty policy.
"""

import dataclasses

import pytest

from repro.machine.config import scaled_config
from repro.machine.runner import ExperimentRunner
from repro.machine.simulator import SpurMachine
from repro.observe.sinks import MemorySink
from repro.options import RunOptions
from repro.parallel.cache import ResultCache
from repro.parallel.executor import (
    CampaignError,
    RunCell,
    execute_cells,
)
from repro.policies.costs import DIRTY_POLICY_NAMES
from repro.policies.reference import REFERENCE_POLICY_NAMES
from repro.workloads.base import iter_refs, take_chunks
from repro.workloads.slc import SlcWorkload
from repro.workloads.workload1 import Workload1

TINY = 0.01
MAX_REFS = 4000


def tiny_config(**overrides):
    return scaled_config(memory_ratio=40, **overrides)


def policy_grid_specs(max_refs=MAX_REFS, poll=777):
    """5 dirty x 3 reference policies, staggered stream trims."""
    specs = []
    for i, dirty in enumerate(DIRTY_POLICY_NAMES):
        for j, ref in enumerate(REFERENCE_POLICY_NAMES):
            config = tiny_config(
                dirty_policy=dirty, reference_policy=ref,
                daemon_poll_refs=poll,
                name=f"{dirty}-{ref}",
            )
            specs.append((
                config, Workload1(length_scale=TINY), 11,
                max_refs + 13 * (3 * i + j),
            ))
    return specs


def assert_results_identical(serial, pooled):
    assert len(serial) == len(pooled)
    for a, b in zip(serial, pooled):
        assert a.references == b.references
        assert a.cycles == b.cycles
        assert a.events == b.events
        assert a.page_ins == b.page_ins
        assert a.page_outs == b.page_outs
        # The dataclass as a whole (host-side fields and the
        # observation are excluded from equality by design).
        assert a == b


def serial_and_pooled(specs, **options):
    runner = ExperimentRunner()
    serial = runner.run_many(specs, options=RunOptions(**options))
    pooled = runner.run_many(
        specs, options=RunOptions(workers=2, **options),
    )
    return serial, pooled


# -- end-to-end bit-identity -------------------------------------------


class TestPoolBitEquivalence:
    def test_policy_grid_with_poll_schedule(self):
        serial, pooled = serial_and_pooled(policy_grid_specs())
        assert_results_identical(serial, pooled)

    @pytest.mark.parametrize("size", [1, 7, 64])
    def test_campaign_sizes(self, size):
        refs = 1500 if size == 64 else MAX_REFS
        specs = [
            (tiny_config(), Workload1(length_scale=TINY), seed, refs)
            for seed in range(size)
        ]
        assert_results_identical(*serial_and_pooled(specs))

    def test_mixed_workloads_and_geometries(self):
        """SLC + WORKLOAD1 at two geometries in one campaign."""
        specs = []
        for scale in (8, 16):
            for workload in (SlcWorkload(length_scale=TINY),
                             Workload1(length_scale=TINY)):
                specs.append((
                    scaled_config(memory_ratio=40, scale=scale),
                    workload, 3, MAX_REFS,
                ))
        assert_results_identical(*serial_and_pooled(specs))

    def test_poll_disabled(self):
        specs = [
            (tiny_config(daemon_poll_refs=0),
             Workload1(length_scale=TINY), seed, MAX_REFS)
            for seed in range(3)
        ]
        assert_results_identical(*serial_and_pooled(specs))


# -- chunked machine vs the spec loop ----------------------------------


def _trim(chunks, max_refs):
    taken = 0
    for chunk in chunks:
        pairs = len(chunk) // 2
        if taken + pairs >= max_refs:
            yield chunk[:2 * (max_refs - taken)]
            return
        taken += pairs
        yield chunk


def chunked_machine(config, seed, max_refs=MAX_REFS):
    instance = Workload1(length_scale=TINY).instantiate(
        config.page_bytes, seed=seed
    )
    machine = SpurMachine(config, instance.space_map)
    machine.run_chunks(_trim(instance.access_chunks(1024), max_refs))
    return machine


def spec_machine(config, seed, max_refs=MAX_REFS):
    instance = Workload1(length_scale=TINY).instantiate(
        config.page_bytes, seed=seed
    )
    machine = SpurMachine(config, instance.space_map)
    machine.run(iter_refs(take_chunks(instance.access_chunks(), max_refs)))
    return machine


def assert_machines_identical(machine, other):
    assert machine.references == other.references
    assert machine.cycles == other.cycles
    assert (machine.counters.snapshot().as_dict()
            == other.counters.snapshot().as_dict())
    for name, column in machine.cache.columns.columns():
        assert list(column) == list(
            getattr(other.cache.columns, name)
        ), f"column {name!r} diverged"
    assert machine.cache.state == other.cache.state


class TestChunkedMatchesSpec:
    @pytest.mark.parametrize("dirty", DIRTY_POLICY_NAMES)
    def test_run_chunks_matches_spec_run(self, dirty):
        config = tiny_config(dirty_policy=dirty, daemon_poll_refs=777)
        assert_machines_identical(
            chunked_machine(config, seed=2), spec_machine(config, seed=2)
        )

    def test_traced_serial_route_matches_plain(self):
        """A traced serial campaign through the service matches the
        untraced one."""
        specs = policy_grid_specs(max_refs=1500)[:4]
        runner = ExperimentRunner()
        expected = runner.run_many(specs, options=RunOptions())
        sink = MemorySink()
        got = runner.run_many(
            specs, options=RunOptions(trace_sink=sink),
        )
        assert_results_identical(expected, got)
        assert len(sink.of_type("cell_finished")) == len(specs)


# -- campaign integration ----------------------------------------------


def make_cells(count=4, **overrides):
    return [
        RunCell(config=tiny_config(daemon_poll_refs=777),
                workload=Workload1(length_scale=TINY),
                seed=seed, max_references=2000,
                label=f"cell{seed}", **overrides)
        for seed in range(count)
    ]


class _ExplodingWorkload:
    """Workload whose stream raises after its first chunk."""

    def instantiate(self, page_bytes, seed=0):
        good = Workload1(length_scale=TINY).instantiate(
            page_bytes, seed=seed
        )
        return _ExplodingInstance(good)


class _ExplodingInstance:
    def __init__(self, inner):
        self.inner = inner
        self.space_map = inner.space_map
        self.name = "exploding"

    def access_chunks(self, chunk_refs):
        for i, chunk in enumerate(
            self.inner.access_chunks(chunk_refs)
        ):
            if i == 1:
                raise RuntimeError("stream torn mid-run")
            yield chunk


class TestPoolCampaign:
    def test_pool_matches_serial(self):
        cells = make_cells(5)
        assert execute_cells(cells, workers=2) == execute_cells(cells)

    def test_serial_campaign_started_names_driver(self):
        sink = MemorySink()
        execute_cells(make_cells(2), sink=sink)
        (started,) = sink.of_type("campaign_started")
        assert started["driver"] == "local(workers=1)"
        assert started["cells"] == 2
        assert started["pending"] == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_mid_stream_failure_degrades_gracefully(self, workers):
        cells = make_cells(3)
        cells.insert(1, dataclasses.replace(
            cells[0],
            workload=_ExplodingWorkload(),
            label="doomed",
            max_references=None,  # the stream tears after one chunk
        ))
        with pytest.raises(CampaignError) as excinfo:
            execute_cells(cells, workers=workers)
        error = excinfo.value
        assert len(error.failures) == 1
        assert error.failures[0].label == "doomed"
        assert "stream torn mid-run" in error.failures[0].error
        assert error.results[1] is None
        good = [r for i, r in enumerate(error.results) if i != 1]
        assert all(r is not None for r in good)
        # The surviving cells match a clean serial campaign.
        clean = execute_cells(make_cells(3))
        assert good == clean

    def test_result_cache_round_trip(self, tmp_path):
        cells = make_cells()
        cache = ResultCache(tmp_path)
        sink = MemorySink()
        first = execute_cells(cells, cache=cache, workers=2)
        second = execute_cells(cells, cache=cache, workers=2,
                               sink=sink)
        assert first == second
        assert len(sink.of_type("cell_cached")) == len(cells)
        (started,) = sink.of_type("campaign_started")
        assert started["driver"] == "local(workers=2)"
        assert started["cached"] == len(cells)
        assert started["pending"] == 0
        # Entries stored by the pool satisfy a serial campaign too.
        serial = execute_cells(cells, cache=cache)
        assert serial == first


# -- telemetry under the pool ------------------------------------------


class TestPoolTelemetry:
    def test_observer_parity(self):
        specs = policy_grid_specs(max_refs=2500)[:3]
        serial, pooled = serial_and_pooled(
            specs, observe=True, epoch_refs=800,
        )
        assert_results_identical(serial, pooled)
        for result in pooled:
            observation = result.observation
            assert observation is not None
            assert len(observation.samples) >= 2
            final = observation.samples[-1]
            assert final.references == result.references
            assert final.cycles == result.cycles

    @pytest.mark.parametrize("mode", ["full", "sampled", "epoch"])
    def test_sanitized_pool_matches_serial(self, mode):
        specs = policy_grid_specs(max_refs=1500)[:3]
        runner = ExperimentRunner()
        serial = runner.run_many(specs, options=RunOptions())
        pooled = runner.run_many(
            specs, options=RunOptions(workers=2, sanitize=mode),
        )
        assert_results_identical(serial, pooled)
