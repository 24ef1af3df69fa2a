"""Batch-scoped trace sharing in serial ``run_many`` batches.

A serial batch generates each distinct trace once: the first cell of a
recurring key records its chunks, later cells replay them on a fresh
machine.  These tests pin when generation happens, how long
recordings live, and that every replayed cell equals a fresh
:meth:`~repro.machine.runner.ExperimentRunner.run` of the same spec.
"""

import dataclasses
from array import array

import pytest

from repro.machine.config import scaled_config
from repro.machine.runner import ExperimentRunner
from repro.machine.traceshare import TraceShare, trace_key
from repro.options import RunOptions
from repro.parallel.executor import CampaignError, RunCell, execute_cells
from repro.workloads.recorded import RecordedWorkload, record_workload
from repro.workloads.slc import SlcWorkload
from repro.workloads.workload1 import Workload1

from tests.parallel.test_pool_route import _ExplodingWorkload

TINY = 0.01
CAP = 3000
PAGE = 512


def config(policy="MISS", ratio=16):
    return scaled_config(memory_ratio=ratio, dirty_policy="SPUR",
                         reference_policy=policy)


def repeated_specs():
    """Two traces, each under three reference policies, interleaved."""
    return [
        (config(policy), recipe(length_scale=TINY), seed, CAP)
        for policy in ("MISS", "REF", "NOREF")
        for recipe, seed in ((Workload1, 0), (SlcWorkload, 1))
    ]


def fresh_results(specs, **options):
    """Each spec run alone: no batch, so no share."""
    runner = ExperimentRunner(options=RunOptions(**options))
    return [
        runner.run(config, workload, seed=seed, max_references=cap)
        for config, workload, seed, cap in specs
    ]


@pytest.fixture
def instantiations(monkeypatch):
    """Record ``(workload name, seed)`` for every instantiate call."""
    calls = []
    for recipe in (Workload1, SlcWorkload, _ExplodingWorkload):
        original = recipe.instantiate

        def spy(self, page_bytes, seed=0, _original=original):
            calls.append((getattr(self, "name", "exploding"), seed))
            return _original(self, page_bytes, seed=seed)

        monkeypatch.setattr(recipe, "instantiate", spy)
    return calls


@pytest.fixture
def held_after_each_run(monkeypatch):
    """The share's held recording keys after every ``run`` call."""
    held = []
    original = ExperimentRunner.run

    def run(self, *args, traces=None, **kwargs):
        try:
            return original(self, *args, traces=traces, **kwargs)
        finally:
            held.append(
                None if traces is None else traces.recorded_keys()
            )

    monkeypatch.setattr(ExperimentRunner, "run", run)
    return held


def _chunks(count, chunk_refs):
    for start in range(0, count, chunk_refs):
        buf = array("q")
        for ref in range(start, min(count, start + chunk_refs)):
            buf.extend((1, ref * 64))
        yield buf


class TestTraceKey:
    def test_equal_inputs_share_a_key(self):
        assert (trace_key(Workload1(length_scale=TINY), PAGE, 0, CAP)
                == trace_key(Workload1(length_scale=TINY), PAGE, 0, CAP))

    @pytest.mark.parametrize("change", [
        {"page_bytes": 1024}, {"seed": 1},
        {"max_references": CAP + 1}, {"max_references": None},
        {"workload": Workload1(length_scale=2 * TINY)},
        {"workload": SlcWorkload(length_scale=TINY)},
    ])
    def test_any_input_change_moves_the_key(self, change):
        base = dict(workload=Workload1(length_scale=TINY),
                    page_bytes=PAGE, seed=0, max_references=CAP)
        assert trace_key(**base) != trace_key(**{**base, **change})

    def test_recorded_traces_have_no_key(self, tmp_path):
        path = tmp_path / "slc.trace"
        record_workload(SlcWorkload(length_scale=TINY), PAGE, path,
                        max_references=CAP)
        assert trace_key(RecordedWorkload(path), PAGE, 0, None) is None


class TestTraceShareLifetime:
    def open(self, share, key, generated):
        def generate(workload, page_bytes, seed, cap):
            generated.append(key)
            return key, "map", _chunks(10, 4)

        name, space_map, chunks = share.open(generate, key, PAGE, 0, None)
        return list(chunks)

    def test_plan_is_none_without_a_recurring_key(self):
        assert TraceShare.plan([]) is None
        assert TraceShare.plan(["a", "b", None, None]) is None
        assert TraceShare.plan(["a", "b", "a"]) is not None

    def test_recordings_live_until_the_last_use(self, monkeypatch):
        monkeypatch.setattr(
            "repro.machine.traceshare.trace_key",
            lambda workload, *rest: workload,
        )
        order = ["a", "b", "a", "c", "a"]
        share = TraceShare(order)
        generated = []
        held = []
        streams = []
        for key in order:
            streams.append(self.open(share, key, generated))
            held.append(share.recorded_keys())
        # Only "a" recurs: generated once, replayed twice, dropped at
        # its last use; "b" and "c" are used once and never held.
        assert generated == ["a", "b", "c"]
        assert held == [{"a"}, {"a"}, {"a"}, {"a"}, set()]
        assert streams[0] == streams[2] == streams[4]

    def test_unfinished_stream_leaves_no_recording(self, monkeypatch):
        monkeypatch.setattr(
            "repro.machine.traceshare.trace_key",
            lambda workload, *rest: workload,
        )
        share = TraceShare(["a", "a"])
        generated = []

        def generate(workload, page_bytes, seed, cap):
            generated.append(workload)
            return workload, "map", _chunks(10, 4)

        _, _, chunks = share.open(generate, "a", PAGE, 0, None)
        next(chunks)
        chunks.close()  # the run raised after one chunk
        assert share.recorded_keys() == set()
        _, _, chunks = share.open(generate, "a", PAGE, 0, None)
        assert len(list(chunks)) == 3
        assert generated == ["a", "a"]
        assert share.recorded_keys() == set()


class TestSerialBatches:
    @pytest.mark.parametrize("route", ["plain", "cached"])
    def test_one_instantiation_per_distinct_trace(
            self, instantiations, tmp_path, route):
        options = (RunOptions() if route == "plain"
                   else RunOptions(cache_dir=str(tmp_path)))
        specs = repeated_specs()
        results = ExperimentRunner(options=options).run_many(specs)
        assert sorted(instantiations) == [("SLC", 1), ("WORKLOAD1", 0)]
        assert results == fresh_results(specs)

    def test_each_batch_generates_afresh(self, instantiations):
        runner = ExperimentRunner()
        runner.run_many(repeated_specs())
        runner.run_many(repeated_specs())
        assert len(instantiations) == 4

    def test_pool_route_shares_nothing_here(self, instantiations):
        # Pool workers run in other processes, so the parent's spy
        # sees no instantiation at all: nothing is shared from here.
        specs = repeated_specs()
        results = ExperimentRunner().run_many(
            specs, options=RunOptions(workers=2)
        )
        assert instantiations == []
        assert results == fresh_results(specs)

    def test_no_recording_outlives_its_last_use(self, held_after_each_run):
        specs = repeated_specs()
        specs.insert(2, (config(), Workload1(length_scale=TINY), 9, CAP))
        ExperimentRunner().run_many(specs)
        workload1, slc, once = (
            trace_key(workload, PAGE, seed, cap)
            for _, workload, seed, cap in specs[:3]
        )
        assert held_after_each_run == [
            {workload1}, {workload1, slc}, {workload1, slc},
            {workload1, slc}, {workload1, slc}, {slc}, set(),
        ]
        assert once not in set().union(*held_after_each_run)

    def test_caps_never_share(self, instantiations):
        workload = Workload1(length_scale=TINY)
        specs = [(config(policy), workload, 0, cap)
                 for cap in (2000, 2500) for policy in ("MISS", "REF")]
        capped = ExperimentRunner().run_many(specs)
        assert len(instantiations) == 2
        assert capped == fresh_results(specs)

    def test_recorded_workload_batch_runs_unshared(
            self, tmp_path, monkeypatch):
        path = tmp_path / "slc.trace"
        record_workload(SlcWorkload(length_scale=TINY), PAGE, path,
                        max_references=CAP)
        workload = RecordedWorkload(path)
        calls = []
        original = RecordedWorkload.instantiate

        def spy(self, page_bytes, seed=0):
            calls.append(seed)
            return original(self, page_bytes, seed=seed)

        monkeypatch.setattr(RecordedWorkload, "instantiate", spy)
        specs = [(config(policy), workload, 0, None)
                 for policy in ("MISS", "REF", "NOREF")]
        results = ExperimentRunner().run_many(specs)
        assert calls == [0, 0, 0]
        assert results == fresh_results(specs)

    @pytest.mark.parametrize("options", [
        {"sanitize": "full"}, {"observe": True, "epoch_refs": 700},
    ], ids=["sanitize-full", "observe"])
    def test_replayed_runs_equal_fresh_runs(self, instantiations,
                                            options):
        specs = repeated_specs()
        results = ExperimentRunner(
            options=RunOptions(**options)
        ).run_many(specs)
        assert len(instantiations) == 2
        assert results == fresh_results(specs, **options)
        if options.get("observe"):
            assert all(r.observation is not None for r in results)


class TestTornStreams:
    def cells(self):
        good = [
            RunCell(config(policy), SlcWorkload(length_scale=TINY),
                    max_references=2000, label=policy)
            for policy in ("MISS", "REF", "NOREF")
        ]
        doomed = RunCell(config(), _ExplodingWorkload(), label="doomed")
        return [good[0], doomed, good[1],
                dataclasses.replace(doomed, label="doomed again"),
                good[2]]

    def test_every_cell_of_a_torn_trace_fails(self, instantiations):
        with pytest.raises(CampaignError) as shared:
            execute_cells(self.cells())
        # Both torn cells generated their own stream; the good trace
        # was generated once for its three cells.
        assert instantiations.count(("exploding", 0)) == 2
        assert instantiations.count(("SLC", 0)) == 1
        with pytest.raises(CampaignError) as pooled:
            execute_cells(self.cells(), workers=2)
        assert [f.label for f in shared.value.failures] == [
            "doomed", "doomed again"
        ]
        assert all("stream torn mid-run" in f.error
                   for f in shared.value.failures)
        assert shared.value.failures == pooled.value.failures
        assert shared.value.results == pooled.value.results
        assert shared.value.results[1] is None
        assert shared.value.results[3] is None
