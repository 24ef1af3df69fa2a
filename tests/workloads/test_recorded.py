"""Tests for trace record/replay workloads."""

import pytest

from repro.common.errors import TraceFormatError
from repro.machine.config import scaled_config
from repro.machine.runner import ExperimentRunner
from repro.workloads.recorded import RecordedWorkload, record_workload
from repro.workloads.slc import SlcWorkload

from tests.workloads.test_stream_pins import STREAM_PINS, stream_digest

PAGE = 512


@pytest.fixture
def capture(tmp_path):
    path = tmp_path / "slc.trace"
    count = record_workload(
        SlcWorkload(length_scale=0.01), PAGE, path,
        seed=3, max_references=30_000,
    )
    return path, count


class TestRecording:
    def test_capture_creates_both_files(self, capture, tmp_path):
        path, count = capture
        assert path.exists()
        assert (tmp_path / "slc.trace.regions").exists()
        # The miniature workload may end before the cap.
        assert 0 < count <= 30_000

    def test_replay_reproduces_the_pinned_stream(self, tmp_path):
        path = tmp_path / "slc0.trace"
        count = record_workload(
            SlcWorkload(length_scale=0.01), PAGE, path, seed=0,
        )
        replayed = RecordedWorkload(path).instantiate(PAGE)
        assert stream_digest(replayed.access_chunks(1000)) == (
            STREAM_PINS["slc"]
        )
        assert count == STREAM_PINS["slc"][0]

    def test_region_map_round_trips(self, capture):
        path, _ = capture
        workload = RecordedWorkload(path)
        instance = workload.instantiate(PAGE)
        names = {r.name for r in instance.space_map.regions()}
        assert any("heap" in name for name in names)
        assert workload.name == "SLC"

    def test_page_size_mismatch_rejected(self, capture):
        path, _ = capture
        with pytest.raises(TraceFormatError):
            RecordedWorkload(path).instantiate(PAGE * 2)

    def test_missing_sidecar_rejected(self, tmp_path):
        path = tmp_path / "orphan.trace"
        path.write_bytes(b"")
        with pytest.raises(TraceFormatError):
            RecordedWorkload(path)

    def test_corrupt_sidecar_rejected(self, capture):
        path, _ = capture
        sidecar = path.parent / "slc.trace.regions"
        sidecar.write_text("NOT-A-REGION-FILE\n")
        with pytest.raises(TraceFormatError):
            RecordedWorkload(path)


class TestReplaySimulation:
    def test_replay_gives_identical_results_across_policies(
        self, capture
    ):
        # The whole point: two policies see the *same* input stream.
        path, _ = capture
        runner = ExperimentRunner()
        results = {}
        for policy in ("SPUR", "FAULT"):
            config = scaled_config(memory_ratio=48,
                                   dirty_policy=policy)
            results[policy] = runner.run(
                config, RecordedWorkload(path)
            )
        assert (
            results["SPUR"].references
            == results["FAULT"].references
        )
        assert results["SPUR"].page_ins == results["FAULT"].page_ins

    def test_replay_matches_live_generation(self, capture):
        path, count = capture
        runner = ExperimentRunner()
        config = scaled_config(memory_ratio=48)
        live = runner.run(
            config, SlcWorkload(length_scale=0.01), seed=3,
            max_references=count,
        )
        replayed = runner.run(config, RecordedWorkload(path))
        assert replayed.cycles == live.cycles
        assert replayed.events == live.events
