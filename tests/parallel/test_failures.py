"""Graceful campaign degradation: failures never abort the campaign.

The failing cell is a RecordedWorkload whose trace file is deleted
after construction — a realistic mid-campaign failure (missing input)
that also pickles cleanly into worker processes.
"""

import os

import pytest

from repro.machine.config import scaled_config
from repro.machine.runner import ExperimentRunner
from repro.observe.sinks import MemorySink
from repro.options import RunOptions
from repro.parallel.cache import ResultCache
from repro.parallel.executor import (
    CampaignError,
    CellFailure,
    RunCell,
    execute_cells,
)
from repro.workloads.recorded import RecordedWorkload, record_workload
from repro.workloads.slc import SlcWorkload

CONFIG = scaled_config(memory_ratio=24, scale=8)
MAX_REFS = 1500


@pytest.fixture
def broken_workload(tmp_path):
    """A workload whose backing trace vanishes before the run."""
    path = tmp_path / "vanishing.bin"
    record_workload(SlcWorkload(length_scale=0.01),
                    CONFIG.page_bytes, path, seed=5,
                    max_references=500)
    workload = RecordedWorkload(str(path))
    os.unlink(path)
    return workload


def make_cells(broken, broken_at=1):
    cells = [
        RunCell(config=CONFIG,
                workload=SlcWorkload(length_scale=0.01),
                seed=seed, max_references=MAX_REFS,
                label=f"good{seed}")
        for seed in (1, 2)
    ]
    cells.insert(broken_at, RunCell(
        config=CONFIG, workload=broken, seed=9,
        max_references=MAX_REFS, label="doomed",
    ))
    return cells


class TestSerialFailures:
    def test_remaining_cells_still_complete(self, broken_workload):
        cells = make_cells(broken_workload)
        with pytest.raises(CampaignError) as excinfo:
            execute_cells(cells)

        error = excinfo.value
        assert [bool(result) for result in error.results] == [
            True, False, True,
        ]
        assert error.results[0].references > 0
        assert error.results[2].references > 0

    def test_failure_names_the_cell(self, broken_workload):
        with pytest.raises(CampaignError) as excinfo:
            execute_cells(make_cells(broken_workload))

        (failure,) = excinfo.value.failures
        assert isinstance(failure, CellFailure)
        assert failure.index == 1
        assert failure.label == "doomed"
        assert failure.seed == 9
        assert failure.workload == "RecordedWorkload"
        assert "doomed" in failure.describe()
        assert "seed=9" in failure.describe()
        assert "doomed" in str(excinfo.value)

    def test_failed_cells_emit_trace_events(self, broken_workload):
        sink = MemorySink()
        with pytest.raises(CampaignError):
            execute_cells(make_cells(broken_workload), sink=sink)

        (failed,) = sink.of_type("cell_failed")
        assert failed["label"] == "doomed"
        assert "FileNotFoundError" in failed["error"]
        finished = sink.of_type("campaign_finished")
        assert finished[0]["failed"] == 1

    def test_successes_are_cached_despite_failure(
        self, broken_workload, tmp_path
    ):
        cache = ResultCache(str(tmp_path / "cache"))
        with pytest.raises(CampaignError) as excinfo:
            execute_cells(make_cells(broken_workload), cache=cache)
        first = excinfo.value.results

        # Re-running only the good cells is pure cache traffic.
        sink = MemorySink()
        good = [cell for cell in make_cells(broken_workload)
                if cell.label != "doomed"]
        again = execute_cells(good, cache=cache, sink=sink)
        assert again == [first[0], first[2]]
        assert len(sink.of_type("cell_cached")) == 2

    def test_multiple_failures_all_reported(self, broken_workload):
        cells = [
            RunCell(config=CONFIG, workload=broken_workload,
                    seed=seed, max_references=MAX_REFS,
                    label=f"doomed{seed}")
            for seed in (1, 2, 3, 4)
        ]
        with pytest.raises(CampaignError) as excinfo:
            execute_cells(cells)
        error = excinfo.value
        assert [f.index for f in error.failures] == [0, 1, 2, 3]
        assert "4 of 4 campaign cells failed" in str(error)
        assert "(4 failures total)" in str(error)


class TestPooledFailures:
    def test_pool_survives_worker_failure(self, broken_workload):
        with pytest.raises(CampaignError) as excinfo:
            execute_cells(make_cells(broken_workload), workers=2)

        error = excinfo.value
        assert [bool(result) for result in error.results] == [
            True, False, True,
        ]
        (failure,) = error.failures
        assert failure.label == "doomed"
        assert "FileNotFoundError" in failure.error

    def test_pool_matches_serial_results(self, broken_workload):
        with pytest.raises(CampaignError) as serial:
            execute_cells(make_cells(broken_workload))
        with pytest.raises(CampaignError) as pooled:
            execute_cells(make_cells(broken_workload), workers=2)

        assert pooled.value.results[0] == serial.value.results[0]
        assert pooled.value.results[2] == serial.value.results[2]

    def test_pool_reports_through_the_campaign_service(
        self, broken_workload
    ):
        sink = MemorySink()
        cells = [cell for cell in make_cells(broken_workload)
                 if cell.label != "doomed"]
        execute_cells(cells, workers=2, sink=sink)

        (started,) = sink.of_type("campaign_started")
        assert started["driver"] == "local(workers=2)"
        assert started["cells"] == 2
        assert started["pending"] == 2
        assert started["resumed"] == 0
        assert len(sink.of_type("worker_pool_started")) == 1

    def test_pool_failure_events_and_partial_results(
        self, broken_workload
    ):
        with pytest.raises(CampaignError) as serial:
            execute_cells(make_cells(broken_workload))
        sink = MemorySink()
        with pytest.raises(CampaignError) as pooled:
            execute_cells(make_cells(broken_workload), workers=2,
                          sink=sink)

        types = [event["type"] for event in sink.events]
        assert types.count("cell_attempt_failed") == 1
        assert types.count("cell_failed") == 1
        assert (types.index("cell_attempt_failed")
                < types.index("cell_failed"))
        (attempt,) = sink.of_type("cell_attempt_failed")
        assert attempt["label"] == "doomed"
        assert attempt["attempt"] == 0
        assert pooled.value.results == serial.value.results


class TestRunnerSurface:
    @pytest.mark.parametrize("traced", [True, False],
                             ids=["traced", "serial"])
    def test_run_many_raises_campaign_error(self, broken_workload,
                                            traced):
        # Every run_many call, plain serial included, goes through the
        # campaign service and its graceful failure handling.
        options = RunOptions(trace_sink=MemorySink() if traced else None)
        runner = ExperimentRunner(options=options)
        with pytest.raises(CampaignError) as excinfo:
            runner.run_many(
                [
                    (CONFIG, SlcWorkload(length_scale=0.01), 1,
                     MAX_REFS),
                    (CONFIG, broken_workload, 9, MAX_REFS),
                ],
                labels=["good", "doomed"],
            )
        (failure,) = excinfo.value.failures
        assert failure.label == "doomed"
        assert excinfo.value.results[0].references > 0
        assert excinfo.value.results[1] is None

    def test_serial_run_many_chains_the_cell_exception(
        self, broken_workload
    ):
        # The failing cell's own exception rides along as the cause,
        # so a serial traceback still ends at the raise site.
        with pytest.raises(CampaignError) as excinfo:
            ExperimentRunner().run_many([
                (CONFIG, broken_workload, 9, MAX_REFS),
            ])
        assert isinstance(excinfo.value.__cause__, FileNotFoundError)
        assert "FileNotFoundError" in excinfo.value.failures[0].error
