"""Unit tests for the round-robin scheduler and serial chains."""

import pytest

from repro.workloads.base import chunk_accesses, iter_refs
from repro.workloads.mix import RoundRobinScheduler, serial


class Proc:
    """A process whose ``count`` references all carry kind ``label``."""

    def __init__(self, label, count):
        self.label = label
        self.count = count

    def access_chunks(self, chunk_refs):
        refs = [(self.label, index) for index in range(self.count)]
        return chunk_accesses(refs, chunk_refs)


def labels(source, chunk_refs=3):
    return [label for label, _ in iter_refs(
        source.access_chunks(chunk_refs)
    )]


class TestRoundRobin:
    def test_interleaves_in_quanta(self):
        scheduler = RoundRobinScheduler(
            [Proc(0, 6), Proc(1, 6)], quantum=2
        )
        assert labels(scheduler) == [0, 0, 1, 1] * 3

    def test_all_references_delivered(self):
        scheduler = RoundRobinScheduler(
            [Proc(0, 7), Proc(1, 3)], quantum=4
        )
        refs = list(iter_refs(scheduler.access_chunks(5)))
        assert len(refs) == 10
        assert sorted(refs) == sorted(
            [(0, i) for i in range(7)] + [(1, i) for i in range(3)]
        )

    def test_finished_processes_drop_out(self):
        scheduler = RoundRobinScheduler(
            [Proc(0, 2), Proc(1, 8)], quantum=2
        )
        # After the first process's two refs, only the second runs.
        assert labels(scheduler)[2:] == [1] * 8

    def test_exact_slice_multiple_retires_cleanly(self):
        # A process whose length is an exact multiple of its slice
        # yields a full last slice, then retires on the empty round.
        scheduler = RoundRobinScheduler(
            [Proc(0, 4), Proc(1, 6)], quantum=2
        )
        assert labels(scheduler) == [0, 0, 1, 1, 0, 0, 1, 1, 1, 1]

    def test_weights_scale_quanta(self):
        scheduler = RoundRobinScheduler(
            [(Proc(0, 8), 1.0), (Proc(1, 8), 0.5)], quantum=4
        )
        assert labels(scheduler)[:6] == [0] * 4 + [1] * 2

    def test_chunks_are_exact(self):
        scheduler = RoundRobinScheduler(
            [Proc(0, 7), Proc(1, 6)], quantum=3
        )
        sizes = [len(chunk) >> 1 for chunk in scheduler.access_chunks(4)]
        assert sizes == [4, 4, 4, 1]

    def test_rejects_bad_quantum(self):
        with pytest.raises(ValueError):
            RoundRobinScheduler([], quantum=0)

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            list(RoundRobinScheduler([Proc(0, 1)]).access_chunks(0))

    def test_empty_scheduler(self):
        assert list(RoundRobinScheduler([]).access_chunks()) == []


class TestSerial:
    def test_runs_back_to_back(self):
        chained = serial([Proc(0, 2), Proc(1, 2)])
        assert labels(chained) == [0, 0, 1, 1]

    def test_chunks_span_job_boundaries(self):
        chained = serial([Proc(0, 3), Proc(1, 3), Proc(2, 1)])
        sizes = [len(chunk) >> 1 for chunk in chained.access_chunks(2)]
        assert sizes == [2, 2, 2, 1]

    def test_schedules_like_a_process(self):
        scheduler = RoundRobinScheduler(
            [serial([Proc(0, 1), Proc(1, 1)]), Proc(2, 2)], quantum=2
        )
        assert labels(scheduler) == [0, 1, 2, 2]
