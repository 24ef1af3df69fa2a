"""Tests for the trace-characterisation tool."""

import pytest

from repro.analysis.tracestats import (
    REUSE_BUCKETS,
    TraceStatistics,
    analyze_trace,
)
from repro.common.errors import ConfigurationError
from repro.workloads.base import IFETCH, READ, WRITE

PAGE = 128


class TestBasicCounting:
    def test_reference_mix(self):
        trace = [(IFETCH, 0)] * 6 + [(READ, 0)] * 3 + [(WRITE, 0)]
        stats = analyze_trace(trace, PAGE)
        assert stats.references == 10
        assert stats.ifetch_fraction == pytest.approx(0.6)
        assert stats.write_fraction == pytest.approx(0.25)

    def test_footprint(self):
        trace = [(READ, 0), (READ, PAGE), (READ, 2 * PAGE),
                 (READ, 32), (READ, 0)]
        stats = analyze_trace(trace, PAGE, block_bytes=32)
        assert stats.distinct_pages == 3
        assert stats.distinct_blocks == 4

    def test_write_first_pages(self):
        trace = [(WRITE, 0), (READ, 0),       # page 0: write first
                 (READ, PAGE), (WRITE, PAGE)]  # page 1: read first
        stats = analyze_trace(trace, PAGE)
        assert stats.write_first_pages == 1
        assert stats.write_first_fraction == pytest.approx(0.5)

    def test_empty_trace(self):
        stats = analyze_trace([], PAGE)
        assert stats.references == 0
        assert stats.ifetch_fraction == 0
        assert stats.mean_working_set_pages == 0

    def test_max_references_cap(self):
        trace = [(READ, i * PAGE) for i in range(100)]
        stats = analyze_trace(trace, PAGE, max_references=10)
        assert stats.references == 10
        assert stats.distinct_pages == 10

    def test_bad_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            analyze_trace([], 0)


class TestWorkingSet:
    def test_window_sampling(self):
        # Two windows touching 2 and 4 distinct pages respectively.
        trace = (
            [(READ, 0), (READ, PAGE)] * 2
            + [(READ, i * PAGE) for i in range(4)]
        )
        stats = analyze_trace(trace, PAGE, window=4)
        assert stats.working_set_samples == [2, 4]
        assert stats.mean_working_set_pages == pytest.approx(3.0)


class TestReuseDistance:
    def test_cold_blocks(self):
        trace = [(READ, i * 32) for i in range(5)]
        stats = analyze_trace(trace, PAGE)
        assert stats.cold_blocks == 5
        assert sum(stats.reuse_histogram.values()) == 0

    def test_immediate_reuse_in_first_bucket(self):
        trace = [(READ, 0), (READ, 0)]
        stats = analyze_trace(trace, PAGE)
        assert stats.reuse_histogram[f"<={REUSE_BUCKETS[0]}"] == 1

    def test_long_distance_in_last_bucket(self):
        filler = [(READ, (1 + i) * 32) for i in range(20_000)]
        trace = [(READ, 0)] + filler + [(READ, 0)]
        stats = analyze_trace(trace, PAGE)
        assert stats.reuse_histogram[f">{REUSE_BUCKETS[-1]}"] == 1


class TestSummary:
    def test_summary_lines_render(self):
        trace = [(READ, 0), (WRITE, 32), (IFETCH, PAGE)]
        stats = analyze_trace(trace, PAGE)
        text = "\n".join(stats.summary_lines())
        assert "references" in text
        assert "reuse distances" in text


class TestOnRealWorkload:
    def test_workload1_characterisation(self):
        from repro.workloads.base import iter_refs
        from repro.workloads.workload1 import Workload1

        instance = Workload1(length_scale=0.01).instantiate(512)
        stats = analyze_trace(
            iter_refs(instance.access_chunks()), page_bytes=512,
            max_references=60_000, window=16_384,
        )
        # Fetch-dominated mix (instruction buffer disabled).
        assert stats.ifetch_fraction > 0.4
        # Working sets far exceed the 32-page cache.
        assert stats.mean_working_set_pages > 32
        # Significant write-first allocation (ZFOD behaviour).
        assert stats.write_first_fraction > 0.1
