"""End-to-end integration: full workloads through the full machine."""

import pytest

from repro.counters.events import Event
from repro.machine.config import scaled_config
from repro.machine.runner import ExperimentRunner
from repro.workloads.slc import SlcWorkload
from repro.workloads.workload1 import Workload1

SCALE = 0.02


@pytest.fixture(scope="module")
def slc_result():
    runner = ExperimentRunner()
    return runner.run(
        scaled_config(memory_ratio=40),
        SlcWorkload(length_scale=SCALE),
    )


@pytest.fixture(scope="module")
def w1_result():
    runner = ExperimentRunner()
    return runner.run(
        scaled_config(memory_ratio=40),
        Workload1(length_scale=SCALE),
    )


class TestWholeSystemInvariants:
    def test_reference_conservation(self, w1_result):
        mix_total = (
            w1_result.event(Event.INSTRUCTION_FETCH)
            + w1_result.event(Event.PROCESSOR_READ)
            + w1_result.event(Event.PROCESSOR_WRITE)
        )
        assert mix_total == w1_result.references

    def test_misses_bounded_by_references(self, w1_result):
        misses = (
            w1_result.event(Event.IFETCH_MISS)
            + w1_result.event(Event.READ_MISS)
            + w1_result.event(Event.WRITE_MISS)
        )
        assert 0 < misses < w1_result.references

    def test_every_miss_translates(self, w1_result):
        misses = (
            w1_result.event(Event.IFETCH_MISS)
            + w1_result.event(Event.READ_MISS)
            + w1_result.event(Event.WRITE_MISS)
        )
        assert w1_result.event(Event.TRANSLATION) == misses

    def test_translation_hits_plus_misses_balance(self, w1_result):
        assert w1_result.event(Event.TRANSLATION) == (
            w1_result.event(Event.PTE_CACHE_HIT)
            + w1_result.event(Event.PTE_CACHE_MISS)
        )

    def test_zero_fill_faults_subset_of_dirty_faults(self, w1_result):
        assert w1_result.event(Event.ZERO_FILL_DIRTY_FAULT) <= (
            w1_result.event(Event.DIRTY_FAULT)
        )

    def test_page_ins_match_counters(self, slc_result):
        assert slc_result.page_ins == slc_result.event(Event.PAGE_IN)
        assert slc_result.page_outs == slc_result.event(Event.PAGE_OUT)

    def test_cycles_exceed_references(self, slc_result):
        assert slc_result.cycles > slc_result.references

    def test_not_modified_bounded(self, slc_result):
        assert slc_result.not_modified <= (
            slc_result.potentially_modified
        )


class TestMemoryPressureGradient:
    def test_smaller_memory_more_page_ins(self):
        runner = ExperimentRunner()
        small = runner.run(scaled_config(memory_ratio=40),
                           SlcWorkload(length_scale=0.05))
        large = runner.run(scaled_config(memory_ratio=64),
                           SlcWorkload(length_scale=0.05))
        assert small.page_ins >= large.page_ins

    def test_residency_never_exceeds_memory(self):
        from tests.conftest import TINY_PAGE, make_machine, simple_space
        space_map, regions = simple_space(heap_pages=40)
        machine = make_machine(
            space_map, memory_bytes=16 * TINY_PAGE, wired_frames=2
        )
        from repro.workloads.base import WRITE
        for wave in range(3):
            machine.run([
                (WRITE, regions["heap"].start + i * TINY_PAGE)
                for i in range(40)
            ])
            assert (
                machine.vm.frame_table.resident_count()
                <= machine.vm.frame_table.allocatable_frames
            )


class TestHardwareCounterMethodology:
    def test_moded_counters_agree_with_omniscient(self):
        # Run the same workload twice: once with the omniscient bank,
        # once with hardware mode 3, exactly as the SPUR methodology
        # re-ran workloads per counter mode.  Shared events must agree.
        from repro.counters.counters import PerformanceCounters
        from repro.machine.simulator import SpurMachine
        from repro.workloads.base import iter_refs

        config = scaled_config(memory_ratio=40)
        workload = SlcWorkload(length_scale=0.01)

        instance_a = workload.instantiate(config.page_bytes, seed=0)
        omni = SpurMachine(config, instance_a.space_map)
        omni.run(iter_refs(instance_a.access_chunks()))

        instance_b = workload.instantiate(config.page_bytes, seed=0)
        moded = SpurMachine(
            config, instance_b.space_map,
            counters=PerformanceCounters(mode=3),
        )
        moded.run(iter_refs(instance_b.access_chunks()))

        for event in (Event.DIRTY_FAULT, Event.DIRTY_BIT_MISS,
                      Event.WRITE_MISS_FILL, Event.PAGE_IN):
            assert moded.counters.read(event) == (
                omni.counters.read(event)
            ), event
