"""Tests for the three paper workload recipes (short instantiations)."""

import pytest

from repro.workloads.base import (
    IFETCH,
    READ,
    WRITE,
    iter_refs,
    take_chunks,
)
from repro.workloads.devsystems import (
    DEV_SYSTEM_PROFILES,
    DevSystemWorkload,
)
from repro.workloads.slc import SlcWorkload
from repro.workloads.workload1 import Workload1

PAGE = 512
SCALE = 0.01


def sample(workload, count=40_000, seed=0):
    instance = workload.instantiate(PAGE, seed=seed)
    refs = list(iter_refs(take_chunks(instance.access_chunks(), count)))
    return instance, refs


def stream_length(instance):
    return sum(len(chunk) >> 1 for chunk in instance.access_chunks())


class TestCommonProperties:
    @pytest.mark.parametrize("workload", [
        Workload1(length_scale=SCALE),
        SlcWorkload(length_scale=SCALE),
        DevSystemWorkload(DEV_SYSTEM_PROFILES[0], length_scale=SCALE),
    ], ids=lambda w: w.name)
    def test_addresses_inside_registered_regions(self, workload):
        instance, refs = sample(workload)
        for kind, vaddr in refs:
            region = instance.space_map.region_of(vaddr)
            assert region is not None, hex(vaddr)
            if kind == WRITE:
                assert region.writable

    @pytest.mark.parametrize("workload", [
        Workload1(length_scale=SCALE),
        SlcWorkload(length_scale=SCALE),
    ], ids=lambda w: w.name)
    def test_reference_mix_is_fetch_dominated(self, workload):
        _, refs = sample(workload)
        kinds = [kind for kind, _ in refs]
        assert kinds.count(IFETCH) > len(kinds) * 0.4
        assert kinds.count(WRITE) > 0

    def test_deterministic_per_seed(self):
        first = sample(Workload1(length_scale=SCALE), seed=5)[1]
        second = sample(Workload1(length_scale=SCALE), seed=5)[1]
        assert first == second

    def test_seeds_vary_the_stream(self):
        first = sample(Workload1(length_scale=SCALE), seed=0)[1]
        second = sample(Workload1(length_scale=SCALE), seed=1)[1]
        assert first != second

    def test_instance_consumed_once(self):
        instance = Workload1(length_scale=SCALE).instantiate(PAGE)
        instance.access_chunks()
        with pytest.raises(RuntimeError):
            instance.access_chunks()


class TestWorkload1:
    def test_has_the_paper_cast(self):
        instance, _ = sample(Workload1(length_scale=SCALE))
        names = {r.name for r in instance.space_map.regions()}
        # espresso + 4 compile jobs + linker + editor + 2 monitors.
        pids = {r.pid for r in instance.space_map.regions()}
        assert len(pids) == 9

    def test_length_scale_shortens(self):
        short = Workload1(length_scale=0.01)
        long = Workload1(length_scale=0.02)
        short_len = stream_length(short.instantiate(PAGE))
        long_len = stream_length(long.instantiate(PAGE))
        assert short_len < long_len

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            Workload1(length_scale=0)


class TestSlc:
    def test_allocation_heavy(self):
        # The Lisp workload's signature: heap writes to fresh pages.
        instance, refs = sample(SlcWorkload(length_scale=SCALE),
                                count=80_000)
        heap = next(r for r in instance.space_map.regions()
                    if r.name == "p0.heap")
        first_op = {}
        for kind, vaddr in refs:
            if heap.contains(vaddr):
                page = (vaddr - heap.start) // PAGE
                first_op.setdefault(page, kind)
        write_first = sum(1 for k in first_op.values() if k == WRITE)
        assert write_first >= len(first_op) * 0.3

    def test_benchmark_count_configurable(self):
        small = SlcWorkload(length_scale=SCALE, benchmarks=2)
        assert stream_length(small.instantiate(PAGE))
        with pytest.raises(ValueError):
            SlcWorkload(benchmarks=0)


class TestDevSystems:
    def test_profiles_match_table_3_5_hosts(self):
        hosts = [p.hostname for p in DEV_SYSTEM_PROFILES]
        assert hosts == [
            "mace", "sloth", "mace", "sage", "fenugreek", "murder",
        ]
        memories = [p.memory_mb for p in DEV_SYSTEM_PROFILES]
        assert memories == [8, 8, 8, 12, 12, 16]

    def test_memory_ratio_scale_free(self):
        assert DEV_SYSTEM_PROFILES[0].memory_ratio == 64   # 8 MB
        assert DEV_SYSTEM_PROFILES[3].memory_ratio == 96   # 12 MB
        assert DEV_SYSTEM_PROFILES[5].memory_ratio == 128  # 16 MB

    def test_workload_name_carries_host(self):
        workload = DevSystemWorkload(DEV_SYSTEM_PROFILES[1],
                                     length_scale=SCALE)
        assert "sloth" in workload.name
