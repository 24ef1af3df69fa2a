"""Tests for the shared-memory multiprocessor system."""

import pytest

from repro.counters.events import Event
from repro.machine.smp import SmpSystem
from repro.vm.segfifo import SegmentedFifoDaemon
from repro.workloads.base import READ, WRITE, chunk_accesses

from tests.conftest import TINY_PAGE, simple_space, tiny_config


def build_system(num_cpus=2, heap_pages=32, **overrides):
    space_map, regions = simple_space(heap_pages=heap_pages)
    system = SmpSystem(
        tiny_config(**overrides), space_map, num_cpus=num_cpus
    )
    return system, regions


class TestConstruction:
    def test_shared_components(self):
        system, _ = build_system(3)
        assert len(system.cpus) == 3
        assert len({id(cpu.page_table) for cpu in system.cpus}) == 1
        assert len({id(cpu.vm) for cpu in system.cpus}) == 1
        assert all(cpu.system is system for cpu in system.cpus)
        assert len(system.bus.caches) == 3

    def test_page_daemon_follows_the_config(self):
        # The shared VM is built from the config the way a
        # uniprocessor's is: the daemon kind and the inactive-list
        # share carry over to a multiprocessor.
        system, _ = build_system(
            2, daemon_kind="segfifo", inactive_fraction=0.5
        )
        daemon = system.vm.daemon
        assert isinstance(daemon, SegmentedFifoDaemon)
        allocatable = system.vm.frame_table.allocatable_frames
        assert daemon.inactive_target == max(2, int(allocatable * 0.5))
        assert all(cpu.vm.daemon is daemon for cpu in system.cpus)

    def test_board_count_limits(self):
        with pytest.raises(ValueError):
            build_system(0)
        with pytest.raises(ValueError):
            build_system(13)


class TestSharedMemorySemantics:
    def test_one_page_fault_serves_all_cpus(self):
        system, regions = build_system(2)
        heap = regions["heap"].start
        cpu0, cpu1 = system.cpus
        cpu0.run([(READ, heap)])
        cpu1.run([(READ, heap)])
        # Second CPU found the page resident: no second page fault.
        assert system.counters.read(Event.PAGE_FAULT) == 1

    def test_dirty_fault_taken_once_system_wide(self):
        system, regions = build_system(2)
        heap = regions["heap"].start
        cpu0, cpu1 = system.cpus
        cpu0.run([(WRITE, heap)])
        cpu1.run([(WRITE, heap + 32)])
        # The shared PTE was already dirty when cpu1 wrote.
        assert system.counters.read(Event.DIRTY_FAULT) == 1

    def test_cross_cpu_stale_dirty_copy_is_a_dirty_miss(self):
        # cpu1 caches a block of a clean page by read; cpu0 dirties
        # the page via another block; cpu1's write then finds a stale
        # cached copy and takes a dirty-bit miss, not a fault.
        system, regions = build_system(2)
        heap = regions["heap"].start
        cpu0, cpu1 = system.cpus
        cpu1.run([(READ, heap + 32)])
        cpu0.run([(WRITE, heap)])
        cpu1.run([(WRITE, heap + 32)])
        assert system.counters.read(Event.DIRTY_FAULT) == 1
        assert system.counters.read(Event.DIRTY_BIT_MISS) == 1

    def test_eviction_flushes_every_cache(self):
        system, regions = build_system(2)
        heap = regions["heap"]
        cpu0, cpu1 = system.cpus
        cpu0.run([(READ, heap.start)])
        cpu1.run([(READ, heap.start + 32)])
        vpn = heap.start >> system.page_bits
        system.vm.evict(vpn)
        for cpu in system.cpus:
            assert cpu.cache.lines_of_page(
                heap.start, system.page_bytes
            ) == []

    def test_write_sharing_migrates_ownership(self):
        system, regions = build_system(2)
        heap = regions["heap"].start
        cpu0, cpu1 = system.cpus
        cpu0.run([(WRITE, heap)])
        cpu1.run([(WRITE, heap)])
        assert cpu0.cache.probe(heap) == -1
        assert cpu1.cache.probe(heap) >= 0
        assert system.bus.ownership_transfers >= 1


class TestInterleavedExecution:
    def test_run_interleaved_consumes_everything(self):
        system, regions = build_system(2, heap_pages=16)
        heap = regions["heap"].start
        streams = [
            [(READ, heap + (i * 32) % (8 * TINY_PAGE))
             for i in range(500)],
            [(WRITE, heap + 8 * TINY_PAGE + (i * 32) % (4 * TINY_PAGE))
             for i in range(300)],
        ]
        total = system.run_interleaved_chunks(
            [chunk_accesses(stream, 64) for stream in streams],
            quantum=64,
        )
        assert total == 800
        assert system.references == 800

    def test_stream_count_must_match_cpus(self):
        system, _ = build_system(2)
        with pytest.raises(ValueError):
            system.run_interleaved_chunks([[]])

    def test_more_cpus_more_bus_traffic_on_shared_data(self):
        results = {}
        for num_cpus in (1, 4):
            system, regions = build_system(num_cpus, heap_pages=16)
            heap = regions["heap"].start
            streams = [
                [
                    (WRITE if (i + c) % 4 == 0 else READ,
                     heap + ((i * 7 + c) % 64) * 32)
                    for i in range(800)
                ]
                for c in range(num_cpus)
            ]
            system.run_interleaved_chunks(
                [chunk_accesses(stream, 32) for stream in streams],
                quantum=32,
            )
            results[num_cpus] = system.bus.snoop_hits
        assert results[4] > results[1]


class TestUniprocessorEquivalence:
    def test_single_cpu_smp_matches_standalone_machine(self):
        from repro.machine.simulator import SpurMachine

        trace = []
        space_map, regions = simple_space()
        heap = regions["heap"].start
        for i in range(400):
            kind = WRITE if i % 5 == 0 else READ
            trace.append((kind, heap + (i * 52) % (16 * TINY_PAGE)))

        smp, _ = build_system(1)
        # Rebuild the same trace against the SMP's own region layout
        # (simple_space is deterministic, so addresses coincide).
        smp.cpus[0].run(trace)

        standalone = SpurMachine(tiny_config(), space_map)
        standalone.run(trace)

        assert smp.cpus[0].cycles == standalone.cycles
        assert smp.counters.read(Event.PAGE_FAULT) == (
            standalone.counters.read(Event.PAGE_FAULT)
        )
