"""Shared fixtures: tiny machines and address spaces for fast tests.

The test machine is a radically shrunken SPUR — 1 KB cache (32 lines),
128-byte pages (4 blocks each), 16 KB of memory (128 frames) — so unit
and integration tests run in microseconds while exercising the same
code paths as the full configurations.
"""

import itertools
import random

import pytest

from repro.common.params import CacheGeometry, FaultTiming
from repro.lint.pytest_plugin import (  # noqa: F401
    assert_lint_clean,
    repro_lint,
)
from repro.sanitize.pytest_plugin import sanitizer  # noqa: F401
from repro.machine.config import MachineConfig
from repro.machine.runner import RunResult
from repro.machine.simulator import SpurMachine
from repro.vm.segments import AddressSpaceMap, ProcessAddressSpace, RegionKind
from repro.workloads.base import iter_refs, take_chunks

#: Geometry constants for the tiny test machine.
TINY_PAGE = 128
TINY_CACHE = 1024
TINY_MEMORY = 16 * 1024
BLOCK = 32


def tiny_config(**overrides):
    """A MachineConfig small enough for exhaustive unit tests."""
    values = dict(
        name="tiny",
        cache=CacheGeometry(size_bytes=TINY_CACHE, block_bytes=BLOCK),
        page_bytes=TINY_PAGE,
        memory_bytes=TINY_MEMORY,
        wired_frames=2,
        fault_timing=FaultTiming(page_io=5_000),
        dirty_policy="SPUR",
        reference_policy="MISS",
        daemon_poll_refs=0,
    )
    values.update(overrides)
    return MachineConfig(**values)


def simple_space(page_bytes=TINY_PAGE, code_pages=4, heap_pages=32,
                 stack_pages=2, file_pages=4, data_pages=4):
    """One-process address space map with every region kind.

    Returns ``(space_map, regions)`` where regions is a dict by kind
    name for direct address arithmetic in tests.
    """
    space_map = AddressSpaceMap(page_bytes)
    space = ProcessAddressSpace(0, page_bytes, 1 << 24, space_map)
    regions = {
        "code": space.add_region("code", RegionKind.CODE,
                                 code_pages * page_bytes),
        "data": space.add_region("data", RegionKind.DATA,
                                 data_pages * page_bytes),
        "heap": space.add_region("heap", RegionKind.HEAP,
                                 heap_pages * page_bytes),
        "stack": space.add_region("stack", RegionKind.STACK,
                                  stack_pages * page_bytes),
        "file": space.add_region("file", RegionKind.FILE,
                                 file_pages * page_bytes),
    }
    space_map.seal()
    return space_map, regions


def fault_heavy_trace(regions, count, seed=0, slide_refs=100,
                      window_pages=12, page_bytes=TINY_PAGE):
    """A first-touch-heavy ``(kind, vaddr)`` stream.

    A heap working set of ``window_pages`` pages slides one page every
    ``slide_refs`` references and wraps around the heap, so every
    slide first-touches a page and, once memory is smaller than the
    heap, every wrap re-faults evicted pages back in.  Code fetches,
    data reads, stack writes and file reads ride along.  Draws use
    ``random.random`` only, whose sequence is stable across Python
    versions.
    """
    rng = random.Random(seed)
    heap = regions["heap"]
    heap_pages = heap.size // page_bytes
    code, data = regions["code"], regions["data"]
    stack, file_ = regions["stack"], regions["file"]

    def word(region_start, span):
        return region_start + (int(rng.random() * span) & ~3)

    refs = []
    for i in range(count):
        base = (i // slide_refs) % heap_pages
        draw = rng.random()
        if draw < 0.3:
            refs.append((0, word(code.start, code.size)))
        elif draw < 0.85:
            page = (base + int(rng.random() * window_pages)) % heap_pages
            vaddr = word(heap.start + page * page_bytes, page_bytes)
            refs.append((2 if draw < 0.55 else 1, vaddr))
        elif draw < 0.9:
            refs.append((1, word(data.start, data.size)))
        elif draw < 0.95:
            refs.append((2, word(stack.start, stack.size)))
        else:
            refs.append((1, word(file_.start, file_.size)))
    return refs


def spec_result(config, workload, seed=0, max_references=None):
    """Oracle: the :class:`RunResult` of the spec loop.

    A cold :class:`SpurMachine` runs the workload's stream through the
    per-tuple :meth:`SpurMachine.run`, so the runner's chunked path
    can be held against it cell by cell.
    """
    instance = workload.instantiate(config.page_bytes, seed=seed)
    chunks = instance.access_chunks()
    if max_references is not None:
        chunks = take_chunks(chunks, max_references)
    machine = SpurMachine(config, instance.space_map)
    machine.run(iter_refs(chunks))
    swap = machine.swap.stats
    return RunResult(
        workload=instance.name,
        config_name=config.name,
        memory_bytes=config.memory_bytes,
        dirty_policy=machine.dirty_policy.name,
        reference_policy=machine.reference_policy.name,
        seed=seed,
        references=machine.references,
        cycles=machine.cycles,
        events=machine.counters.snapshot().as_dict(),
        page_ins=swap.page_ins,
        page_outs=swap.page_outs,
        zero_fills=swap.zero_fills,
        potentially_modified=swap.potentially_modified,
        not_modified=swap.not_modified,
    )


def spec_interleave(system, streams, quantum):
    """Oracle: the SMP gang interleave over each CPU's spec ``run``.

    Each round hands every live CPU of ``system`` the next
    ``quantum``-reference slice of its ``(kind, vaddr)`` stream; a
    short slice retires the CPU.  The chunked
    :meth:`SmpSystem.run_interleaved_chunks` must match it bit for
    bit.  Returns total references.
    """
    iterators = [iter(stream) for stream in streams]
    live = list(range(len(iterators)))
    total = 0
    while live:
        finished = []
        for cpu_index in live:
            batch = list(itertools.islice(iterators[cpu_index], quantum))
            if batch:
                total += system.cpus[cpu_index].run(batch)
            if len(batch) < quantum:
                finished.append(cpu_index)
        for cpu_index in finished:
            live.remove(cpu_index)
    return total


def make_machine(space_map=None, **overrides):
    """A tiny SpurMachine over ``space_map`` (a default one if None)."""
    if space_map is None:
        space_map, _ = simple_space(
            overrides.get("page_bytes", TINY_PAGE)
        )
    return SpurMachine(tiny_config(**overrides), space_map)


@pytest.fixture
def space_and_regions():
    return simple_space()


@pytest.fixture
def machine(space_and_regions):
    space_map, regions = space_and_regions
    m = make_machine(space_map)
    m.test_regions = regions
    return m


@pytest.fixture
def sanitized_machine(space_and_regions, sanitizer):
    """A tiny machine running under the full-mode invariant sanitizer.

    Every reference the test pushes through ``run()`` is checked, and
    the teardown sweep (from the ``sanitizer`` factory fixture) fails
    the test if it left latent corruption behind.
    """
    space_map, regions = space_and_regions
    m = make_machine(space_map)
    m.test_regions = regions
    m.sanitizer = sanitizer(m, mode="full")
    return m
