"""The flat-buffer chunk protocol.

Chunk sizing must follow the protocol — exactly ``chunk_refs``
references per chunk, except a short final chunk — and the reference
sequence must not depend on the chunk size.  What the sequence is, is
pinned absolutely in ``test_stream_pins.py``.
"""

from array import array

import pytest

from repro.common.errors import TraceFormatError
from repro.common.rng import DeterministicRng
from repro.machine.config import scaled_config
from repro.vm.segments import AddressSpaceMap, ProcessAddressSpace
from repro.workloads.base import (
    DEFAULT_CHUNK_REFS,
    READ,
    WorkloadInstance,
    chunk_accesses,
    iter_refs,
    take_chunks,
)
from repro.workloads.devsystems import (
    DEV_SYSTEM_PROFILES,
    DevSystemWorkload,
)
from repro.workloads.mix import RoundRobinScheduler, serial
from repro.workloads.slc import SlcWorkload
from repro.workloads.synthetic import Phase, PhasedProcess, ProcessImage
from repro.workloads.tracefile import read_trace_chunks, write_trace
from repro.workloads.workload1 import Workload1

PAGE = 512


def flatten(chunks):
    """The ``(kind, vaddr)`` sequence a chunk stream encodes."""
    return list(iter_refs(chunks))


def chunk_ref_counts(chunks):
    return [len(chunk) >> 1 for chunk in chunks]


class TestChunkAccessesAdapter:
    def test_preserves_sequence_and_sizes(self):
        refs = [(i % 3, i * 32) for i in range(1000)]
        chunks = list(chunk_accesses(iter(refs), 256))
        assert flatten(chunks) == refs
        assert chunk_ref_counts(chunks) == [256, 256, 256, 232]
        assert all(isinstance(chunk, array) for chunk in chunks)
        assert all(chunk.typecode == "q" for chunk in chunks)

    def test_exact_multiple_has_no_empty_tail(self):
        refs = [(READ, i) for i in range(512)]
        chunks = list(chunk_accesses(iter(refs), 256))
        assert chunk_ref_counts(chunks) == [256, 256]

    def test_empty_stream_yields_nothing(self):
        assert list(chunk_accesses(iter([]), 64)) == []

    def test_rejects_nonpositive_chunk_refs(self):
        with pytest.raises(ValueError):
            list(chunk_accesses(iter([]), 0))

    def test_consumes_lazily(self):
        # Pulling one chunk must not drain the whole source; the
        # remainder stays available to the underlying iterator.
        source = iter([(READ, i) for i in range(100)])
        stream = chunk_accesses(source, 10)
        next(stream)
        assert len(list(source)) == 90


class TestRefAdapters:
    def test_iter_refs_inverts_chunk_accesses(self):
        refs = [(i % 3, i * 32) for i in range(1000)]
        assert flatten(chunk_accesses(iter(refs), 77)) == refs

    def test_iter_refs_of_nothing(self):
        assert flatten([]) == []
        assert flatten([array("q")]) == []

    @pytest.mark.parametrize("count", [0, 1, 255, 256, 257, 999, 5000])
    def test_take_chunks_lands_on_the_count(self, count):
        refs = [(READ, i) for i in range(1000)]
        taken = flatten(take_chunks(chunk_accesses(iter(refs), 256),
                                    count))
        assert taken == refs[:count]

    def test_take_chunks_stops_pulling_at_the_count(self):
        pulled = []

        def source():
            for start in range(0, 1000, 100):
                pulled.append(start)
                yield array("q", [READ, start] * 100)

        list(take_chunks(source(), 250))
        assert pulled == [0, 100, 200]


class TestWorkloadInstanceProtocol:
    def make_instance(self):
        refs = [(i % 3, i * 64) for i in range(300)]
        return refs, WorkloadInstance(
            "T", None, lambda n: chunk_accesses(iter(refs), n),
            len(refs),
        )

    def test_chunk_factory_gets_the_chunk_size(self):
        refs, instance = self.make_instance()
        chunks = list(instance.access_chunks(128))
        assert flatten(chunks) == refs
        assert chunk_ref_counts(chunks) == [128, 128, 44]

    def test_one_shot(self):
        _, instance = self.make_instance()
        instance.access_chunks()
        with pytest.raises(RuntimeError):
            instance.access_chunks()


def phased_process(seed=0, duration=4000):
    space_map = AddressSpaceMap(PAGE)
    space = ProcessAddressSpace(0, PAGE, 1 << 24, space_map)
    image = ProcessImage(space, code_pages=4, heap_pages=32,
                         file_pages=8, data_pages=0)
    space_map.seal()
    phases = [
        Phase(duration=duration, ws_pages=12, write_frac=0.3,
              alloc_pages=4, scan_pages=4),
        Phase(duration=duration // 2, ws_start=8, ws_pages=8,
              write_frac=0.1),
    ]
    return PhasedProcess(image, phases, DeterministicRng(seed))


class TestNativeChunkStreams:
    def test_phased_process_chunks_are_exact(self):
        chunks = list(phased_process(seed=3).access_chunks(512))
        counts = chunk_ref_counts(chunks)
        assert all(count == 512 for count in counts[:-1])
        assert 0 < counts[-1] <= 512

    @pytest.mark.parametrize("chunk_refs", [1, 7, 512])
    def test_phased_process_any_chunk_size(self, chunk_refs):
        whole = flatten(phased_process(seed=5).access_chunks(100_000))
        chunks = list(
            phased_process(seed=5).access_chunks(chunk_refs)
        )
        assert flatten(chunks) == whole

    def test_serial_chain_rechunks_across_jobs(self):
        def build():
            return serial(
                [phased_process(seed=1), phased_process(seed=2)]
            )

        chunks = list(build().access_chunks(768))
        assert flatten(chunks) == (
            flatten(phased_process(seed=1).access_chunks(100_000))
            + flatten(phased_process(seed=2).access_chunks(100_000))
        )
        counts = chunk_ref_counts(chunks)
        # Exact chunking even across the job boundary.
        assert all(count == 768 for count in counts[:-1])

    def test_scheduler_chunk_size_does_not_change_the_stream(self):
        def build():
            return RoundRobinScheduler(
                [(phased_process(seed=1), 1.0),
                 (phased_process(seed=2), 0.5)],
                quantum=640,
            )

        chunks = list(build().access_chunks(500))
        assert flatten(chunks) == flatten(build().access_chunks(77))
        counts = chunk_ref_counts(chunks)
        assert all(count == 500 for count in counts[:-1])

    @pytest.mark.parametrize("factory", [
        lambda: Workload1(length_scale=0.01),
        lambda: SlcWorkload(length_scale=0.01),
        lambda: DevSystemWorkload(DEV_SYSTEM_PROFILES[0],
                                  length_scale=0.01),
    ], ids=["workload1", "slc", "devsystem"])
    def test_top_level_workloads_any_chunk_size(self, factory):
        page_bytes = scaled_config(scale=8).page_bytes
        cap = 20_000

        def head(chunk_refs):
            instance = factory().instantiate(page_bytes, seed=2)
            return flatten(take_chunks(
                instance.access_chunks(chunk_refs), cap
            ))

        assert head(1024) == head(DEFAULT_CHUNK_REFS)


class TestTraceFileChunks:
    def test_reads_back_what_was_written(self, tmp_path):
        path = tmp_path / "trace.bin"
        refs = [(i % 3, i * 32) for i in range(5000)]
        write_trace(path, refs)
        chunks = list(read_trace_chunks(path, 512))
        assert flatten(chunks) == refs
        counts = chunk_ref_counts(chunks)
        assert counts == [512] * 9 + [392]

    def test_truncated_trace_raises(self, tmp_path):
        path = tmp_path / "trace.bin"
        refs = [(READ, i) for i in range(100)]
        write_trace(path, refs)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(TraceFormatError):
            list(read_trace_chunks(path, 64))


class TestLengthHint:
    @pytest.mark.parametrize("factory", [
        lambda: Workload1(length_scale=0.01),
        lambda: SlcWorkload(length_scale=0.01),
    ], ids=["workload1", "slc"])
    def test_hint_within_25_percent(self, factory):
        page_bytes = scaled_config(scale=8).page_bytes
        instance = factory().instantiate(page_bytes, seed=1)
        hint = instance.length_hint
        actual = sum(
            len(chunk) >> 1
            for chunk in instance.access_chunks(DEFAULT_CHUNK_REFS)
        )
        assert hint > 0
        assert abs(actual - hint) <= 0.25 * hint
