"""Unit tests for trace serialisation."""

import pytest

from repro.common.errors import TraceFormatError
from repro.workloads.base import IFETCH, READ, WRITE, iter_refs
from repro.workloads.tracefile import read_trace_chunks, write_trace


def read_trace(path):
    """The ``(kind, vaddr)`` records of a trace file, in order."""
    return iter_refs(read_trace_chunks(path))


def test_round_trip(tmp_path):
    path = tmp_path / "trace.bin"
    refs = [(READ, 0x1000), (WRITE, 0xDEADBEEF), (IFETCH, 0)]
    assert write_trace(path, refs) == 3
    assert list(read_trace(path)) == refs


def test_empty_trace(tmp_path):
    path = tmp_path / "empty.bin"
    write_trace(path, [])
    assert list(read_trace(path)) == []


def test_large_trace_spans_chunks(tmp_path):
    path = tmp_path / "big.bin"
    refs = [(i % 3, i * 32) for i in range(10_000)]
    write_trace(path, refs)
    assert list(read_trace(path)) == refs


def test_63_bit_addresses(tmp_path):
    path = tmp_path / "wide.bin"
    refs = [(READ, (1 << 63) - 1), (WRITE, 1 << 40)]
    write_trace(path, refs)
    assert list(read_trace(path)) == refs


def test_address_beyond_a_chunk_is_rejected(tmp_path):
    # Chunks are signed 64-bit arrays: a wider address could be
    # written but never read back, so the writer refuses it.
    with pytest.raises(ValueError):
        write_trace(tmp_path / "wide.bin", [(READ, (1 << 63) + 5)])


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTATRCE" + b"\x00" * 8)
    with pytest.raises(TraceFormatError):
        list(read_trace(path))


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(b"SPUR")
    with pytest.raises(TraceFormatError):
        list(read_trace(path))


def test_truncated_body_rejected(tmp_path):
    path = tmp_path / "cut.bin"
    write_trace(path, [(READ, 1), (READ, 2)])
    data = path.read_bytes()
    path.write_bytes(data[:-4])
    with pytest.raises(TraceFormatError):
        list(read_trace(path))


def test_generator_input(tmp_path):
    path = tmp_path / "gen.bin"
    write_trace(path, ((READ, i) for i in range(100)))
    assert sum(1 for _ in read_trace(path)) == 100
