"""Trace serialisation.

A tiny binary format for storing reference streams: useful for exact
repeatability across machines, for regression-testing the generators,
and for replaying a captured stream against many configurations
without regeneration cost.

Format: an 16-byte header (magic, version, record count) followed by
one ``<BQ`` record per reference (kind byte, 64-bit virtual address),
little endian throughout.  Addresses stay below ``2**63``: traces are
read back into signed ``array('q')`` chunks.
"""

import struct

from array import array

from repro.common.errors import TraceFormatError
from repro.workloads.base import DEFAULT_CHUNK_REFS

_MAGIC = b"SPURTRC1"
_HEADER = struct.Struct("<8sQ")
_RECORD = struct.Struct("<BQ")
_CHUNK_RECORDS = 4096
#: Largest address a signed ``array('q')`` chunk can carry.
_MAX_VADDR = 2 ** 63 - 1


def write_trace(path, accesses):
    """Write ``(kind, vaddr)`` tuples to ``path``; returns the count.

    Raises :class:`ValueError` for an address no chunk can carry.
    """
    count = 0
    pack = _RECORD.pack
    with open(path, "wb") as stream:
        stream.write(_HEADER.pack(_MAGIC, 0))  # count patched below
        buffer = []
        for kind, vaddr in accesses:
            if vaddr > _MAX_VADDR:
                raise ValueError(
                    f"address {vaddr:#x} does not fit a trace chunk"
                )
            buffer.append(pack(kind, vaddr))
            count += 1
            if len(buffer) >= _CHUNK_RECORDS:
                stream.write(b"".join(buffer))
                buffer.clear()
        if buffer:
            stream.write(b"".join(buffer))
        stream.seek(0)
        stream.write(_HEADER.pack(_MAGIC, count))
    return count


def read_trace_chunks(path, chunk_refs=DEFAULT_CHUNK_REFS):
    """Yield flat ``array('q')`` chunks of ``chunk_refs`` references.

    Records are bulk-unpacked straight into the interleaved ``kind,
    vaddr`` layout the chunked hot loop consumes (a repeated ``<BQ``
    struct unpacks to exactly that flat sequence), with no per-record
    tuples.

    Raises
    ------
    TraceFormatError
        On a bad magic number or a truncated file.
    """
    if chunk_refs <= 0:
        raise ValueError("chunk_refs must be positive")
    record_size = _RECORD.size
    full_chunk = struct.Struct("<" + "BQ" * chunk_refs)
    with open(path, "rb") as stream:
        header = stream.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise TraceFormatError(f"{path}: truncated header")
        magic, count = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise TraceFormatError(f"{path}: bad magic {magic!r}")
        remaining = count
        while remaining > 0:
            records = min(remaining, chunk_refs)
            data = stream.read(record_size * records)
            if len(data) != record_size * records:
                raise TraceFormatError(
                    f"{path}: truncated after "
                    f"{count - remaining} of {count} records"
                )
            if records == chunk_refs:
                values = full_chunk.unpack(data)
            else:
                values = struct.Struct("<" + "BQ" * records).unpack(
                    data
                )
            yield array("q", values)
            remaining -= records
