"""Batch-scoped trace sharing: generate each distinct trace once.

A workload's reference stream is a pure function of its recipe, the
page size, the seed and the reference cap, so cells of one batch that
agree on all four consume the identical stream.  The
paper's grids are built that way (Table 4.1 runs one WORKLOAD1 and one
SLC trace under every memory size and reference-bit policy), and
regenerating the stream per cell repeats the same draws.

:class:`TraceShare` is planned from the trace key of every cell in a
batch.  The first cell of a key that recurs generates lazily, as any
run does, and records its ``array('q')`` chunks as they stream; later
cells of that key replay the recorded chunks and the sealed
:class:`~repro.vm.segments.AddressSpaceMap`.  Only keys with a pending
use are held: a recording is dropped when its key's last cell opens
it, and a key used once is never recorded.  A stream that raises
mid-run is never stored, so the next cell of that key regenerates.

Every cell still simulates on a fresh, cold machine and reads the
chunks without mutating them, so results are bit-identical to
generating per cell.  Only ``RunResult.host_seconds`` moves: a
replayed cell's excludes generation.

The share lives for one serial batch; it is never module state, so
process-pool workers and worker subprocesses share nothing and each
cell there generates its own trace.
"""

import json
from collections import Counter

from repro.parallel.cache import CacheKeyError, workload_spec


def trace_key(workload, page_bytes, seed, max_references):
    """The identity of one reference stream, or ``None``.

    Uses the workload rendering the result cache keys on.  Recipes
    without a canonical rendering (e.g. a recorded trace, whose path
    has none) get ``None``: they generate per cell.
    """
    try:
        spec = workload_spec(workload)
    except CacheKeyError:
        return None
    return json.dumps(
        [spec, page_bytes, seed, max_references],
        sort_keys=True, separators=(",", ":"),
    )


class TraceShare:
    """Record and replay the repeated traces of one batch.

    ``keys`` lists the :func:`trace_key` of every cell the batch will
    open (``None`` for cells that cannot share); each cell then opens
    its trace once, through :meth:`open`.  Build one through
    :meth:`plan`, which returns ``None`` when no key recurs.
    """

    def __init__(self, keys):
        counts = Counter(key for key in keys if key is not None)
        #: Key -> cells still to open it; only recurring keys.
        self._pending = {
            key: count for key, count in counts.items() if count > 1
        }
        #: Key -> ``(name, space_map, chunks)`` of a finished stream.
        self._recordings = {}

    @classmethod
    def plan(cls, keys):
        """A share for *keys*, or ``None`` if no key recurs."""
        share = cls(keys)
        return share if share._pending else None

    def open(self, generate, workload, page_bytes, seed, max_references):
        """``(name, space_map, chunks)`` for the next cell of the batch.

        ``generate`` is called with the other arguments and returns
        the same triple for a freshly instantiated, capped stream; it
        runs unless a recording of this cell's trace can be replayed.
        """
        key = trace_key(workload, page_bytes, seed, max_references)
        pending = self._pending.get(key, 0)
        if not pending:
            return generate(workload, page_bytes, seed, max_references)
        pending -= 1
        if pending:
            self._pending[key] = pending
            recording = self._recordings.get(key)
        else:
            del self._pending[key]
            recording = self._recordings.pop(key, None)
        if recording is not None:
            name, space_map, chunks = recording
            return name, space_map, iter(chunks)
        name, space_map, chunks = generate(
            workload, page_bytes, seed, max_references
        )
        if pending:
            chunks = self._record(key, name, space_map, chunks)
        return name, space_map, chunks

    def recorded_keys(self):
        """Keys whose recording is currently held."""
        return set(self._recordings)

    def _record(self, key, name, space_map, chunks):
        """Yield *chunks*, storing them once the stream is exhausted.

        A run that raises mid-stream abandons this generator before
        its end, so nothing partial is ever stored.
        """
        recorded = []
        for chunk in chunks:
            recorded.append(chunk)
            yield chunk
        if key in self._pending:
            self._recordings[key] = (name, space_map, recorded)


__all__ = ["TraceShare", "trace_key"]
