"""Columnar storage for the cache's per-line tag state.

Every reference is tested against the cache's per-line tag state, so
it lives in parallel per-line columns rather than line objects: a
:class:`ColumnStore` owns one plain ``list`` of ints per fact.  Each
fact is stored once.  ``line_block`` is the resident block number of a
line, or -1 when the line is invalid; the rest of the tag word is
derived from it where it is read:

* valid ⇔ ``line_block >= 0``;
* address tag = ``line_block >> index_bits``;
* block-aligned fill address = ``line_block << block_bits``;
* filled by a read ⇔ valid and not ``block_dirty`` — a fill sets
  ``block_dirty`` exactly when the fill was a write, the first write
  hit sets it, and only invalidation clears it.

Flag columns (``page_dirty``, ``block_dirty``, ``holds_pte``) hold 0/1
(``False``/``True`` included) and ``prot`` holds the two-bit
protection encoding (a plain int, or the PTE's
:class:`~repro.common.types.Protection` member, which compares as
one).  Two invariants keep the store safe (checked by
``repro.sanitize.checks.check_column_store``):

* the columns are allocated once and only ever mutated **in place**
  (``col[i] = x``), never rebound — the cache's public attributes, the
  machine's loops and the sanitizer all alias them directly;
* the coherency ``state`` column stays a plain Python list of
  :class:`~repro.cache.coherence.CoherencyState` members (inspection
  and policy code relies on enum identity), so it is deliberately
  *not* part of this store.
"""

#: Every column, by attribute name.
COLUMNS = ("line_block", "prot", "page_dirty", "block_dirty",
           "holds_pte")

#: The columns constrained to boolean 0/1 values.
FLAG_COLUMNS = ("page_dirty", "block_dirty", "holds_pte")


class ColumnStore:
    """Per-line tag columns, allocated once and mutated in place."""

    def __init__(self, num_lines):
        self.num_lines = num_lines
        # Block numbers are non-negative, so -1 never matches a probe.
        self.line_block = [-1] * num_lines
        self.prot = [0] * num_lines
        self.page_dirty = [0] * num_lines
        self.block_dirty = [0] * num_lines
        self.holds_pte = [0] * num_lines

    def columns(self):
        """``(name, column)`` pairs for every column."""
        for name in COLUMNS:
            yield name, getattr(self, name)


__all__ = ["ColumnStore", "COLUMNS", "FLAG_COLUMNS"]
