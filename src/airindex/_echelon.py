"""Streaming row-echelon accumulator over GF(p), one engine for every prime.

Rows are inserted one at a time and reduced against the pivots found so
far, so the rank of any prefix of the insertion order can be read off
mid-stream.

Pivots are kept in a map from pivot column to pivot row, in insertion
order. A pivot row's lowest nonzero entry is its column, where it holds
a 1, and it is zero at every pivot column found before it.

One reduction rule serves every field: clear the pivot columns a row
meets in ascending order. Clearing column c adds a multiple of c's pivot
row, which is zero below c, so no column already cleared is touched and
each pivot column is visited at most once. The reduced row is the unique
member of ``row + span(pivots)`` that is zero at every pivot column, so
every field and every visiting order agree on it.

Rows are sparse: a dict from column to nonzero entry, with the bitmask
of those columns (the row's support), and arithmetic on Python ints,
which is exact for any p. Sparse rows suit every row the package
eliminates: an AIR row holds at most 3 ones, and a receiver the codec's
peel does not certify has AIR rows for its window rows. A reduction
visits ``support & pivot_mask``, lowest column first. Each pivot keeps
the mask of its other columns, and subtracting the pivot adds the pivot
columns of that mask to the visit set, so a nonzero it fills in at a
later pivot column is cleared in turn. A row is scaled only when its
leading entry is not 1. Dense rows cost a dict operation per entry and
lose to bit-packed rows over GF(2) and GF(3); the README gives the
figures.

The elimination computes ranks only. The package's one nonsingularity
certificate is the field-free peel of :mod:`airindex._peel`; an
integer determinant is :func:`airindex.linalg.det_exact`.

This is the package's one GF(p) elimination.
:func:`airindex.linalg.rank_mod_p` and the window verifier insert rows
and read ranks. The codec reaches it only through :mod:`airindex.linalg`,
for a receiver its peel does not certify: one elimination gives that
receiver's rank before and after its wanted rows are inserted.

``pack(rows)`` converts rows to the sparse form and
``insert_packed(rows)`` accumulates them; ``insert`` is exactly
``insert_packed(pack(rows))``. A caller that inserts the same rows into
many accumulators of one width and field packs them once and passes
slices of the packed rows. Packed rows are never modified, so they can
be shared.
"""

from __future__ import annotations

import numpy as np


def _rows(rows, p: int) -> np.ndarray:
    """``rows`` mod p as a 2-D int64 array; a 1-D ``rows`` is one row."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim == 1:
        rows = rows[None]
    # the division is the costly step and encoder rows are already reduced;
    # read as unsigned, a negative entry is out of range too
    if rows.view(np.uint64).max(initial=0) >= p:
        rows = rows % p
    return rows


class Echelon:
    """Echelon accumulator for width ``cols`` rows over GF(p).

    ``insert(rows)`` adds one row, or the rows of a 2-D block in order
    (packed in one call), and returns how many of them raised the rank;
    ``insert_packed`` does the same for rows ``pack`` already converted,
    on any accumulator of the same width and field.
    """

    def __init__(self, cols: int, p: int):
        self.cols = cols
        self.p = p
        # pivot column -> (pivot row, mask of the row's other columns)
        self._pivots: dict[int, tuple[dict[int, int], int]] = {}
        self._pivot_mask = 0

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def pack(self, rows) -> list[tuple[dict[int, int], int]]:
        """Each row as its nonzero entries (column -> value) and their mask."""
        v = _rows(rows, self.p)
        entries: list[dict[int, int]] = [{} for _ in range(v.shape[0])]
        masks = [0] * v.shape[0]
        rows, cols = np.nonzero(v)
        for r, c, x in zip(rows.tolist(), cols.tolist(), v[rows, cols].tolist()):
            entries[r][c] = x
            masks[r] |= 1 << c
        return list(zip(entries, masks))

    def insert_packed(self, rows) -> int:
        pivots, p, mask = self._pivots, self.p, self._pivot_mask
        rank = len(pivots)
        for row, support in rows:
            hit = support & mask
            if hit:
                row = dict(row)  # packed rows are shared
            while hit:
                low = hit & -hit
                c = low.bit_length() - 1
                f = row.get(c)
                if f:  # a visited column that cancelled is skipped
                    pivot, others = pivots[c]
                    for j, y in pivot.items():
                        x = (row.get(j, 0) - f * y) % p  # exact: Python ints
                        if x:
                            row[j] = x
                        else:
                            del row[j]
                    hit |= others & mask
                hit ^= low
            if row:
                c = min(row)
                if row[c] != 1:
                    inv = pow(row[c], -1, p)
                    row = {j: x * inv % p for j, x in row.items()}
                low = 1 << c
                pivots[c] = (row, sum(1 << j for j in row) ^ low)
                mask |= low
        self._pivot_mask = mask
        return len(pivots) - rank

    def insert(self, rows) -> int:
        return self.insert_packed(self.pack(rows))
