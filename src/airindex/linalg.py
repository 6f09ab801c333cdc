"""Exact integer and prime-field matrix arithmetic.

Deterministic routines backing the AIR window verification. Rank over
GF(p) comes from :class:`Echelon`, the package's one GF(p) elimination,
a sparse streaming accumulator for every prime. :func:`rank_mod_p` and
the window verifier insert rows and read ranks; the codec reaches it
only through ``_stacked_ranks_mod_p``, for a receiver its peel does not
certify. Exact integer determinants come from fraction-free (Bareiss)
elimination. The window verifier calls ``det_exact`` only for a window
that the peel of :mod:`airindex._peel`, the package's nonsingularity
certificate, does not certify; no AIR window up to 40 rows needs it.

Matrices are 2-D arrays of integers (anything ``np.asarray`` accepts that
holds only integer values); anything else is refused rather than
truncated. Every field modulus passes :func:`require_prime` on entry, an
encoder's when the encoder is built, which states the supported range of
p once for ranks and the codec and checks primality by uncached trial
division.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = [
    "is_prime",
    "require_prime",
    "as_int_matrix",
    "as_int_array",
    "rank_mod_p",
    "det_exact",
]


def is_prime(p: int) -> bool:
    """Trial-division primality check, uncached.

    Past 2 and 3 it tries only the divisors 6k-1 and 6k+1. Its cost grows
    with sqrt(p): under a microsecond at small primes, a few us at 65521
    and about 1 ms at 3037000493, the largest prime that
    ``require_prime`` accepts.
    """
    if p < 2:
        return False
    if p in (2, 3):
        return True
    if p % 2 == 0 or p % 3 == 0:
        return False
    f = 5
    while f * f <= p:
        if p % f == 0 or p % (f + 2) == 0:
            return False
        f += 6
    return True


def require_prime(p) -> int:
    """The modulus as a plain int, refused unless a prime in range.

    Every GF(p) entry point, ranks and the codec alike, funnels through
    this and shares its one range: p is supported while
    ``(p-1)**2 < 2**63``, so 3037000493 is the largest prime accepted.
    The elimination works on Python ints at every prime, so for ranks
    the bound is a chosen envelope; the codec's int64 sums are exact at every
    such prime (see ``airindex._peel._build_decoder``). Checks run
    cheapest first: a non-integer raises ``TypeError`` rather than being
    truncated, and the range is checked before trial-division primality.
    """
    p = operator.index(p)
    if p > 1 and (p - 1) ** 2 >= 2**63:
        raise ValueError(
            f"p={p} is too large: (p-1)**2 must stay below 2**63 "
            "for exact int64 arithmetic"
        )
    if not is_prime(p):
        raise ValueError(f"field modulus must be prime, got {p}")
    return p


def as_int_matrix(mat) -> np.ndarray:
    """View the input as a 2-D int64 array of exactly the same integers.

    Entries follow the rule of :func:`as_int_array`.
    """
    a = np.asarray(mat)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    return as_int_array(a)


def as_int_array(values) -> np.ndarray:
    """View the input as an int64 array of exactly the same integers.

    Integer and bool arrays convert as they are. Any other entries (floats,
    Python objects) must be integer values that fit in int64; fractional,
    non-finite, complex or string entries raise ``ValueError`` instead of
    being truncated.
    """
    a = np.asarray(values)
    if a.dtype.kind in "bi" or a.size == 0:
        return a.astype(np.int64, copy=False)
    out = None
    if a.dtype.kind in "ufO":
        try:
            with np.errstate(invalid="ignore"):
                out = a.astype(np.int64)
        except (TypeError, ValueError, OverflowError):
            pass
    # the cast truncates or wraps whatever is not an int64 integer
    if out is None or not np.all(out == a):
        raise ValueError(
            f"expected integer entries that fit in int64, got other {a.dtype} values"
        )
    return out


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
    """Streaming row-echelon accumulator for width ``cols`` rows over GF(p).

    ``insert(rows)`` adds one row, or the rows of a 2-D block in order
    (packed in one call), and returns how many of them raised the rank,
    so the rank of any prefix of the insertion order can be read off
    mid-stream. ``pack(rows)`` converts rows to the sparse form and
    ``insert_packed`` accumulates them, so ``insert`` is exactly
    ``insert_packed(pack(rows))``; a caller that inserts the same rows
    into many accumulators of one width and field packs them once and
    passes slices. Packed rows are never modified, so they can be shared.

    Pivots are kept in a map from pivot column to pivot row, in insertion
    order. A pivot row's lowest nonzero entry is its column, where it
    holds a 1, and it is zero at every pivot column found before it.

    One reduction rule serves every field: clear the pivot columns a row
    meets in ascending order. Clearing column c adds a multiple of c's
    pivot row, which is zero below c, so no column already cleared is
    touched and each pivot column is visited at most once. The reduced
    row is the unique member of ``row + span(pivots)`` that is zero at
    every pivot column, so every field and every visiting order agree on
    it.

    Rows are sparse: a dict from column to nonzero entry, with the
    bitmask of those columns (the row's support), and arithmetic on
    Python ints, which is exact for any p. Sparse rows suit every row the
    package eliminates: an AIR row holds at most 3 ones, and a receiver
    the codec's peel does not certify has AIR rows for its window rows.
    A reduction visits ``support & pivot_mask``, lowest column first.
    Each pivot keeps the mask of its other columns, and subtracting the
    pivot adds the pivot columns of that mask to the visit set, so a
    nonzero it fills in at a later pivot column is cleared in turn. A row
    is scaled only when its leading entry is not 1. Dense rows cost a
    dict operation per entry and lose to bit-packed rows over GF(2) and
    GF(3); the README gives the figures. The elimination computes ranks
    only; the package's nonsingularity certificate is the peel.
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


def rank_mod_p(mat, p) -> int:
    """Rank of ``mat`` over GF(p), by streaming elimination of its rows."""
    p = require_prime(p)
    a = as_int_matrix(mat)
    return Echelon(a.shape[1], p).insert(a)


def _stacked_ranks_mod_p(top, bottom, p) -> tuple[int, int]:
    """Ranks over GF(p) of ``top`` and of ``top`` with ``bottom`` stacked under it.

    One streaming elimination: ``bottom``'s rows go into the echelon of
    ``top``'s, so the pair costs what the second rank alone does. Only an
    encoder's stalled receivers reach it, with their dense int64 window
    rows and the prime that the encoder's construction checked, so it
    checks neither again.
    """
    echelon = Echelon(top.shape[1], p)
    rank = echelon.insert(top)
    return rank, rank + echelon.insert(bottom)


def det_exact(mat) -> int:
    """Exact integer determinant, by Bareiss elimination on Python ints.

    Intermediate values are Python ints, so there is no overflow at any
    size, and each intermediate division is exact by construction. Its
    cost grows as n**3: a 100 x 100 AIR window took 25-33 ms on one core
    of an Intel Xeon under Python 3.11, and no size cap bounds it. The
    empty matrix has determinant 1.
    """
    M = as_int_matrix(mat)
    n, n_cols = M.shape
    if n != n_cols:
        raise ValueError(f"determinant needs a square matrix, got {n}x{n_cols}")
    a = [[int(v) for v in row] for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            f = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - f * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1] if n else 1
