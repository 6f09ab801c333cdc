"""Exact integer and prime-field matrix arithmetic.

Deterministic routines backing the AIR window verification. Rank over
GF(p) is computed by :mod:`airindex._echelon`, one sparse streaming
elimination for every prime, which the codec also runs for a receiver
its peel does not certify. Exact integer determinants come from
fraction-free (Bareiss) elimination. The window
verifier calls ``det_exact`` only for a window that the peel of
:mod:`airindex._peel`, the package's nonsingularity certificate, does
not certify; no AIR window up to 40 rows needs it.

Matrices are 2-D arrays of integers (anything ``np.asarray`` accepts that
holds only integer values); anything else is refused rather than
truncated. Every field modulus passes :func:`require_prime` on entry,
which states the supported range of p once for ranks and the codec and
checks primality by uncached trial division.
"""

from __future__ import annotations

import operator

import numpy as np

from ._echelon import Echelon

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


def rank_mod_p(mat, p) -> int:
    """Rank of ``mat`` over GF(p), by streaming elimination of its rows."""
    p = require_prime(p)
    a = as_int_matrix(mat)
    return Echelon(a.shape[1], p).insert(a)


def _stacked_ranks_mod_p(top, bottom, p) -> tuple[int, int]:
    """Ranks over GF(p) of ``top`` and of ``top`` with ``bottom`` stacked under it.

    One streaming elimination: ``bottom``'s rows go into the echelon of
    ``top``'s, so the pair costs what the second rank alone does.
    """
    p = require_prime(p)
    top, bottom = as_int_matrix(top), as_int_matrix(bottom)
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
