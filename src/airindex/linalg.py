"""Exact integer and prime-field matrix arithmetic.

Deterministic routines backing the AIR window verification: rank over
GF(p), computed by the same streaming echelon the codec eliminates with
(:mod:`airindex._echelon`), and exact integer determinants via
fraction-free elimination.

Matrices are plain 2-D integer arrays (anything ``np.asarray`` accepts);
a field modulus is a plain int that must be prime, checked on entry. The
rank is exact in int64 only while ``(p-1)**2 < 2**63``, so larger primes
are refused.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ._echelon import stream_echelon

__all__ = [
    "is_prime",
    "require_prime",
    "as_int_matrix",
    "require_rank_prime",
    "rank_mod_p",
    "det_exact",
]


@lru_cache(maxsize=None)
def is_prime(p: int) -> bool:
    """Trial-division primality check; cached, meant for small moduli."""
    if p < 2:
        return False
    if p in (2, 3):
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def require_prime(p) -> int:
    """Coerce to int and fail fast unless prime.

    Every GF(p) entry point funnels through this, so a composite modulus
    can never reach the arithmetic.
    """
    p = int(p)
    if not is_prime(p):
        raise ValueError(f"field modulus must be prime, got {p}")
    return p


def as_int_matrix(mat) -> np.ndarray:
    """View the input as a 2-D int64 array."""
    a = np.asarray(mat, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    return a


def require_rank_prime(p) -> int:
    """``require_prime``, plus the int64 limit of GF(p) elimination.

    Elimination forms ``f * row`` with both factors below p in int64, so
    it is exact only while ``(p-1)**2 < 2**63``; a larger prime would
    wrap silently, so it is refused here instead.
    """
    p = require_prime(p)
    if (p - 1) ** 2 >= 2**63:
        raise ValueError(
            f"p={p} is too large for an exact int64 rank: (p-1)**2 must stay below 2**63"
        )
    return p


def rank_mod_p(mat, p) -> int:
    """Rank of ``mat`` over GF(p), by streaming elimination of its rows."""
    p = require_rank_prime(p)
    a = as_int_matrix(mat)
    return stream_echelon(a.shape[1], 0, p).insert(a)


def det_exact(mat) -> int:
    """Exact integer determinant via fraction-free (Bareiss) elimination.

    Intermediate values are Python ints, so there is no overflow at any
    size; each intermediate division is exact by construction.
    """
    M = as_int_matrix(mat)
    n_rows, n_cols = M.shape
    if n_rows != n_cols:
        raise ValueError(f"determinant needs a square matrix, got {n_rows}x{n_cols}")
    n = n_rows
    if n == 0:
        return 1
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
    return sign * a[n - 1][n - 1]
