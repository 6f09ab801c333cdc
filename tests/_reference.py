"""Dense elimination kept as an independent reference for the tests.

``airindex`` ranks matrices with its streaming echelon; the tests compare
that engine against this plain whole-matrix reduced row echelon form,
which shares none of its code. Exact while ``(p-1)**2 < 2**63``.
Determinants are checked against Gaussian elimination over the rationals
(``det_fraction``), which shares no code with ``airindex`` either. The
minimal-rate pair is checked against the extended Euclidean walk
(``bezout_min_pair``) that ``find_min_rate`` replaced with a modular
inverse. AIR matrices are checked against the block construction
(``reference_air``) that ``build_air`` replaced with one index formula:
each rectangle built as a dense block of stacked identities and copied
into the grid.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np

from airindex.linalg import as_int_matrix, require_prime


def rref_mod_p(mat, p) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p).

    Returns ``(R, pivot_cols)``. The pivot for each column is the first
    row with a nonzero entry at or below the current row, scanning
    columns left to right; this fixes the output uniquely.
    """
    p = require_prime(p)
    R = as_int_matrix(mat) % p
    n_rows, n_cols = R.shape
    pivot_cols: list[int] = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        hits = np.nonzero(R[r:, c])[0]
        if hits.size == 0:
            continue
        i = r + int(hits[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        R[r] = R[r] * pow(int(R[r, c]), -1, p) % p
        col = R[:, c].copy()
        col[r] = 0
        R = (R - np.outer(col, R[r])) % p
        pivot_cols.append(c)
        r += 1
    return R, pivot_cols


def rank_mod_p(mat, p) -> int:
    """Rank of ``mat`` over GF(p)."""
    _, pivot_cols = rref_mod_p(mat, p)
    return len(pivot_cols)


def solve_left(mat, y, p) -> np.ndarray | None:
    """Solve ``u @ mat == y (mod p)``; ``None`` when inconsistent.

    Free coordinates are fixed to 0, so the returned solution is unique
    for a given pivot order even when the system is underdetermined.
    """
    p = require_prime(p)
    M = as_int_matrix(mat)
    yv = np.asarray(y, dtype=np.int64)
    if yv.ndim != 1 or yv.shape[0] != M.shape[1]:
        raise ValueError(
            f"right-hand side must have length {M.shape[1]}, got shape {yv.shape}"
        )
    aug = np.concatenate([M.T, yv.reshape(-1, 1) % p], axis=1)
    R, piv = rref_mod_p(aug, p)
    n_unknowns = M.shape[0]
    if piv and piv[-1] == n_unknowns:
        return None
    u = np.zeros(n_unknowns, dtype=np.int64)
    for row, c in enumerate(piv):
        u[c] = R[row, -1]
    return u


def det_fraction(rows) -> int:
    """Integer determinant of a square list of integer rows, over Q."""
    a = [[Fraction(int(v)) for v in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    assert det.denominator == 1
    return int(det)


def extended_bezout(K: int, d_plus_1: int) -> tuple[int, int, int]:
    """Extended Euclidean coefficients ``(g, m, n)`` with g = m*K - n*(d_plus_1)."""
    old_r, r = K, d_plus_1
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, -old_t


def bezout_min_pair(K: int, D: int, U: int) -> tuple[int, int]:
    """The minimal-rate (a, b) by the Bezout walk over a = l*g, l = 1, 2, ..."""
    g = gcd(K, D + 1)
    if U + 1 <= g:
        return 0, 1
    _, _, n = extended_bezout(K, D + 1)
    step = K // g
    b_cap = K // (U + 1)
    l_cap = (K % (D + 1)) // g
    for l in range(1, l_cap + 1):
        cand = (l * n - 1) % step + 1
        if cand <= b_cap:
            return l * g, cand
    raise AssertionError("candidate walk exhausted its bound")


def stacked_identity(c: int, d: int) -> np.ndarray:
    """c x d binary matrix of c // d identity blocks stacked vertically.

    Requires d | c; the transpose gives the side-by-side variant.
    """
    if c < 1 or d < 1 or c % d:
        raise ValueError(f"need positive c, d with d | c, got c={c}, d={d}")
    out = np.zeros((c, d), dtype=np.int64)
    idx = np.arange(c)
    out[idx, idx % d] = 1
    return out


def reference_air(m: int, n: int) -> np.ndarray:
    """The m x n AIR matrix, one dense identity block per Euclidean step."""
    grid = np.zeros((m, n), dtype=np.int64)
    top = left = 0
    rows_left, cols_left = m, n
    while True:
        q, r = divmod(rows_left, cols_left)
        grid[top : top + q * cols_left, left:] = stacked_identity(q * cols_left, cols_left)
        top += q * cols_left
        if r == 0:
            return grid
        q2, r2 = divmod(cols_left, r)
        grid[top:, left : left + q2 * r] = stacked_identity(q2 * r, r).T
        left += q2 * r
        if r2 == 0:
            return grid
        rows_left, cols_left = r, r2
