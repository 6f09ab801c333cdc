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
into the grid. The codec's batched peel is checked against the per-receiver
peel (``reference_peel``) that it replaced: one receiver at a time, over
Python lists of the dense encoder's nonzeros.
"""

from __future__ import annotations

from bisect import bisect_left
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


def _cyclic_cut(col: list[int], lo: int, hi: int, m: int) -> list[int]:
    """The rows of ``col`` in the cyclic run lo .. hi-1 mod m, ascending.

    ``col`` is one encoder column's rows, ascending, and 0 <= lo < m,
    hi - lo <= m.
    """
    if hi > m:  # the run wraps past m to the front
        return col[: bisect_left(col, hi - m)] + col[bisect_left(col, lo) :]
    return col[bisect_left(col, lo) : bisect_left(col, hi)]


def _minus_found(c: int, rows: list[int], exprs: dict) -> dict[int, int]:
    """Column c minus the expressions found so far for its ``rows``."""
    e = {c: 1}
    for i in rows:
        found = exprs.get(i)
        if found:
            for j, v in found.items():
                e[j] = e.get(j, 0) - v
    return e


def reference_peel(encoder, k: int) -> tuple[int, list[dict], dict] | None:
    """Receiver k's decoder over Z and the rank of its unknown rows, or None on a stall.

    The unknown rows are the cyclic run of encoder rows of the messages
    k-U .. k+D. Once the side information's share is subtracted, codeword
    column j is the plain sum of its unknown rows, as the encoder is 0/1.
    So a column with one unsolved unknown row r solves it: x_r = c'_j
    minus the other rows of j, all solved before. The columns are taken
    from a queue: first every column with one unknown row, ascending, then
    each column as it is left with one. The peel stalls unless it solves
    all b wanted rows.

    A second peel clears the columns left with two or more unsolved rows,
    each by an unsolved row that meets no other column still left; it
    stalls unless it clears them all. The unknown rows then have rank
    n - len(parity) in every field, where ``parity`` holds the columns
    that no step used and no unsolved row meets.

    Returns that rank, the outputs as {column: integer coefficient} maps
    (the b wanted rows' expressions, then, per parity column f ascending,
    f minus the expressions of its rows), and {column: its unknown rows,
    ascending} for every column the outputs hold.
    """
    problem, b, m, n = encoder.problem, encoder.b, encoder.rows, encoder.cols
    row_cols: list[list[int]] = [[] for _ in range(m)]
    col_rows: list[list[int]] = [[] for _ in range(n)]
    for r, c in zip(*(i.tolist() for i in np.nonzero(encoder.matrix.entries))):
        row_cols[r].append(c)
        col_rows[c].append(r)
    window = [(k + i) % problem.K for i in range(-problem.U, problem.D + 1)]
    unknown = [r for j in window for r in range(j * b, (j + 1) * b)]
    count = [0] * n  # each column's unsolved unknown rows; -1 once a step used it
    total = [0] * n  # the sum of their indices, which is the row once count is 1
    for r in unknown:
        for c in row_cols[r]:
            count[c] += 1
            total[c] += r
    lo, hi = unknown[0], unknown[0] + len(unknown)

    def mine(c: int) -> list[int]:
        """Column c's unknown rows, ascending."""
        return _cyclic_cut(col_rows[c], lo, hi, m)

    solved = {}  # row -> the column that solved it, in solving order
    queue = [c for c in range(n) if count[c] == 1]
    for c in queue:
        if count[c] != 1:
            continue
        r = total[c]
        solved[r] = c
        for j in row_cols[r]:
            count[j] -= 1
            total[j] -= r
            if count[j] == 1:
                queue.append(j)
        count[c] = -1
    wanted = range(k * b, (k + 1) * b)
    if not all(r in solved for r in wanted):
        return None
    parity = [c for c in range(n) if not count[c]]
    left = n - len(solved) - len(parity)
    # each unsolved row with the number and the sum of its columns still left
    rest = {r: [len(row_cols[r]), sum(row_cols[r])] for r in unknown if r not in solved}
    queue = [r for r, (d, _) in rest.items() if d == 1]
    for r in queue:
        d, c = rest[r]
        if d != 1:
            continue
        left -= 1
        for i in mine(c):
            if i in rest:
                live = rest[i]
                live[0] -= 1
                live[1] -= c
                if live[0] == 1:
                    queue.append(i)
    if left:
        return None
    cut = {f: mine(f) for f in parity}
    need = set(wanted).union(*cut.values())
    for r, c in reversed(solved.items()):
        if r in need:
            cut[c] = mine(c)
            need.update(cut[c])
    exprs: dict[int, dict[int, int]] = {}
    for r, c in solved.items():
        if r in need:
            exprs[r] = _minus_found(c, cut[c], exprs)
    outputs = [exprs[r] for r in wanted]
    outputs += (_minus_found(f, cut[f], exprs) for f in parity)
    return n - len(parity), outputs, cut
