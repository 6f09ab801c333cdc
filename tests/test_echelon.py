"""Cross-checks for the streaming echelon, ``airindex.linalg.Echelon``.

Ranks are compared with the dense whole-matrix elimination in
``_reference``; insert results, pivot columns and pivot rows with
``_AllPivotsReference`` below, a plain echelon that walks every pivot.
``airindex.linalg.rank_mod_p`` is this engine, so it is no reference.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import rank_mod_p as reference_rank
from airindex.linalg import Echelon
from airindex.air import build_air


class _AllPivotsReference:
    """Plain echelon that walks every pivot in insertion order.

    Each insert visits all pivots found so far, whether or not the row
    has an entry at their column. The engine must produce the same
    reduced rows while visiting only the pivot columns present.
    """

    def __init__(self, cols: int, p: int):
        self.p = p
        self.cols = cols
        self.rows: list[np.ndarray] = []
        self.pivot_cols: list[int] = []

    def insert(self, row) -> bool:
        v = np.asarray(row, dtype=np.int64) % self.p
        for c, prow in zip(self.pivot_cols, self.rows):
            f = int(v[c])
            if f:
                v = (v - f * prow) % self.p
        lead = np.nonzero(v)[0]
        if lead.size == 0:
            return False
        c = int(lead[0])
        self.pivot_cols.append(c)
        self.rows.append(v * pow(int(v[c]), -1, self.p) % self.p)
        return True


def _dense(ech, pivot) -> np.ndarray:
    """One pivot row of the engine as a dense array of residues."""
    row, _ = pivot
    out = np.zeros(ech.cols, dtype=np.int64)
    out[list(row)] = list(row.values())
    return out


def _matrices(max_rows=8, max_cols=8):
    return st.tuples(st.integers(1, max_rows), st.integers(1, max_cols)).flatmap(
        lambda shape: st.lists(
            st.lists(st.integers(0, 6), min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        )
    )


@st.composite
def _air_rows(draw):
    """Rows of an AIR matrix in a drawn order: at most 3 ones each."""
    n = draw(st.integers(2, 70))
    m = draw(st.integers(n, n + 40))
    entries = build_air(m, n).entries
    picked = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=min(m, 50)))
    return entries[picked].tolist()


@settings(max_examples=200, deadline=None)
@given(mat=_matrices(), p=st.sampled_from([2, 3, 5, 7, 65521]))
def test_streaming_rank_matches_reference(mat, p):
    a = np.array(mat, dtype=np.int64)
    ech = Echelon(a.shape[1], p)
    for i, row in enumerate(a):
        ech.insert(row)
        assert ech.rank == reference_rank(a[: i + 1], p)


@settings(max_examples=200, deadline=None)
@given(mat=_matrices(), p=st.sampled_from([2, 3, 5]), data=st.data())
def test_reduce_detects_row_space_membership(mat, p, data):
    a = np.array(mat, dtype=np.int64) % p
    ech = Echelon(a.shape[1], p)
    for row in a:
        ech.insert(row)
    coeffs = np.array(
        data.draw(
            st.lists(st.integers(0, p - 1), min_size=a.shape[0], max_size=a.shape[0])
        ),
        dtype=np.int64,
    )
    # a member of the row space reduces to zero and leaves the rank as it was
    rank = ech.rank
    assert ech.insert(coeffs @ a % p) == 0
    assert ech.rank == rank
    if rank < a.shape[1]:
        # any unit vector on a non-pivot coordinate lies outside the row
        # space of the pivots and must raise the rank
        non_pivot = next(c for c in range(a.shape[1]) if c not in ech._pivots)
        probe = np.zeros(a.shape[1], dtype=np.int64)
        probe[non_pivot] = 1
        assert ech.insert(probe) == 1
        assert list(ech._pivots)[-1] == non_pivot


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), seed=st.integers(0, 10_000))
def test_pivot_structure(p, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, size=(7, 5))
    ech = Echelon(5, p)
    ech.insert(a)
    assert len(set(ech._pivots)) == ech.rank == reference_rank(a, p)
    # each pivot row holds a 1 at its column, is zero below it and at
    # every pivot column found before it
    found = []
    for c, row in ech._pivots.items():
        v = _dense(ech, row)
        assert v[c] == 1 and not v[:c].any()
        assert not v[found].any()
        found.append(c)


def _insert_each(ech, ref, rows) -> None:
    """Insert ``rows`` one at a time into both; ranks must agree at every step."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, ech.cols)
    for row, one in zip(rows, ech.pack(rows)):
        assert ech.insert_packed([one]) == ref.insert(row)
        assert ech.rank == len(ref.rows)
    _assert_same_pivots(ech, ref)


def _assert_same_pivots(ech, ref) -> None:
    """The same pivot columns, in insertion order, with the same pivot rows."""
    assert list(ech._pivots) == ref.pivot_cols
    for row, want in zip(ech._pivots.values(), ref.rows):
        assert np.array_equal(_dense(ech, row), want)


def _assert_matches_reference(mat, p, probes):
    a = np.array(mat, dtype=np.int64)
    width = a.shape[1]
    ech = Echelon(width, p)
    ref = _AllPivotsReference(width, p)
    _insert_each(ech, ref, a)
    # inserting all the rows in one call, packed or not, must end in the
    # same state
    prepacked = Echelon(width, p)
    assert prepacked.insert_packed(prepacked.pack(a)) == ech.rank
    _assert_same_pivots(prepacked, ref)
    block = Echelon(width, p)
    assert block.insert(a) == ech.rank
    _assert_same_pivots(block, ref)
    # probes raise the rank exactly when they leave the row space
    _insert_each(ech, ref, probes)


@settings(max_examples=150, deadline=None)
@given(
    mat=_matrices(max_rows=12, max_cols=12),
    p=st.sampled_from([2, 3, 5, 65521]),
    data=st.data(),
)
def test_matches_all_pivots_reference_dense(mat, p, data):
    width = len(mat[0])
    probes = data.draw(
        st.lists(st.lists(st.integers(0, 6), min_size=width, max_size=width), max_size=4)
    )
    _assert_matches_reference(mat, p, probes + mat[:2])


@settings(max_examples=150, deadline=None)
@given(rows=_air_rows(), p=st.sampled_from([2, 3, 5, 65521]))
def test_matches_all_pivots_reference_air_rows(rows, p):
    # sums of two inputs stay in the row space, a shifted input may not
    probes = [np.add(rows[0], rows[-1]), np.roll(rows[0], 1)]
    _assert_matches_reference(rows, p, probes)


@pytest.mark.parametrize("p", [2, 3, 5, 65521])
def test_fill_in_at_a_later_pivot_column_is_cleared(p):
    # pivots at columns 0 and 2; each probe holds column 0 but not column 2,
    # and subtracting the column-0 pivot fills in a nonzero at column 2
    pivots = [[1, 0, 1, 0], [0, 0, 1, 1]]
    probes = [
        [1, 0, 0, -1],  # the fill-in clears to zero: the rank stays
        [1, 1, 0, 0],  # the fill-in clears and leaves a pivot at column 1
    ]
    ech = Echelon(4, p)
    ref = _AllPivotsReference(4, p)
    _insert_each(ech, ref, pivots + probes)
    assert list(ech._pivots) == [0, 2, 1]
    # each pivot's mask holds exactly its row's other columns
    for c, (row, others) in ech._pivots.items():
        assert others == sum(1 << j for j in row if j != c)
