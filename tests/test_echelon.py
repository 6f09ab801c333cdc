"""Cross-checks for the streaming echelon.

Ranks are compared with the dense whole-matrix elimination in
``_reference``; insert, solved-form and pivot-entry results with
``_AllPivotsReference`` below, a plain echelon that walks every pivot.
Rows carry aux parts only as ``with_unit_aux`` tags them; the reference
is fed the same stacked identity blocks. Reduction turns those unit
tags into arbitrary residues, so every aux value is still compared.
``airindex.linalg.rank_mod_p`` is this engine, so it is no reference.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import rank_mod_p as reference_rank
from airindex._echelon import stream_echelon
from airindex.air import build_air


class _AllPivotsReference:
    """Plain echelon that walks every pivot in insertion order.

    Each insert visits all pivots found so far, whether or not the row
    has an entry at their column. The engines must produce the
    same reduced rows while visiting only the pivot columns present.
    """

    def __init__(self, main_cols: int, aux_cols: int, p: int):
        self.p = p
        self.main_cols = main_cols
        self.aux_cols = aux_cols
        self.rows: list[np.ndarray] = []
        self.pivot_cols: list[int] = []

    def _reduce(self, main, aux) -> np.ndarray:
        v = np.zeros(self.main_cols + self.aux_cols, dtype=np.int64)
        v[: self.main_cols] = main
        if aux is not None:
            v[self.main_cols :] = aux
        v %= self.p
        for c, prow in zip(self.pivot_cols, self.rows):
            f = int(v[c])
            if f:
                v = (v - f * prow) % self.p
        return v

    def insert(self, main, aux=None) -> bool:
        v = self._reduce(main, aux)
        lead = np.nonzero(v[: self.main_cols])[0]
        if lead.size == 0:
            return False
        c = int(lead[0])
        self.pivot_cols.append(c)
        self.rows.append(v * pow(int(v[c]), -1, self.p) % self.p)
        return True

    def solved_rows(self) -> tuple[list[int], np.ndarray]:
        """Pivot rows, by ascending column, cleared at every other pivot column."""
        order = np.argsort(self.pivot_cols)
        cols = [self.pivot_cols[i] for i in order]
        rows = np.array(
            [self.rows[i] for i in order], dtype=np.int64
        ).reshape(len(cols), self.main_cols + self.aux_cols)
        for j in range(len(cols) - 1, -1, -1):
            for i in range(j + 1, len(cols)):
                f = int(rows[j, cols[i]])
                if f:
                    rows[j] = (rows[j] - f * rows[i]) % self.p
        return cols, rows


def _tags(n: int, aux_cols: int) -> np.ndarray:
    """The aux parts ``_tagged`` gives n rows: stacked identity blocks."""
    if not aux_cols:
        return np.zeros((n, 0), dtype=np.int64)
    return np.eye(aux_cols, dtype=np.int64)[np.arange(n) % aux_cols]


def _tagged(ech, rows) -> list:
    """``rows`` packed for ``ech``, tagged by ``with_unit_aux`` if it has aux columns."""
    packed = ech.pack(rows)
    return ech.with_unit_aux(packed) if ech.aux_cols else packed


def _dense_cells(ech, rows) -> np.ndarray:
    """Every cell of packed ``rows``, main then aux, read through ``_sparse_cells``."""
    width = ech.main_cols + ech.aux_cols
    out = np.zeros((len(rows), width), dtype=np.int64)
    for i, j, x in ech._sparse_cells(rows, (1 << width) - 1):
        out[i, j] = x
    return out


def _densify(ech, free, cells) -> tuple[list[int], np.ndarray]:
    """``solved_cells()`` output as pivot columns, ascending, and their full solved rows.

    The pivot columns are the main columns ``free`` leaves out; each row
    holds a 1 at its own pivot column and the listed cells.
    """
    pivots = sorted(set(range(ech.main_cols)) - set(free))
    rows = np.zeros((len(pivots), ech.main_cols + ech.aux_cols), dtype=np.int64)
    rows[range(len(pivots)), pivots] = 1
    for c, j, x in cells:
        rows[pivots.index(c), j] = x
    return pivots, rows


def _solved_form(ech) -> tuple[list[int], np.ndarray]:
    """Back-reduce ``ech`` and return its pivot columns and full solved rows."""
    return _densify(ech, *ech.solved_cells())


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
    ech = stream_echelon(a.shape[1], 0, p)
    for i, row in enumerate(a):
        ech.insert(row)
        assert ech.rank == reference_rank(a[: i + 1], p)


@settings(max_examples=200, deadline=None)
@given(mat=_matrices(), p=st.sampled_from([2, 3, 5]), data=st.data())
def test_reduce_detects_row_space_membership(mat, p, data):
    a = np.array(mat, dtype=np.int64) % p
    ech = stream_echelon(a.shape[1], 0, p)
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


@settings(max_examples=150, deadline=None)
@given(mat=_matrices(max_rows=6, max_cols=6), p=st.sampled_from([2, 3, 5]))
def test_aux_columns_track_row_combinations(mat, p):
    a = np.array(mat, dtype=np.int64) % p
    rows, cols = a.shape
    ech = stream_echelon(cols, rows, p)
    ech.insert_packed(_tagged(ech, a))  # input row i carries aux column i
    pivots, form = _solved_form(ech)
    aux = form[:, cols:]
    assert aux.shape == (ech.rank, rows)
    # every solved row is the combination of inputs its aux part claims:
    # the identity at the pivot columns, nothing before its own column
    solved = aux @ a % p
    assert np.array_equal(solved, form[:, :cols])
    assert np.array_equal(solved[:, pivots], np.eye(ech.rank, dtype=np.int64))
    for j, c in enumerate(pivots):
        assert not solved[j, :c].any()
    # so T = aux on the pivot columns, 0 elsewhere, maps each solved row
    # to its aux part with no further solve
    T = np.zeros((cols, rows), dtype=np.int64)
    T[pivots] = aux
    assert np.array_equal(solved @ T % p, aux)


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), seed=st.integers(0, 10_000))
def test_pivot_structure(p, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, size=(7, 5))
    ech = stream_echelon(5, 7, p)
    ech.insert_packed(_tagged(ech, a))
    pivots, form = _solved_form(ech)
    # ascending pivot columns, the same set the inserts found
    assert pivots == sorted(ech._pivots)
    assert len(set(ech._pivots)) == ech.rank == reference_rank(a, p)
    solved = form[:, 5:] @ a % p
    assert np.array_equal(solved, form[:, :5])
    for j, c in enumerate(pivots):
        assert solved[j, c] == 1
        others = np.delete(pivots, j)
        assert not solved[j, others].any()
        assert not solved[j, :c].any()


def _insert_each(ech, ref, rows, main_only=False) -> None:
    """Insert tagged ``rows`` one at a time into both; ranks must agree at every step.

    With ``main_only`` the rows carry no tags and the reference zero aux.
    """
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, ech.main_cols)
    packed, tags = _tagged(ech, rows), _tags(len(rows), ech.aux_cols)
    if main_only:
        packed, tags = ech.pack(rows), 0 * tags
    for row, tag, one in zip(rows, tags, packed):
        assert ech.insert_packed([one]) == ref.insert(row, tag)
        assert ech.rank == len(ref.rows)
    assert list(ech._pivots) == ref.pivot_cols


def _assert_same_solved_form(ech, ref):
    # solved_cells() is the solved form, sparse: the free main columns and
    # one triple per nonzero cell off the pivot columns, by pivot column;
    # with a 1 at each pivot column they are the reference's solved rows
    free, cells = ech.solved_cells()
    want_cols, want_rows = ref.solved_rows()
    assert free == sorted(set(range(ech.main_cols)) - set(want_cols))
    assert [c for c, _, _ in cells] == sorted(c for c, _, _ in cells)
    assert len({(c, j) for c, j, _ in cells}) == len(cells)
    assert all(0 < x < ech.p for _, _, x in cells)
    assert not {j for _, j, _ in cells} & set(want_cols)
    pivots, rows = _densify(ech, free, cells)
    assert pivots == want_cols
    assert np.array_equal(rows, want_rows)


def _assert_matches_reference(mat, aux_cols, p, probes):
    a = np.array(mat, dtype=np.int64)
    width = a.shape[1]
    ech = stream_echelon(width, aux_cols, p)
    ref = _AllPivotsReference(width, aux_cols, p)
    _insert_each(ech, ref, a)
    # inserting all the tagged rows in one call must end in the same state,
    # and so must rows packed in one block insert without tags, against a
    # reference fed zero aux
    prepacked = stream_echelon(width, aux_cols, p)
    assert prepacked.insert_packed(_tagged(prepacked, a)) == ech.rank
    block = stream_echelon(width, aux_cols, p)
    main_ref = _AllPivotsReference(width, aux_cols, p)
    assert block.insert(a) == sum(map(main_ref.insert, a))
    assert list(block._pivots) == main_ref.pivot_cols
    _assert_same_solved_form(block, main_ref)
    assert list(prepacked._pivots) == list(ech._pivots)
    want_cols, want_rows = _solved_form(ech)
    got_cols, got_rows = _solved_form(prepacked)
    assert got_cols == want_cols
    assert np.array_equal(got_rows, want_rows)
    # probes raise the rank exactly when they leave the row space, and the
    # solved forms stay equal after them
    _insert_each(ech, ref, probes)
    _assert_same_solved_form(ech, ref)
    _insert_each(block, main_ref, probes, main_only=True)
    _assert_same_solved_form(block, main_ref)


@settings(max_examples=150, deadline=None)
@given(
    mat=_matrices(max_rows=12, max_cols=12),
    aux_cols=st.integers(0, 4),
    p=st.sampled_from([2, 3, 5, 65521]),
    data=st.data(),
)
def test_matches_all_pivots_reference_dense(mat, aux_cols, p, data):
    width = len(mat[0])
    probes = data.draw(
        st.lists(st.lists(st.integers(0, 6), min_size=width, max_size=width), max_size=4)
    )
    _assert_matches_reference(mat, aux_cols, p, probes + mat[:2])


@settings(max_examples=150, deadline=None)
@given(rows=_air_rows(), aux_cols=st.integers(0, 4), p=st.sampled_from([2, 3, 5, 65521]))
def test_matches_all_pivots_reference_air_rows(rows, aux_cols, p):
    # sums of two inputs stay in the row space, a shifted input may not
    probes = [np.add(rows[0], rows[-1]), np.roll(rows[0], 1)]
    _assert_matches_reference(rows, aux_cols, p, probes)


@settings(max_examples=150, deadline=None)
@given(
    mat=_matrices(max_rows=12, max_cols=10),
    aux_cols=st.integers(0, 4),
    p=st.sampled_from([2, 3, 5, 65521]),
    data=st.data(),
)
def test_solved_form_keeps_later_results(mat, aux_cols, p, data):
    # solved_cells() back-reduces the pivot rows in place; inserts and
    # solved forms after it must match a reference that never solved
    a = np.array(mat, dtype=np.int64)
    width = a.shape[1]
    split = data.draw(st.integers(0, a.shape[0]))
    probes = data.draw(
        st.lists(st.lists(st.integers(0, 6), min_size=width, max_size=width), max_size=4)
    )
    ech = stream_echelon(width, aux_cols, p)
    ref = _AllPivotsReference(width, aux_cols, p)
    tags = _tags(split, aux_cols)
    assert ech.insert_packed(_tagged(ech, a[:split])) == sum(map(ref.insert, a[:split], tags))
    _assert_same_solved_form(ech, ref)
    _insert_each(ech, ref, a[split:])
    _assert_same_solved_form(ech, ref)
    _insert_each(ech, ref, probes + mat[:2])
    _assert_same_solved_form(ech, ref)
    # a second call on solved rows changes nothing
    _assert_same_solved_form(ech, ref)
    assert list(ech._pivots) == ref.pivot_cols


@settings(max_examples=100, deadline=None)
@given(
    mat=_matrices(max_rows=12, max_cols=10),
    aux_cols=st.integers(1, 4),
    p=st.sampled_from([2, 3, 5, 65521]),
)
def test_unit_aux_and_pivot_entries(mat, aux_cols, p):
    # with_unit_aux gives the packed rows stacked identity blocks as aux
    # and leaves its input as it was; _sparse_cells reads both parts back,
    # and every entry of the pivot rows, before and after solved_cells()
    a = np.array(mat, dtype=np.int64)
    rows, width = a.shape
    identities = _tags(rows, aux_cols)
    ech = stream_echelon(width, aux_cols, p)
    packed = ech.pack(a)
    tagged = ech.with_unit_aux(packed)
    assert np.array_equal(_dense_cells(ech, tagged), np.hstack([a % p, identities]))
    assert np.array_equal(_dense_cells(ech, packed), np.hstack([a % p, 0 * identities]))
    assert packed == ech.pack(a)
    ref = _AllPivotsReference(width, aux_cols, p)
    assert ech.insert_packed(tagged) == sum(map(ref.insert, a, identities))
    order = np.argsort(ref.pivot_cols)
    raw = np.array([ref.rows[i] for i in order], dtype=np.int64).reshape(
        len(order), width + aux_cols
    )
    assert np.array_equal(_dense_cells(ech, [ech._pivots[c] for c in sorted(ech._pivots)]), raw)
    assert np.array_equal(_solved_form(ech)[1], ref.solved_rows()[1])
