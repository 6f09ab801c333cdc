"""Cross-checks for the streaming echelon.

Ranks are compared with the dense whole-matrix elimination in
``_reference``; insert, reduce, solved-form and pivot-entry results
with ``_AllPivotsReference`` below, a plain echelon that walks every
pivot.
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

    Each insert or reduce visits all pivots found so far, whether or not
    the row has an entry at their column. The engines must produce the
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

    def reduce(self, main, aux=None) -> tuple[bool, np.ndarray]:
        v = self._reduce(main, aux)
        return not np.any(v[: self.main_cols]), v[self.main_cols :]

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
    member = coeffs @ a % p
    ok, _ = ech.reduce(member)
    assert ok
    if ech.rank < a.shape[1]:
        # any unit vector on a non-pivot coordinate lies outside the row
        # space of the pivots and must be flagged
        non_pivot = next(c for c in range(a.shape[1]) if c not in set(ech.pivot_cols))
        probe = np.zeros(a.shape[1], dtype=np.int64)
        probe[non_pivot] = 1
        ok_probe, _ = ech.reduce(probe)
        assert not ok_probe


@settings(max_examples=150, deadline=None)
@given(mat=_matrices(max_rows=6, max_cols=6), p=st.sampled_from([2, 3, 5]))
def test_aux_columns_track_row_combinations(mat, p):
    a = np.array(mat, dtype=np.int64) % p
    rows, cols = a.shape
    ech = stream_echelon(cols, rows, p)
    eye = np.eye(rows, dtype=np.int64)
    for i, row in enumerate(a):
        ech.insert(row, eye[i])
    pivots, aux = ech.solved_form()
    assert aux.shape == (ech.rank, rows)
    # every solved row is the combination of inputs its aux part claims:
    # the identity at the pivot columns, nothing before its own column
    solved = aux @ a % p
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
    for i, row in enumerate(a):
        ech.insert(row, np.eye(7, dtype=np.int64)[i])
    pivots, aux = ech.solved_form()
    # ascending pivot columns, the same set the inserts found
    assert pivots.tolist() == sorted(ech.pivot_cols)
    assert len(set(ech.pivot_cols)) == ech.rank == reference_rank(a, p)
    solved = aux @ a % p
    for j, c in enumerate(pivots):
        assert solved[j, c] == 1
        others = np.delete(pivots, j)
        assert not solved[j, others].any()
        assert not solved[j, :c].any()


def _same_reduce(x, y, main, aux) -> bool:
    x_ok, x_aux = x.reduce(main, aux)
    y_ok, y_aux = y.reduce(main, aux)
    return x_ok == y_ok and np.array_equal(x_aux, y_aux)


def _assert_matches_reference(mat, aux_cols, p, probes):
    a = np.array(mat, dtype=np.int64)
    ech = stream_echelon(a.shape[1], aux_cols, p)
    ref = _AllPivotsReference(a.shape[1], aux_cols, p)
    aux_in = np.arange(a.shape[0] * aux_cols).reshape(a.shape[0], aux_cols) % 7
    for row, aux in zip(a, aux_in):
        assert ech.insert(row, aux) == ref.insert(row, aux)
        assert ech.rank == len(ref.rows)
    assert ech.pivot_cols == ref.pivot_cols
    # one block insert packs every row at once and must end in the same state,
    # as must inserting rows packed beforehand, with or without their aux part
    block = stream_echelon(a.shape[1], aux_cols, p)
    assert block.insert(a, aux_in) == ech.rank
    prepacked = stream_echelon(a.shape[1], aux_cols, p)
    assert prepacked.insert_packed(prepacked.pack(a, aux_in)) == ech.rank
    main_only = stream_echelon(a.shape[1], aux_cols, p)
    main_ref = _AllPivotsReference(a.shape[1], aux_cols, p)
    assert main_only.insert_packed(main_only.pack(a)) == sum(map(main_ref.insert, a))
    assert main_only.pivot_cols == main_ref.pivot_cols
    pivots, aux = main_only.solved_form()
    want_cols, want_rows = main_ref.solved_rows()
    assert pivots.tolist() == want_cols
    assert np.array_equal(aux, want_rows[:, a.shape[1] :])
    for other in (block, prepacked):
        assert other.rank == ech.rank
        assert other.pivot_cols == ech.pivot_cols
        assert all(np.array_equal(x, y) for x, y in zip(other.solved_form(), ech.solved_form()))
    for probe in probes:
        probe = np.asarray(probe, dtype=np.int64)
        probe_aux = np.resize(probe, aux_cols)
        got_ok, got_aux = ech.reduce(probe, probe_aux)
        want_ok, want_aux = ref.reduce(probe, probe_aux)
        assert got_ok == want_ok
        assert np.array_equal(got_aux, want_aux)
        assert all(_same_reduce(ech, other, probe, probe_aux) for other in (block, prepacked))
        assert _same_reduce(main_only, main_ref, probe, probe_aux)
    pivots, aux = ech.solved_form()
    want_cols, want_rows = ref.solved_rows()
    assert pivots.tolist() == want_cols
    assert np.array_equal(aux, want_rows[:, a.shape[1] :])


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


def _assert_same_solved_form(ech, ref, width):
    pivots, aux = ech.solved_form()
    want_cols, want_rows = ref.solved_rows()
    assert pivots.tolist() == want_cols
    assert np.array_equal(aux, want_rows[:, width:])


@settings(max_examples=150, deadline=None)
@given(
    mat=_matrices(max_rows=12, max_cols=10),
    aux_cols=st.integers(0, 4),
    p=st.sampled_from([2, 3, 5, 65521]),
    data=st.data(),
)
def test_solved_form_keeps_later_results(mat, aux_cols, p, data):
    # solved_form() back-reduces the pivot rows in place; inserts, reduces
    # and solved forms after it must match a reference that never solved
    a = np.array(mat, dtype=np.int64)
    width = a.shape[1]
    split = data.draw(st.integers(0, a.shape[0]))
    probes = data.draw(
        st.lists(st.lists(st.integers(0, 6), min_size=width, max_size=width), max_size=4)
    )
    aux_in = np.arange(a.shape[0] * aux_cols).reshape(a.shape[0], aux_cols) % 5
    ech = stream_echelon(width, aux_cols, p)
    ref = _AllPivotsReference(width, aux_cols, p)
    assert ech.insert(a[:split], aux_in[:split]) == sum(map(ref.insert, a[:split], aux_in[:split]))
    _assert_same_solved_form(ech, ref, width)
    for row, aux in zip(a[split:], aux_in[split:]):
        assert ech.insert(row, aux) == ref.insert(row, aux)
        assert ech.rank == len(ref.rows)
    assert ech.pivot_cols == ref.pivot_cols
    for probe in probes + mat[:2]:
        probe_aux = np.resize(np.asarray(probe, dtype=np.int64), aux_cols)
        assert _same_reduce(ech, ref, probe, probe_aux)
    _assert_same_solved_form(ech, ref, width)
    # a second call on solved rows changes nothing
    _assert_same_solved_form(ech, ref, width)
    assert ech.pivot_cols == ref.pivot_cols


@settings(max_examples=100, deadline=None)
@given(
    mat=_matrices(max_rows=12, max_cols=10),
    aux_cols=st.integers(1, 4),
    p=st.sampled_from([2, 3, 5, 65521]),
    data=st.data(),
)
def test_unit_aux_and_pivot_entries(mat, aux_cols, p, data):
    # with_unit_aux on main-only rows equals packing them with stacked
    # identity blocks as aux, and leaves its input as it was; pivot_entries
    # reads the pivot rows' columns, before and after solved_form()
    a = np.array(mat, dtype=np.int64)
    rows, width = a.shape
    identities = np.tile(np.eye(aux_cols, dtype=np.int64), (rows // aux_cols + 1, 1))[:rows]
    ech = stream_echelon(width, aux_cols, p)
    packed = ech.pack(a)
    tagged = ech.with_unit_aux(packed)
    assert tagged == ech.pack(a, identities)
    assert packed == ech.pack(a)
    ref = _AllPivotsReference(width, aux_cols, p)
    assert ech.insert_packed(tagged) == sum(map(ref.insert, a, identities))
    cols = data.draw(st.lists(st.integers(0, width - 1), unique=True))
    order = np.argsort(ref.pivot_cols)
    raw = np.array([ref.rows[i] for i in order], dtype=np.int64).reshape(
        len(order), width + aux_cols
    )
    assert np.array_equal(ech.pivot_entries(cols), raw[:, cols])
    ech.solved_form()
    assert np.array_equal(ech.pivot_entries(cols), ref.solved_rows()[1][:, cols])
