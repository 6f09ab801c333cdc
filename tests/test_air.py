"""Unit tests for AIR matrix construction and verification."""

from __future__ import annotations

import json

import numpy as np
import pytest
from _reference import det_fraction
from _reference import rank_mod_p as reference_rank
from _reference import reference_air, stacked_identity
from hypothesis import given, settings
from hypothesis import strategies as st

import airindex.air as air_module
from airindex._peel import _Cells, _window_peels
from airindex.air import (
    AirMatrix,
    _fill_blocks,
    build_air,
    verify_adjacent_independence,
)
from airindex.linalg import det_exact

# Hand-executed construction for (5, 3): q=1, r=2 puts the identity on
# top; 3 = 1*2 + 1 puts a 2x2 identity in the first two columns of the
# bottom; the leftover 2x1 corner is filled with ones.
AIR_5_3_ROWS = [
    [1, 0, 0],
    [0, 1, 0],
    [0, 0, 1],
    [1, 0, 1],
    [0, 1, 1],
]


class TestStackedIdentity:
    """Hand checks of the oracle's identity blocks (``tests/_reference.py``)."""

    def test_4_by_2(self):
        assert stacked_identity(4, 2).tolist() == [[1, 0], [0, 1], [1, 0], [0, 1]]

    def test_square_is_identity(self):
        assert np.array_equal(stacked_identity(3, 3), np.eye(3, dtype=int))

    def test_6_by_2(self):
        expected = np.vstack([np.eye(2, dtype=int)] * 3)
        assert np.array_equal(stacked_identity(6, 2), expected)

    def test_transpose_is_side_by_side(self):
        assert stacked_identity(4, 2).T.tolist() == [[1, 0, 1, 0], [0, 1, 0, 1]]

    @pytest.mark.parametrize("c,d", [(5, 2), (0, 1), (3, 0)])
    def test_rejects_bad_shapes(self, c, d):
        with pytest.raises(ValueError):
            stacked_identity(c, d)


class TestBuildAir:
    def test_5_3_matches_hand_run(self):
        assert build_air(5, 3).entries.tolist() == AIR_5_3_ROWS

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_square_is_identity(self, n):
        assert np.array_equal(build_air(n, n).entries, np.eye(n, dtype=int))

    def test_7_3_matches_hand_run(self):
        # q=2 stacks two identities, then 3 = 3*1 fills the last row with ones
        expected = np.vstack([np.eye(3, dtype=int)] * 2 + [[1, 1, 1]])
        assert np.array_equal(build_air(7, 3).entries, expected)

    def test_single_column_is_all_ones(self):
        assert build_air(6, 1).entries.tolist() == [[1]] * 6

    @pytest.mark.parametrize("m,n", [(6, 3), (12, 4), (10, 5)])
    def test_divisible_case_is_stacked_identities(self, m, n):
        assert np.array_equal(build_air(m, n).entries, stacked_identity(m, n))

    def test_rejects_wide_or_empty(self):
        with pytest.raises(ValueError):
            build_air(3, 5)
        with pytest.raises(ValueError):
            build_air(3, 0)

    def test_refuses_wrapping_shape_without_allocating(self, monkeypatch):
        # 50000*50000 wraps negative in int32; compared as plain ints the
        # shape is over the cap and refused before np.zeros runs
        def no_allocation(*args, **kwargs):
            raise AssertionError("np.zeros was called")

        monkeypatch.setattr(air_module.np, "zeros", no_allocation)
        with np.errstate(over="ignore"):
            assert np.int32(50000) * np.int32(50000) < 0
        with pytest.raises(ValueError, match="over the limit"):
            build_air(np.int32(50000), np.int32(50000))
        with pytest.raises(TypeError):
            build_air(5.0, 3)

    def test_deterministic(self):
        a, b = build_air(23, 9), build_air(23, 9)
        assert np.array_equal(a.entries, b.entries)
        assert a.to_text() == b.to_text()

    def test_entries_write_protected(self):
        air = build_air(5, 3)
        with pytest.raises(ValueError):
            air.entries[0, 0] = 0

    @pytest.mark.parametrize(
        "shapes",
        [
            [(m, n) for m in range(1, 121) for n in range(1, m + 1)],
            [(2130, 781)],
        ],
        ids=["all-m-to-120", "2130x781"],
    )
    def test_matches_block_oracle(self, shapes):
        for m, n in shapes:
            air = build_air(m, n)
            expected = reference_air(m, n)
            assert air.entries.dtype == expected.dtype == np.int64
            assert air.entries.shape == expected.shape
            assert np.array_equal(air.entries, expected), (m, n)
            assert not air.entries.flags.writeable


class TestConstructionTotality:
    def test_blocks_tile_grid_exactly(self):
        # every rectangle must sit on the unfilled corner and shrink it; the
        # corner must be empty when the walk stops. build_air's formula
        # tiles the identity along the long side, so that side must be a
        # multiple of the short one
        for m in range(1, 201):
            for n in range(1, m + 1):
                top = left = 0
                rows_left, cols_left = m, n
                for t, l, h, w in _fill_blocks(m, n):
                    assert (t, l) == (top, left)
                    assert max(h, w) % min(h, w) == 0, (m, n, h, w)
                    if w == cols_left and h <= rows_left:
                        top += h
                        rows_left -= h
                    elif h == rows_left and w <= cols_left:
                        left += w
                        cols_left -= w
                    else:
                        raise AssertionError(
                            f"rectangle {h}x{w} does not fit corner "
                            f"{rows_left}x{cols_left} of ({m},{n})"
                        )
                assert rows_left == 0 or cols_left == 0

    def test_every_cell_written_exactly_once_small(self):
        for m in range(1, 61):
            for n in range(1, m + 1):
                counts = np.zeros((m, n), dtype=np.int64)
                for t, l, h, w in _fill_blocks(m, n):
                    counts[t : t + h, l : l + w] += 1
                assert np.all(counts == 1), (m, n)

    def test_top_block_is_stacked_identities(self):
        for m, n in [(5, 3), (7, 3), (9, 5), (40, 17), (23, 9)]:
            air = build_air(m, n)
            q = m // n
            assert np.array_equal(air.entries[: q * n], stacked_identity(q * n, n))


def _gf2_combinations_independent(window: np.ndarray) -> bool:
    """Brute-force independence over GF(2): no nonzero combination vanishes."""
    n = window.shape[0]
    for mask in range(1, 2**n):
        combo = np.zeros(window.shape[1], dtype=np.int64)
        for i in range(n):
            if (mask >> i) & 1:
                combo = (combo + window[i]) % 2
        if not combo.any():
            return False
    return True


class TestAdjacentIndependence:
    def test_5_3_all_windows_pass(self):
        report = verify_adjacent_independence(build_air(5, 3))
        assert report.passed
        assert report.windows_checked == 3
        for start in range(3):
            assert det_exact(build_air(5, 3).row_window(start)) in (-1, 1)

    def test_square_single_window(self):
        report = verify_adjacent_independence(build_air(4, 4))
        assert report.passed
        assert report.windows_checked == 1
        assert det_exact(build_air(4, 4).row_window(0)) == 1

    def test_7_3_cyclic_windows_gf2(self):
        air = build_air(7, 3)
        report = verify_adjacent_independence(air, primes=(2,), wrap=True)
        assert report.passed
        assert report.windows_checked == 7
        # independent brute-force oracle over GF(2)
        for start in range(7):
            assert _gf2_combinations_independent(air.row_window(start, wrap=True))

    def test_window_sweep_small(self):
        # condensed version of the full acceptance sweep
        for m in range(3, 15):
            for n in range(2, m):
                report = verify_adjacent_independence(build_air(m, n))
                assert report.passed, (m, n, report.failures)

    def test_prime_past_int64_rank_limit_refused_at_entry(self, monkeypatch):
        # 3037000493 is the largest prime with (p-1)**2 < 2**63
        air = build_air(40, 17)
        assert verify_adjacent_independence(air, primes=(3037000493,)).passed

        def no_window(*args):
            raise AssertionError("a window was checked before the primes")

        # reading the rows and building an echelon both come before any window
        monkeypatch.setattr(air_module, "as_int_matrix", no_window)
        monkeypatch.setattr(air_module, "Echelon", no_window)
        for p in (3037000507, 4294967311):
            with pytest.raises(ValueError, match="2\\*\\*63"):
                verify_adjacent_independence(air, primes=(2, p))

    @pytest.mark.parametrize(
        "m,n,entries",
        [(2, 3, np.ones((2, 3))), (2, 2, np.eye(3)), (3, 0, np.zeros((3, 0)))],
        ids=["wide", "entries-mismatch", "no-columns"],
    )
    def test_shape_checked_at_construction(self, m, n, entries):
        # verify_adjacent_independence would otherwise pass these over 0, 1 and 4 windows
        with pytest.raises(ValueError, match="need 1 <= n <= m|entries have shape"):
            AirMatrix(m=m, n=n, entries=entries)

    def test_numpy_integer_shape(self):
        # numpy integers become plain ints, which the packed echelons need
        air = AirMatrix(m=np.int64(5), n=np.int32(3), entries=build_air(5, 3).entries)
        assert type(air.m) is int and type(air.n) is int
        report = verify_adjacent_independence(air)
        assert report.passed and json.loads(json.dumps(report.to_json()))["m"] == 5

    def test_failure_is_reported_not_raised(self):
        air = build_air(5, 3)
        broken = air.entries.copy()
        broken[1] = broken[0]  # duplicate adjacent rows
        fake = type(air)(m=5, n=3, entries=broken)
        report = verify_adjacent_independence(fake, primes=(2,))
        assert not report.passed
        assert 0 in report.failures and 1 in report.failures

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_per_window_reference_on_any_entries(self, data):
        # the peel runs only on 0/1 matrices and cannot solve a window with
        # a zero row or column; every window it does not certify, and every
        # window of a matrix with other entries, must go through the exact
        # determinant
        m = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(1, m))
        lo, hi = data.draw(st.sampled_from([(0, 1), (-1, 1), (-3, 3)]))
        cells = data.draw(st.lists(st.integers(lo, hi), min_size=m * n, max_size=m * n))
        wrap = data.draw(st.booleans())
        primes = tuple(data.draw(st.lists(st.sampled_from([2, 3, 5, 7]), min_size=1, max_size=4)))
        entries = np.array(cells, dtype=np.int64).reshape(m, n)
        fake = AirMatrix(m=m, n=n, entries=entries)
        expected = []
        for s in range(m if wrap else m - n + 1):
            window = entries[(s + np.arange(n)) % m]
            ok = det_fraction(window) in (-1, 1) and all(
                reference_rank(window, q) == n for q in primes
            )
            if not ok:
                expected.append(s)
        report = verify_adjacent_independence(fake, primes=primes, wrap=wrap)
        assert report.failures == tuple(expected)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_per_prime_ranks_never_change_a_report(self, data):
        # a window passes only with determinant +-1, and such a window has
        # full rank at every prime, so the per-prime eliminations add no
        # failure to what the exact determinant finds
        m = data.draw(st.integers(1, 7))
        n = data.draw(st.integers(1, m))
        cells = data.draw(st.lists(st.integers(-2, 2), min_size=m * n, max_size=m * n))
        wrap = data.draw(st.booleans())
        fake = AirMatrix(m=m, n=n, entries=np.array(cells, dtype=np.int64).reshape(m, n))
        ranked = verify_adjacent_independence(fake, primes=(2, 3, 5, 7), wrap=wrap)
        unranked = verify_adjacent_independence(fake, primes=(), wrap=wrap)
        assert ranked.failures == unranked.failures

    def test_entries_past_one_are_never_peel_certified(self):
        # entries outside {0, 1} send every window to the exact determinant;
        # window 1 is [[1, 3], [0, -2]]: full rank mod 3 and mod 5, yet its
        # determinant is -2; window 0 has det -1
        entries = np.array([[0, 1], [1, 3], [0, -2]], dtype=np.int64)
        fake = AirMatrix(m=3, n=2, entries=entries)
        assert det_exact(entries[1:]) == -2
        assert reference_rank(entries[1:], 3) == reference_rank(entries[1:], 5) == 2
        assert verify_adjacent_independence(fake, primes=(3, 5)).failures == (1,)

    def test_report_json_schema(self):
        report = verify_adjacent_independence(build_air(5, 3), wrap=True)
        payload = report.to_json()
        assert sorted(payload) == [
            "failures",
            "m",
            "n",
            "primes",
            "windows_checked",
            "wrap",
        ]
        assert payload["wrap"] is True
        assert payload["windows_checked"] == 5

    def test_wrap_window_indexing(self):
        air = build_air(5, 3)
        window = air.row_window(4, wrap=True)
        expected = np.vstack([air.entries[4], air.entries[0], air.entries[1]])
        assert np.array_equal(window, expected)
        with pytest.raises(ValueError):
            air.row_window(3, wrap=False)


def _peel_verdicts(air, starts):
    rows, cols = air.entries.nonzero()
    return _window_peels(_Cells.from_nonzero(rows, cols, air.m, air.n), starts, air.n)


class TestWindowPeel:
    """The peel certificate of every AIR window, and its fallback."""

    def test_every_air_window_peels(self):
        # starts 0 .. m-1 are the cyclic windows; the first m-n+1 of them are
        # the windows without wrap
        for m in range(3, 41):
            for n in range(1, m + 1):
                assert _peel_verdicts(build_air(m, n), np.arange(m)).all(), (m, n)

    @pytest.mark.parametrize("wrap", [False, True])
    def test_air_windows_never_reach_det_exact(self, monkeypatch, wrap):
        def no_det(mat):
            raise AssertionError(f"det_exact ran on\n{mat}")

        monkeypatch.setattr(air_module, "det_exact", no_det)
        for m in range(1, 21):
            for n in range(1, m + 1):
                assert verify_adjacent_independence(build_air(m, n), wrap=wrap).passed

    @pytest.mark.parametrize(
        "rows, passed",
        [([[1, 1, 0], [0, 1, 1], [1, 1, 1]], True), ([[1, 1, 0], [0, 1, 1], [1, 0, 1]], False)],
        ids=["det-1", "det-2"],
    )
    def test_stalled_window_reaches_det_exact(self, monkeypatch, rows, passed):
        # no column holds exactly one row, so the peel stalls at once
        calls = []

        def spy(mat):
            calls.append(mat)
            return det_exact(mat)

        monkeypatch.setattr(air_module, "det_exact", spy)
        fake = AirMatrix(m=3, n=3, entries=np.array(rows, dtype=np.int64))
        assert not _peel_verdicts(fake, np.arange(1)).any()
        assert verify_adjacent_independence(fake).passed is passed
        assert len(calls) == 1

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_certified_windows_have_unit_determinant(self, data):
        m = data.draw(st.integers(1, 7))
        n = data.draw(st.integers(1, m))
        cells = data.draw(st.lists(st.integers(0, 1), min_size=m * n, max_size=m * n))
        # any 0/1 matrix, zero rows and columns included
        entries = np.array(cells, dtype=np.int64).reshape(m, n)
        starts = np.arange(m if data.draw(st.booleans()) else m - n + 1)
        fake = AirMatrix(m=m, n=n, entries=entries)
        for s, peeled in zip(starts, _peel_verdicts(fake, starts)):
            if peeled:
                assert det_fraction(entries[(s + np.arange(n)) % m]) in (-1, 1)


class TestSerialization:
    def test_text_format(self):
        assert build_air(5, 3).to_text() == "100\n010\n001\n101\n011"

    def test_csv_format(self):
        # 3 = 1*2 + 1 puts the identity on top; 2 = 2*1 fills the last
        # row with ones
        assert build_air(3, 2).to_csv() == "1,0\n0,1\n1,1"
