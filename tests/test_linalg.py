"""Unit tests for exact integer and GF(p) matrix routines.

``rank_mod_p`` is checked against the dense reference elimination in
``_reference`` and ``det_exact`` against its rational elimination; the
reference left solve, which the decoder tests compare against, is itself
checked here on hand-worked and random systems.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import det_fraction
from _reference import rank_mod_p as reference_rank
from _reference import solve_left
from airindex import linalg
from airindex.air import build_air, verify_adjacent_independence
from airindex.cli import main
from airindex.codec import build_encoder, simulate
from airindex.linalg import det_exact, is_prime, rank_mod_p, require_prime
from airindex.rates import ProblemInstance, find_min_rate

# The 5x3 construction, derived by hand from the fill algorithm:
# identity on top, then a 2x2 identity in the bottom-left, ones in the
# bottom-right column.
AIR_5_3 = np.array(
    [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
        [1, 0, 1],
        [0, 1, 1],
    ],
    dtype=np.int64,
)

PRIMES = (2, 3, 5, 7)

# the largest prime with (p-1)**2 < 2**63, and the next prime
LARGEST_RANK_PRIME = 3037000493
FIRST_REFUSED_PRIME = 3037000507


class TestPrimality:
    def test_small_values(self):
        assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_matches_a_sieve(self):
        # squares and products of two primes near each other test the loop's
        # bound and both divisors 6k-1 and 6k+1
        n = 20000
        sieve = np.ones(n, dtype=bool)
        sieve[:2] = False
        for f in range(2, 142):
            sieve[f * f :: f] = False
        assert [is_prime(p) for p in range(n)] == sieve.tolist()
        assert is_prime(3037000493) and not is_prime(3037000493 * 3)
        assert not is_prime(65521 * 65537) and not is_prime(46337**2)

    def test_require_prime_rejects_composites(self):
        with pytest.raises(ValueError, match="prime"):
            require_prime(4)
        with pytest.raises(ValueError, match="prime"):
            require_prime(1)
        assert require_prime(13) == 13


class TestFieldGate:
    """Every GF(p) entry point checks the range of p before its primality."""

    MERSENNE_127 = 2**127 - 1
    MERSENNE_61 = 2**61 - 1
    P_17_5_1 = ProblemInstance(17, 5, 1)

    @pytest.fixture(autouse=True)
    def range_before_primality(self, monkeypatch):
        # trial division of these primes would not return in any useful time
        is_prime_ = linalg.is_prime

        def guarded(p):
            if p > 2**32:
                raise AssertionError(f"is_prime({p}) ran before the range check")
            return is_prime_(p)

        monkeypatch.setattr(linalg, "is_prime", guarded)

    def test_require_prime(self):
        with pytest.raises(ValueError, match="2\\*\\*63"):
            require_prime(self.MERSENNE_127)
        # one range for every entry point: the largest prime in it passes,
        # and the next is refused with the range's own message
        assert require_prime(LARGEST_RANK_PRIME) == LARGEST_RANK_PRIME
        message = r"^p=3037000507 is too large: \(p-1\)\*\*2 must stay below 2\*\*63 "
        with pytest.raises(ValueError, match=message):
            require_prime(FIRST_REFUSED_PRIME)

    def test_rank(self):
        with pytest.raises(ValueError, match="2\\*\\*63"):
            rank_mod_p(np.eye(2, dtype=int), self.MERSENNE_127)

    def test_verify_air(self):
        with pytest.raises(ValueError, match="2\\*\\*63"):
            verify_adjacent_independence(build_air(5, 3), primes=(2, self.MERSENNE_127))

    def test_build_encoder(self):
        sol = find_min_rate(self.P_17_5_1)
        with pytest.raises(ValueError, match="too large"):
            build_encoder(self.P_17_5_1, sol, self.MERSENNE_61)

    @pytest.mark.parametrize(
        "args",
        [
            ("verify-air", "5", "3", "--primes", str(MERSENNE_127)),
            ("simulate", "17", "5", "1", "--p", str(MERSENNE_61)),
        ],
    )
    def test_cli_exits_2(self, args):
        result = CliRunner().invoke(main, args, catch_exceptions=False)
        assert result.exit_code == 2
        assert "too large" in result.output

    @pytest.mark.parametrize(
        "call",
        [
            lambda pr, sol: rank_mod_p([[1, 1], [1, -1]], 2.9),
            lambda pr, sol: build_encoder(pr, sol, 3.7),
            lambda pr, sol: simulate(pr, sol, 2.5, trials=1),
            lambda pr, sol: simulate(pr, sol, 3.0, trials=1, encoder=build_encoder(pr, sol, 3)),
            lambda pr, sol: verify_adjacent_independence(build_air(5, 3), primes=(5.99,)),
        ],
        ids=["rank", "build_encoder", "simulate", "simulate_prebuilt", "verify_air"],
    )
    def test_fractional_modulus_refused(self, call):
        with pytest.raises(TypeError):
            call(self.P_17_5_1, find_min_rate(self.P_17_5_1))

    def test_numpy_integer_moduli_accepted(self):
        p = require_prime(np.int64(3))
        assert p == 3 and type(p) is int
        assert rank_mod_p([[1, 1], [1, -1]], np.int64(3)) == 2
        assert verify_adjacent_independence(build_air(5, 3), primes=(np.int64(3),)).passed


class TestRank:
    def test_identity(self):
        assert rank_mod_p(np.eye(3, dtype=int), 2) == 3

    def test_forced_dependency_over_gf2(self):
        # third row is the sum of the first two mod 2
        mat = [[1, 0, 1], [0, 1, 1], [1, 1, 0]]
        assert rank_mod_p(mat, 2) == 2

    def test_air_window_rows_2_to_4_mod_3(self):
        # hand elimination: rows [001],[101],[011] are independent mod 3
        assert rank_mod_p(AIR_5_3[2:5], 3) == 3

    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueError):
            rank_mod_p(np.eye(2, dtype=int), 6)

    def test_largest_int64_prime_ranks_exactly(self):
        # rank-1 probes: the second row is a multiple of the first mod p,
        # so any wrapped product in the elimination would report rank 2
        p = LARGEST_RANK_PRIME
        rng = np.random.default_rng(17)
        for _ in range(200):
            row = [int(v) for v in rng.integers(1, p, size=4)]
            c = int(rng.integers(1, p))
            mat = np.array([row, [c * v % p for v in row]], dtype=np.int64)
            assert rank_mod_p(mat, p) == 1

    @pytest.mark.parametrize("p", [FIRST_REFUSED_PRIME, 4294967311])
    def test_refuses_prime_past_int64_limit(self, p):
        with pytest.raises(ValueError, match="2\\*\\*63"):
            rank_mod_p(np.eye(2, dtype=int), p)


class TestDetExact:
    def test_identity(self):
        assert det_exact(np.eye(3, dtype=int)) == 1

    def test_row_swap(self):
        assert det_exact([[0, 1], [1, 0]]) == -1

    def test_air_window_rows_1_to_3(self):
        # cofactor expansion by hand gives +1
        assert det_exact(AIR_5_3[1:4]) == 1

    def test_singular(self):
        assert det_exact([[1, 2], [2, 4]]) == 0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            det_exact(np.ones((2, 3), dtype=int))

    def test_empty_matrix(self):
        assert det_exact(np.zeros((0, 0), dtype=int)) == 1

    def test_large_entries_exact(self):
        # 2x2 with products beyond 64-bit: exactness must survive
        big = 2**40
        mat = [[big, big - 1], [big + 1, big]]
        assert det_exact(mat) == big * big - (big - 1) * (big + 1)

    @pytest.mark.parametrize(
        "mat, det",
        [
            # 0/1 with no column holding exactly one row: the peel stalls
            ([[1, 1, 0], [0, 1, 1], [1, 0, 1]], 2),
            ([[0, 1, 1], [1, 1, 0], [1, 0, 1]], -2),
            # full rank mod 3 (2 == -1), yet not +-1
            ([[1, -1], [1, 1]], 2),
            # J - I with its first two rows swapped: singular mod 3
            ([[1, 0, 1, 1], [0, 1, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]], 3),
            # outside {-1, 0, 1}: mod 3 it reads as [[-1, 1], [1, 1]], det -2
            ([[2, 1], [1, 1]], 1),
            ([[-(2**63), 0], [0, 1]], -(2**63)),
        ],
    )
    def test_uncertified_matrices_go_through_bareiss(self, mat, det):
        assert det_exact(mat) == det


class TestIntegerEntries:
    @pytest.mark.parametrize(
        "mat",
        [
            [[0.5, 1], [1, 1]],
            [[1.9, 0], [0, 1]],
            [[np.nan, 0], [0, 1]],
            [[np.inf, 0], [0, 1]],
            [[2.0**63, 0], [0, 1]],
            [[1 + 1j, 0], [0, 1]],
            [[1 + 0j, 0], [0, 1]],
            [["1", "0"], ["0", "1"]],
            [[Fraction(1, 2), 1], [1, 1]],
            [[2**70, 0], [0, 1]],
            np.array([[2**64 - 1, 0], [0, 1]], dtype=np.uint64),
        ],
    )
    def test_non_integers_refused(self, mat):
        with pytest.raises(ValueError, match="integer"):
            det_exact(mat)
        with pytest.raises(ValueError, match="integer"):
            rank_mod_p(mat, 3)

    @pytest.mark.parametrize(
        "mat, det, rank3",
        [
            ([[2.0, 0.0], [0.0, 1.0]], 2, 2),
            ([[True, True], [False, True]], 1, 2),
            (np.array([[3, 0], [0, 1]], dtype=np.uint8), 3, 1),
            (np.array([[1, 1], [1, 1]], dtype=np.int8), 0, 1),
            ([[Fraction(4, 2), 1], [1, 1]], 1, 2),
        ],
    )
    def test_integer_values_accepted(self, mat, det, rank3):
        assert det_exact(mat) == det
        assert rank_mod_p(mat, 3) == rank3

    def test_empty_float_matrix(self):
        # np.zeros defaults to float64; an empty matrix has no entry to refuse
        assert det_exact(np.zeros((0, 0))) == 1
        assert rank_mod_p(np.zeros((0, 3)), 2) == 0


class TestSolveLeft:
    """The reference left solve, on systems worked by hand."""

    def test_identity(self):
        u = solve_left(np.eye(3, dtype=int), [1, 0, 1], 2)
        assert u.tolist() == [1, 0, 1]

    def test_inconsistent(self):
        assert solve_left([[1, 1]], [1, 0], 2) is None

    def test_air_row_sum_target(self):
        # y = row0 + row3 over GF(2); u = e0 + e3 is one valid preimage
        y = (AIR_5_3[0] + AIR_5_3[3]) % 2
        assert y.tolist() == [0, 0, 1]
        u = solve_left(AIR_5_3, y, 2)
        assert u is not None
        assert (u @ AIR_5_3 % 2).tolist() == y.tolist()
        e03 = np.array([1, 0, 0, 1, 0])
        assert (e03 @ AIR_5_3 % 2).tolist() == y.tolist()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            solve_left(AIR_5_3, [1, 0], 2)


def _matrices(max_dim=6, max_val=10):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-max_val, max_val), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from((2, 3, 5, 7, 65521)), data=st.data())
def test_rank_matches_dense_reference(p, data):
    rows, cols = data.draw(st.integers(0, 7)), data.draw(st.integers(0, 7))
    # negative entries and entries >= p must reduce like their residues
    entry = st.integers(-10, 10) | st.integers(p, 2**40)
    cells = data.draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
    a = np.array(cells, dtype=np.int64).reshape(rows, cols)
    r = rank_mod_p(a, p)
    assert r == reference_rank(a, p)
    assert 0 <= r <= min(a.shape)
    with pytest.raises(ValueError, match="2-D"):
        rank_mod_p(a.reshape(-1), p)


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from((2, 3, 5, 65521)), data=st.data())
def test_stacked_ranks_match_dense_reference(p, data):
    # the codec's one elimination of a stalled receiver's rows reads the
    # rank of the top block and then of both blocks
    rows, cols = data.draw(st.integers(0, 7)), data.draw(st.integers(1, 7))
    split = data.draw(st.integers(0, rows))
    cells = data.draw(st.lists(st.integers(-3, 3), min_size=rows * cols, max_size=rows * cols))
    a = np.array(cells, dtype=np.int64).reshape(rows, cols)
    got = linalg._stacked_ranks_mod_p(a[:split], a[split:], p)
    assert got == (reference_rank(a[:split], p), reference_rank(a, p))


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(0, 8),
    entries=st.sampled_from(((-1, 0, 1), (0, 1))),
    data=st.data(),
)
def test_det_matches_rational_reference(n, entries, data):
    cells = data.draw(st.lists(st.sampled_from(entries), min_size=n * n, max_size=n * n))
    a = np.array(cells, dtype=np.int64).reshape(n, n)
    assert det_exact(a) == det_fraction(a.tolist())


@settings(max_examples=150, deadline=None)
@given(
    mat=_matrices(),
    p=st.sampled_from(PRIMES),
    data=st.data(),
)
def test_solve_left_recovers_consistent_targets(mat, p, data):
    a = np.array(mat, dtype=np.int64)
    w = np.array(
        data.draw(
            st.lists(st.integers(0, p - 1), min_size=a.shape[0], max_size=a.shape[0])
        ),
        dtype=np.int64,
    )
    y = w @ a % p
    u = solve_left(a, y, p)
    assert u is not None
    assert (u @ a % p).tolist() == y.tolist()


@settings(max_examples=100, deadline=None)
@given(mat=_matrices(max_dim=5, max_val=3))
def test_unimodular_implies_full_rank_everywhere(mat):
    a = np.array(mat, dtype=np.int64)
    if a.shape[0] != a.shape[1]:
        return
    if det_exact(a) in (-1, 1):
        for p in PRIMES:
            assert rank_mod_p(a, p) == a.shape[0]
