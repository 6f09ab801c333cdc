"""Unit and property tests for the rate minimization machinery."""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest
from _reference import bezout_min_pair
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from airindex.rates import (
    ProblemInstance,
    find_min_rate,
    is_feasible,
    oracle_min_rate,
    rate_upper_bound,
    solution_for_pair,
    truncated_decimal,
)

# Frozen reference values for K = 37, U <= D <= 8: one tuple per table
# row, as (D, U values, a, b, rate decimal, encoder rows, encoder cols).
TABLE_K37 = [
    (1, [1], 1, 18, "2.055", 666, 37),
    (2, [1, 2], 1, 12, "3.083", 444, 37),
    (3, [1, 2, 3], 1, 9, "4.111", 333, 37),
    (4, [1, 2, 3, 4], 2, 7, "5.285", 259, 37),
    (5, [1, 2, 3, 4, 5], 1, 6, "6.166", 222, 37),
    (6, [1, 2, 3, 4, 5, 6], 2, 5, "7.400", 185, 37),
    (7, [1, 2, 3], 2, 9, "8.222", 333, 74),
    (7, [4, 5, 6, 7], 5, 4, "9.250", 148, 37),
    (8, [1, 2, 3, 4, 5, 6, 7, 8], 1, 4, "9.250", 148, 37),
]


def _instances(max_k=30, max_d=8):
    def build(draw_tuple):
        k, d, u = draw_tuple
        return ProblemInstance(K=k, D=d, U=u)

    return (
        st.integers(3, max_k)
        .flatmap(
            lambda k: st.integers(1, min(max_d, k - 1)).flatmap(
                lambda d: st.tuples(
                    st.just(k), st.just(d), st.integers(0, min(d, k - 1 - d))
                )
            )
        )
        .map(build)
    )


class TestProblemInstance:
    @pytest.mark.parametrize(
        "kwargs,fragment",
        [
            (dict(K=0, D=1, U=0), "K must be positive"),
            (dict(K=5, D=0, U=0), "D must be positive"),
            (dict(K=5, D=2, U=-1), "U must be nonnegative"),
            (dict(K=9, D=2, U=3), "U must not exceed D"),
            (dict(K=4, D=2, U=2), "must be smaller than K"),
        ],
    )
    def test_rejects_invalid(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            ProblemInstance(**kwargs)

    def test_boundary_d_plus_u_equals_k_minus_1(self):
        ProblemInstance(K=5, D=2, U=2)  # D+U = K-1 is allowed

    def test_numpy_integers_become_ints(self):
        problem = ProblemInstance(np.int64(17), np.int32(5), np.uint8(1))
        assert all(type(v) is int for v in (problem.K, problem.D, problem.U))
        assert problem == ProblemInstance(17, 5, 1)
        assert hash(problem) == hash(ProblemInstance(17, 5, 1))

    @pytest.mark.parametrize(
        "kwargs", [dict(K=5.0, D=1, U=1), dict(K=5, D=1.5, U=1), dict(K=5, D=1, U="1")]
    )
    def test_rejects_non_integers(self, kwargs):
        with pytest.raises(TypeError):
            ProblemInstance(**kwargs)


class TestFeasibility:
    def test_worked_pair(self):
        assert is_feasible(ProblemInstance(17, 11, 1), 1, 7)

    def test_scalar_divisible_case(self):
        assert is_feasible(ProblemInstance(8, 3, 0), 0, 1)

    def test_infeasible_pair(self):
        assert not is_feasible(ProblemInstance(17, 11, 1), 1, 6)

    def test_rejects_bad_a_b(self):
        with pytest.raises(ValueError):
            is_feasible(ProblemInstance(5, 1, 1), -1, 2)
        with pytest.raises(ValueError):
            is_feasible(ProblemInstance(5, 1, 1), 1, 0)

    def test_pair_goes_through_operator_index(self):
        # numpy integers become plain ints, so a solution's JSON and every
        # int-only step after it accept them; floats are refused
        problem = ProblemInstance(5, 1, 1)
        assert is_feasible(problem, np.int64(1), np.int32(2)) == is_feasible(problem, 1, 2)
        sol = solution_for_pair(problem, np.int64(1), np.int64(2))
        assert type(sol.a_min) is int and type(sol.b_min) is int
        assert sol == solution_for_pair(problem, 1, 2)
        assert json.loads(json.dumps(sol.to_json())) == solution_for_pair(problem, 1, 2).to_json()
        for a, b in [(1.0, 2), (1, 2.0)]:
            with pytest.raises(TypeError):
                solution_for_pair(problem, a, b)
            with pytest.raises(TypeError):
                is_feasible(problem, a, b)


class TestFindMinRate:
    @pytest.mark.parametrize(
        "K,D,U,a,b,rate",
        [
            (17, 11, 1, 1, 7, Fraction(85, 7)),
            (17, 5, 1, 3, 8, Fraction(51, 8)),
            (71, 25, 1, 1, 30, Fraction(781, 30)),
            (8, 3, 0, 0, 1, Fraction(4)),
        ],
    )
    def test_worked_examples(self, K, D, U, a, b, rate):
        sol = find_min_rate(ProblemInstance(K, D, U))
        assert (sol.a_min, sol.b_min) == (a, b)
        assert sol.rate == rate
        assert sol.encoder_rows == K * b
        assert sol.encoder_cols == b * (D + 1) + a

    def test_table_row_d4_u4(self):
        sol = find_min_rate(ProblemInstance(37, 4, 4))
        assert (sol.a_min, sol.b_min) == (2, 7)
        assert (sol.encoder_rows, sol.encoder_cols) == (259, 37)
        assert truncated_decimal(sol.rate) == "5.285"

    @pytest.mark.parametrize("row", TABLE_K37)
    def test_reference_table(self, row):
        d, us, a, b, decimal, rows, cols = row
        for u in us:
            sol = find_min_rate(ProblemInstance(37, d, u))
            assert (sol.a_min, sol.b_min) == (a, b)
            assert truncated_decimal(sol.rate) == decimal
            assert (sol.encoder_rows, sol.encoder_cols) == (rows, cols)

    def test_solution_json_schema(self):
        payload = find_min_rate(ProblemInstance(17, 11, 1)).to_json()
        assert payload == {
            "K": 17,
            "D": 11,
            "U": 1,
            "a_min": 1,
            "b_min": 7,
            "rate_num": 85,
            "rate_den": 7,
            "rate_decimal": "12.142",
            "encoder_rows": 119,
            "encoder_cols": 85,
            "source": "algorithm",
        }


class TestOracle:
    def test_agrees_on_worked_example(self):
        sol = oracle_min_rate(ProblemInstance(17, 11, 1))
        assert Fraction(sol.a_min, sol.b_min) == Fraction(1, 7)
        assert sol.source == "oracle"

    def test_scalar_case(self):
        sol = oracle_min_rate(ProblemInstance(8, 3, 0))
        assert (sol.a_min, sol.b_min) == (0, 1)

    def test_table_row_d6_u6(self):
        sol = oracle_min_rate(ProblemInstance(37, 6, 6))
        assert (sol.a_min, sol.b_min) == (2, 5)

    def test_small_b_max_can_fail(self):
        # K prime and b = 1 leaves gcd(K, D+1+a) = 1 < U+1 for every a
        # in range, so nothing feasible is scanned
        with pytest.raises(LookupError):
            oracle_min_rate(ProblemInstance(17, 5, 1), b_max=1)


class TestBounds:
    def test_upper_bound_37_7(self):
        assert rate_upper_bound(37, 7) == Fraction(37, 4)

    def test_upper_bound_divisible(self):
        assert rate_upper_bound(12, 3) == Fraction(4)

    def test_upper_bound_17_11(self):
        assert rate_upper_bound(17, 11) == Fraction(17)

    def test_rejects_d_too_large(self):
        with pytest.raises(ValueError):
            rate_upper_bound(3, 3)


class TestTruncatedDecimal:
    @pytest.mark.parametrize(
        "frac,text",
        [
            (Fraction(85, 7), "12.142"),
            (Fraction(37, 5), "7.400"),
            (Fraction(37, 4), "9.250"),
            (Fraction(74, 9), "8.222"),
            (Fraction(37, 6), "6.166"),
            (Fraction(0), "0.000"),
        ],
    )
    def test_truncation(self, frac, text):
        assert truncated_decimal(frac) == text


@settings(max_examples=300, deadline=None)
@given(problem=_instances())
def test_oracle_equivalence(problem):
    assert find_min_rate(problem).rate == oracle_min_rate(problem).rate


def _pair(problem):
    sol = find_min_rate(problem)
    return sol.a_min, sol.b_min


@settings(max_examples=300, deadline=None)
@given(problem=_instances(max_k=120, max_d=20))
def test_pair_matches_bezout_walk(problem):
    # the same pair, not only the same rate: a reduced or scaled pair has
    # the same rate but changes the K=37 table and every encoder size
    assert _pair(problem) == bezout_min_pair(problem.K, problem.D, problem.U)


def test_pair_matches_bezout_walk_sweep():
    for K in range(3, 61):
        for D in range(1, min(10, K - 1) + 1):
            for U in range(min(D, K - 1 - D) + 1):
                assert _pair(ProblemInstance(K, D, U)) == bezout_min_pair(K, D, U), (K, D, U)


@settings(max_examples=300, deadline=None)
@given(problem=_instances(max_k=60, max_d=10))
def test_bounds_sandwich(problem):
    rate = find_min_rate(problem).rate
    assert Fraction(problem.D + 1) <= rate <= rate_upper_bound(problem.K, problem.D)


@settings(max_examples=200, deadline=None)
@given(problem=_instances())
def test_rate_monotone_in_u(problem):
    assume(problem.U < problem.D and problem.D + problem.U + 1 < problem.K)
    bigger = ProblemInstance(problem.K, problem.D, problem.U + 1)
    assert find_min_rate(bigger).rate >= find_min_rate(problem).rate


@settings(max_examples=200, deadline=None)
@given(problem=_instances(), c=st.integers(1, 9), data=st.data())
def test_feasible_set_closed_under_scaling(problem, c, data):
    a = data.draw(st.integers(0, 2 * problem.K))
    b = data.draw(st.integers(1, 2 * problem.K))
    assume(is_feasible(problem, a, b))
    assert is_feasible(problem, c * a, c * b)


@settings(max_examples=200, deadline=None)
@given(problem=_instances())
def test_unique_b_for_minimal_a(problem):
    sol = find_min_rate(problem)
    if sol.a_min == 0:
        return
    K, D, U = problem.K, problem.D, problem.U
    matches = [
        b
        for b in range(1, K // (U + 1) + 1)
        if (b * (D + 1) + sol.a_min) % K == 0 and is_feasible(problem, sol.a_min, b)
    ]
    assert matches == [sol.b_min]


@settings(max_examples=200, deadline=None)
@given(problem=_instances())
def test_minimal_solution_bounds(problem):
    sol = find_min_rate(problem)
    assert sol.b_min <= problem.K // (problem.U + 1)
    assert sol.a_min <= problem.K % (problem.D + 1)
    assert is_feasible(problem, sol.a_min, sol.b_min)


def test_solution_for_pair_skips_feasibility():
    problem = ProblemInstance(17, 11, 1)
    sol = solution_for_pair(problem, 1, 6)
    assert not is_feasible(problem, 1, 6)
    assert (sol.encoder_rows, sol.encoder_cols) == (102, 73)
    assert sol.source == "manual"
