"""Feasible-rate arithmetic for cyclic neighboring-interference broadcasting.

A problem instance is a triple (K, D, U): K messages arranged on a cycle,
with receiver k unable to cancel the D messages after and the U messages
before its wanted one (U <= D, D + U < K). Splitting every message into b
symbols and transmitting b*(D+1) + a coded symbols works whenever

    gcd(b*K, b*(D+1) + a) >= b*(U+1),

giving rate D + 1 + a/b symbols per message symbol. This module minimizes
a/b over that feasibility set two ways whose rates must agree:

* :func:`find_min_rate` walks a = l*g for l = 1, 2, ... (g = gcd(K, D+1))
  and uses the inverse of (D+1)/g modulo K/g to jump straight to the one
  candidate b in range for each l.
* :func:`oracle_min_rate` brute-forces the predicate over a provably
  sufficient (a, b) box, as an independent reference.

Rates are exact :class:`fractions.Fraction` values end to end; decimals
are presentation only, truncated (never rounded) to three places.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

__all__ = [
    "ProblemInstance",
    "RateSolution",
    "is_feasible",
    "solution_for_pair",
    "find_min_rate",
    "oracle_min_rate",
    "rate_upper_bound",
    "truncated_decimal",
]


@dataclass(frozen=True)
class ProblemInstance:
    """A (K, D, U) instance of the cyclic interference layout."""

    K: int
    D: int
    U: int

    def __post_init__(self) -> None:
        # numpy integers become plain ints; floats and other non-integers
        # are refused here rather than failing later mid-computation
        for name in ("K", "D", "U"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.K < 1:
            raise ValueError(f"K must be positive, got K={self.K}")
        if self.D < 1:
            raise ValueError(f"D must be positive, got D={self.D}")
        if self.U < 0:
            raise ValueError(f"U must be nonnegative, got U={self.U}")
        if self.U > self.D:
            raise ValueError(f"U must not exceed D, got U={self.U}, D={self.D}")
        if self.D + self.U >= self.K:
            raise ValueError(
                f"D + U must be smaller than K, got D+U={self.D + self.U}, K={self.K}"
            )


def is_feasible(problem: ProblemInstance, a: int, b: int) -> bool:
    """Membership test for the (a, b) feasibility set.

    True iff gcd(b*K, b*(D+1) + a) >= b*(U+1), i.e. splitting messages
    into b symbols with a extra coded symbols admits the construction.
    a and b go through ``operator.index``, as K, D and U do.
    """
    a, b = operator.index(a), operator.index(b)
    if a < 0:
        raise ValueError(f"a must be nonnegative, got {a}")
    if b < 1:
        raise ValueError(f"b must be positive, got {b}")
    return gcd(b * problem.K, b * (problem.D + 1) + a) >= b * (problem.U + 1)


@dataclass(frozen=True)
class RateSolution:
    """A feasible (a, b) pair with its exact rate and encoder dimensions.

    ``rate`` is (b*(D+1) + a) / b reduced; the encoder is the
    ``encoder_rows x encoder_cols`` matrix with rows = K*b and
    cols = b*(D+1) + a.
    """

    problem: ProblemInstance
    a_min: int
    b_min: int
    rate: Fraction
    encoder_rows: int
    encoder_cols: int
    source: str = "algorithm"

    def to_json(self) -> dict:
        return {
            "K": self.problem.K,
            "D": self.problem.D,
            "U": self.problem.U,
            "a_min": self.a_min,
            "b_min": self.b_min,
            "rate_num": self.rate.numerator,
            "rate_den": self.rate.denominator,
            "rate_decimal": truncated_decimal(self.rate),
            "encoder_rows": self.encoder_rows,
            "encoder_cols": self.encoder_cols,
            "source": self.source,
        }


def solution_for_pair(
    problem: ProblemInstance, a: int, b: int, source: str = "manual"
) -> RateSolution:
    """Package an explicit (a, b) choice without checking feasibility.

    Useful for negative controls: ``build_encoder`` re-checks
    feasibility, and an ``Encoder`` built directly does not. a and b go
    through ``operator.index``, so numpy integers become plain ints and
    floats are refused.
    """
    a, b = operator.index(a), operator.index(b)
    if a < 0 or b < 1:
        raise ValueError(f"need a >= 0 and b >= 1, got a={a}, b={b}")
    cols = b * (problem.D + 1) + a
    return RateSolution(
        problem=problem,
        a_min=a,
        b_min=b,
        rate=Fraction(cols, b),
        encoder_rows=problem.K * b,
        encoder_cols=cols,
        source=source,
    )


def find_min_rate(problem: ProblemInstance) -> RateSolution:
    """Minimize a/b over the feasibility set.

    With g = gcd(K, D+1) >= U+1 the scalar code (a=0, b=1) is already
    feasible and optimal (rate D+1 meets the general lower bound).
    Otherwise some minimizing pair satisfies b*(D+1) + a == 0 (mod K)
    with b <= K // (U+1), and this returns the one with the smallest a.
    Not every minimizing pair is on that congruence: for (8, 2, 1) the
    result is (2, 2), while (1, 1) has the same rate 4 and half the
    encoder. On the congruence g divides a; for a = l*g the admissible b
    form one residue class modulo K // g, and since that step exceeds
    K // (U+1) whenever g <= U, each l admits at most a single candidate.
    Walking l upward and returning the first hit therefore yields the
    minimum. The walk always terminates by l = (K mod (D+1)) // g because
    a = K mod (D+1), b = K // (D+1) is feasible.
    """
    K, D, U = problem.K, problem.D, problem.U
    g = gcd(K, D + 1)
    if U + 1 <= g:
        a, b = 0, 1
    else:
        step = K // g
        # b*(D+1) + l*g == 0 (mod K) reads b == -l * inv (mod step)
        inv = pow((D + 1) // g, -1, step)
        b_cap = K // (U + 1)
        l_cap = (K % (D + 1)) // g
        a = b = 0
        for l in range(1, l_cap + 1):
            cand = (-l * inv - 1) % step + 1
            if cand <= b_cap:
                a, b = l * g, cand
                break
        if b == 0:
            raise AssertionError(
                "candidate walk exhausted its bound; unreachable for a valid instance"
            )
        if (b * (D + 1) + a) % K != 0 or not is_feasible(problem, a, b):
            raise AssertionError(f"candidate (a={a}, b={b}) failed its own feasibility")
    return solution_for_pair(problem, a, b, source="algorithm")


def oracle_min_rate(problem: ProblemInstance, b_max: int | None = None) -> RateSolution:
    """Brute-force reference minimizer, independent of the modular walk.

    Evaluates the feasibility predicate directly for every b in
    [1, min(b_max, K)] (default b_max = K) and a in [0, K mod (D+1)],
    keeping the smallest a/b with ties broken toward smaller b, then
    smaller a. The a range suffices because a = K mod (D+1) with
    b = K // (D+1) is always feasible, capping the minimum ratio. The b
    range stops at K whatever ``b_max`` is: some minimizer has
    b <= K // (U+1) (see :func:`find_min_rate`), and ties go to the
    smaller b, so a larger bound would change no answer, only scan for
    as long as it is.
    """
    K, D = problem.K, problem.D
    if b_max is None:
        b_max = K
    if b_max < 1:
        raise ValueError(f"b_max must be positive, got {b_max}")
    a_hi = K % (D + 1)
    best: tuple[int, int] | None = None
    best_key: tuple[Fraction, int, int] | None = None
    for b in range(1, min(b_max, K) + 1):
        for a in range(a_hi + 1):
            if is_feasible(problem, a, b):
                key = (Fraction(a, b), b, a)
                if best_key is None or key < best_key:
                    best_key, best = key, (a, b)
    if best is None:
        raise LookupError(f"no feasible pair for {problem} with b <= {b_max}")
    return solution_for_pair(problem, *best, source="oracle")


def rate_upper_bound(K: int, D: int) -> Fraction:
    """The always-achievable rate K / floor(K / (D+1)).

    Equals D + 1 + (K mod (D+1)) / floor(K / (D+1)) and so collapses to
    D + 1 exactly when (D+1) | K.
    """
    if K < 1 or D < 1:
        raise ValueError(f"K and D must be positive, got K={K}, D={D}")
    if D + 1 > K:
        raise ValueError(f"need D + 1 <= K, got D={D}, K={K}")
    return Fraction(K, K // (D + 1))


def truncated_decimal(x: Fraction) -> str:
    """Fixed-point rendering truncated (not rounded) to three digits.

    Matches the tabulation convention used throughout: 85/7 renders as
    12.142 even though it rounds to 12.143.
    """
    if x < 0:
        raise ValueError("only nonnegative values are rendered")
    whole, frac = divmod(x.numerator * 1000 // x.denominator, 1000)
    return f"{whole}.{frac:03d}"
