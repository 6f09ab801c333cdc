"""Command-line interface.

Subcommands cover the full pipeline: compute minimal rates, emit AIR
matrices, verify adjacent-row independence and per-receiver
decodability, run seeded simulations, and reproduce the rate tables.

Exit codes: 0 success, 1 a verification found failures, 2 invalid usage
or arguments. Structured output goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import json
import sys
from itertools import groupby

import click

from .air import build_air, verify_adjacent_independence
from .codec import build_encoder, decodable, simulate
from .linalg import require_prime
from .rates import (
    ProblemInstance,
    RateSolution,
    find_min_rate,
    oracle_min_rate,
    truncated_decimal,
)


def _fail_usage(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _instance(k: int, d: int, u: int) -> ProblemInstance:
    try:
        return ProblemInstance(K=k, D=d, U=u)
    except ValueError as exc:
        _fail_usage(str(exc))


def _prime_list(spec: str | None, default: str) -> tuple[int, ...]:
    """The primes of a comma-separated list, or of ``default`` when none is given.

    An empty list or one that repeats a prime exits 2, as reports key
    their results by prime.
    """
    raw = default if spec is None else spec
    try:
        # ranks and the codec share one prime range, checked here once
        primes = tuple(require_prime(int(tok)) for tok in raw.split(","))
    except ValueError as exc:
        _fail_usage(f"bad primes list {raw!r}: {exc}")
    if len(set(primes)) < len(primes):
        _fail_usage(f"bad primes list {raw!r}: it repeats a prime")
    return primes


def _solution_line(sol: RateSolution) -> str:
    return (
        f"a={sol.a_min} b={sol.b_min} "
        f"rate={sol.rate.numerator}/{sol.rate.denominator} "
        f"({truncated_decimal(sol.rate)}) "
        f"encoder={sol.encoder_rows}x{sol.encoder_cols}"
    )


@click.group()
@click.version_option(package_name="airindex")
def main() -> None:
    """Rate bounds and verified encoders for cyclic-interference index coding."""


@main.command()
@click.argument("k", type=int)
@click.argument("d", type=int)
@click.argument("u", type=int)
@click.option("--json", "as_json", is_flag=True, help="Emit the result as JSON.")
def rate(k: int, d: int, u: int, as_json: bool) -> None:
    """Minimal achievable rate and encoder size for one (K, D, U) instance."""
    sol = find_min_rate(_instance(k, d, u))
    if as_json:
        click.echo(json.dumps(sol.to_json(), sort_keys=True))
    else:
        click.echo(_solution_line(sol))


@main.command()
@click.argument("m", type=int)
@click.argument("n", type=int)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["txt", "csv"]),
    default="txt",
    help="Plain 0/1 rows or comma-separated cells.",
)
@click.option("--json", "as_json", is_flag=True, help="Emit the matrix as JSON.")
def matrix(m: int, n: int, fmt: str, as_json: bool) -> None:
    """Print the m x n AIR matrix."""
    try:
        air = build_air(m, n)
    except ValueError as exc:
        _fail_usage(str(exc))
    if as_json:
        rows = air.to_text().split("\n")
        click.echo(json.dumps({"m": m, "n": n, "rows": rows}, sort_keys=True))
    else:
        click.echo(air.to_csv() if fmt == "csv" else air.to_text())


@main.command("verify-air")
@click.argument("m", type=int)
@click.argument("n", type=int)
@click.option("--primes", default=None, help="Comma-separated primes (default 2,3,5).")
@click.option("--wrap", is_flag=True, help="Also wrap windows cyclically past row m-1.")
@click.option("--json", "as_json", is_flag=True, help="Emit the report as JSON.")
def verify_air(m: int, n: int, primes: str | None, wrap: bool, as_json: bool) -> None:
    """Check that every n-row window of the m x n AIR matrix is nonsingular."""
    plist = _prime_list(primes, "2,3,5")
    try:
        air = build_air(m, n)
    except ValueError as exc:
        _fail_usage(str(exc))
    report = verify_adjacent_independence(air, primes=plist, wrap=wrap)
    if as_json:
        click.echo(report.to_json_str())
    else:
        status = "PASS" if report.passed else f"FAIL at windows {list(report.failures)}"
        click.echo(
            f"{m}x{n}: {report.windows_checked} windows (wrap={'on' if wrap else 'off'}) "
            f"over primes {list(plist)}: {status}"
        )
    sys.exit(0 if report.passed else 1)


@main.command("verify-code")
@click.argument("k", type=int)
@click.argument("d", type=int)
@click.argument("u", type=int)
@click.option("--p", "primes", default=None, help="Comma-separated primes (default 2,3).")
@click.option("--json", "as_json", is_flag=True, help="Emit the report as JSON.")
def verify_code(k: int, d: int, u: int, primes: str | None, as_json: bool) -> None:
    """Check the per-receiver rank decodability criterion at the minimal rate.

    One encoder per prime, built by ``build_encoder`` for the first and
    by ``over`` for the rest, so that every prime shares one peel.
    """
    problem = _instance(k, d, u)
    plist = _prime_list(primes, "2,3")
    sol = find_min_rate(problem)
    try:
        enc = build_encoder(problem, sol, plist[0])
    except ValueError as exc:
        _fail_usage(str(exc))
    # each prime passed require_prime, the gate `over` applies, in _prime_list
    encoders = [enc, *(enc.over(p) for p in plist[1:])]
    results = {e.p: [recv for recv in range(problem.K) if not decodable(e, recv)] for e in encoders}
    all_ok = not any(results.values())
    if as_json:
        click.echo(
            json.dumps(
                {
                    "K": problem.K,
                    "D": problem.D,
                    "U": problem.U,
                    "a": sol.a_min,
                    "b": sol.b_min,
                    "primes": list(plist),
                    "failures": {str(p): bad for p, bad in results.items()},
                    "all_decodable": all_ok,
                },
                sort_keys=True,
            )
        )
    else:
        click.echo(_solution_line(sol))
        for p, bad in results.items():
            click.echo(
                f"p={p}: {problem.K - len(bad)}/{problem.K} receivers decodable"
                + (f", failing: {bad}" if bad else "")
            )
    sys.exit(0 if all_ok else 1)


@main.command("simulate")
@click.argument("k", type=int)
@click.argument("d", type=int)
@click.argument("u", type=int)
@click.option("--p", "p", type=int, default=2, show_default=True, help="Field prime.")
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def simulate_cmd(k: int, d: int, u: int, p: int, trials: int, seed: int) -> None:
    """Seeded end-to-end encode/decode run; prints the report as JSON."""
    problem = _instance(k, d, u)
    sol = find_min_rate(problem)
    try:
        report = simulate(problem, sol, p, trials=trials, seed=seed)
    except ValueError as exc:
        # negative trials or seed, p not a prime in the one range of every GF(p)
        # entry point, or an encoder or message batch over the codec's limits
        _fail_usage(str(exc))
    click.echo(report.to_json_str())
    sys.exit(0 if report.passed else 1)


def _table_rows(k: int, dmax: int, collapse: bool) -> list[dict]:
    rows: list[dict] = []
    # one row per run of consecutive U with one (a, b) when collapsing, else one per U
    key = (lambda pair: (pair[1].a_min, pair[1].b_min)) if collapse else (lambda pair: pair[0])
    # D = K-2 is the last D with room for U >= 1 (D+U < K)
    for d in range(1, min(dmax, k - 2) + 1):
        pairs = (
            (u, find_min_rate(ProblemInstance(K=k, D=d, U=u)))
            for u in range(1, min(d, k - 1 - d) + 1)
        )
        for _, run in groupby(pairs, key):
            us, sols = zip(*run)
            sol = sols[0]
            rows.append(
                {
                    "D": d,
                    "U": list(us),
                    "a": sol.a_min,
                    "b": sol.b_min,
                    "lower_bound": d + 1,
                    "rate_num": sol.rate.numerator,
                    "rate_den": sol.rate.denominator,
                    "rate_decimal": truncated_decimal(sol.rate),
                    "encoder_rows": sol.encoder_rows,
                    "encoder_cols": sol.encoder_cols,
                }
            )
    return rows


def _format_u_range(us: list[int]) -> str:
    if len(us) <= 5:
        return ",".join(str(u) for u in us)
    return f"{us[0]},{us[0] + 1},...,{us[-1]}"


@main.command()
@click.argument("k", type=int)
@click.option("--dmax", type=int, default=8, show_default=True, help="Largest D row.")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["md", "csv"]),
    default="md",
    help="Markdown or CSV output.",
)
@click.option(
    "--no-collapse",
    is_flag=True,
    help="One row per U value instead of collapsing equal (a, b) runs.",
)
@click.option("--json", "as_json", is_flag=True, help="Emit the rows as JSON.")
def table(k: int, dmax: int, fmt: str, no_collapse: bool, as_json: bool) -> None:
    """Rate table over D = 1..DMAX and U = 1..D, clipped to valid instances."""
    if k < 3:
        _fail_usage(f"table needs K >= 3, got {k}")
    if dmax < 1:
        _fail_usage(f"dmax must be positive, got {dmax}")
    rows = _table_rows(k, dmax, collapse=not no_collapse)
    if as_json:
        click.echo(json.dumps(rows, sort_keys=True))
        return
    cells = [
        (
            str(r["D"]),
            _format_u_range(r["U"]),
            str(r["a"]),
            str(r["b"]),
            str(r["lower_bound"]),
            r["rate_decimal"],
            f"{r['encoder_rows']}x{r['encoder_cols']}",
        )
        for r in rows
    ]
    header = ("D", "U", "a", "b", "D+1", "R_airm", "AIR matrix size")
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(cells)
        click.echo(buf.getvalue().rstrip("\n"))
    else:
        widths = [max(len(row[i]) for row in [header, *cells]) for i in range(len(header))]
        lines = [
            "| " + " | ".join(h.ljust(w) for h, w in zip(header, widths)) + " |",
            "|" + "|".join("-" * (w + 2) for w in widths) + "|",
        ]
        lines += [
            "| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |"
            for row in cells
        ]
        click.echo("\n".join(lines))


@main.command()
@click.argument("k", type=int)
@click.argument("d", type=int)
@click.argument("u", type=int)
@click.option("--bmax", type=int, default=None, help="Scan bound for b, capped at K (default K).")
@click.option("--json", "as_json", is_flag=True, help="Emit both results as JSON.")
def oracle(k: int, d: int, u: int, bmax: int | None, as_json: bool) -> None:
    """Brute-force reference minimizer, with an agreement check."""
    problem = _instance(k, d, u)
    if bmax is not None and bmax < 1:
        _fail_usage(f"bmax must be positive, got {bmax}")
    try:
        ref = oracle_min_rate(problem, b_max=bmax)
    except LookupError as exc:
        _fail_usage(str(exc))
    alg = find_min_rate(problem)
    agree = ref.rate == alg.rate
    if as_json:
        click.echo(
            json.dumps(
                {"oracle": ref.to_json(), "algorithm": alg.to_json(), "agree": agree},
                sort_keys=True,
            )
        )
    else:
        click.echo(f"oracle:    {_solution_line(ref)}")
        click.echo(f"algorithm: {_solution_line(alg)}")
        click.echo(f"agreement: {'yes' if agree else 'NO'}")
    sys.exit(0 if agree else 1)


if __name__ == "__main__":
    main()
