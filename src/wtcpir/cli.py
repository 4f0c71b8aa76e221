"""Command-line interface.

Subcommands
-----------
capacity   exact upper bound, best scheme rate, and gap for one profile
scheme     the best scheme's dimensioning (sequence, repetitions, keys)
plan       build a query plan; write JSON and a markdown table
simulate   execute a plan end to end and report the decode verdict
audit      run privacy, security, decodability, and structure audits on a plan
sweep      grid of profiles -> CSV of upper/lower bounds and gaps

Exit codes: 0 success / all audits pass, 1 audit or decode failure,
2 usage error.  Output is byte-identical for identical inputs and seeds.
The security verdict of ``audit`` is an exact certificate per database
(see ``protocol.audit_security``), never a sample of observation sets.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Sequence

from .capacity import upper_bound
from .fieldmath import parse_rational
from .planner import (
    build_plan,
    plan_from_json,
    plan_stats,
    plan_to_json,
    plan_to_table,
    plan_violations,
)
from .protocol import (
    audit_decodability,
    audit_privacy,
    audit_security,
    random_store,
    run_retrieval,
)
from .schemes import (
    EavesdropProfile,
    achievable_rate,
    best_scheme,
    derive_groups,
    enumerate_sequences,
    repetition_factor,
    traffic_vector,
)


class UsageError(ValueError):
    """Bad command-line input (exit code 2)."""


def frac_decimal(x: Fraction, places: int = 6) -> str:
    """Fixed-point decimal rendering via integer arithmetic (no float)."""
    scale = 10 ** places
    scaled = x * scale
    n, d = scaled.numerator, scaled.denominator
    units, rem = divmod(abs(n), d)
    if 2 * rem >= d:
        units += 1
    sign = "-" if n < 0 else ""
    whole, frac = divmod(units, scale)
    return f"{sign}{whole}.{frac:0{places}d}"


def _parse_mu(text: str, N: int, sort: bool) -> EavesdropProfile:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != N:
        raise UsageError(f"--mu lists {len(parts)} ratios, expected N={N}")
    try:
        values = [parse_rational(p) for p in parts]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if sort:
        values = sorted(values)
    elif values != sorted(values):
        raise UsageError(
            "--mu must be ascending (databases are indexed by increasing "
            "eavesdropping ratio); pass --sort-mu to reorder automatically"
        )
    try:
        return EavesdropProfile(values)
    except (ValueError, TypeError) as exc:
        raise UsageError(str(exc)) from exc


def _parse_n(text: str, M: int, N: int):
    try:
        vec = tuple(int(p) for p in text.split(","))
        return derive_groups(M, N, vec)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _render_table(report: dict, prefix: str = "") -> str:
    lines = []
    for key, value in report.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            lines.append(_render_table(value, prefix=f"{name}."))
        else:
            lines.append(f"{name} = {json.dumps(value)}")
    return "\n".join(lines)


def _dump(report: dict, fmt: str, out: str | None) -> None:
    if fmt == "table":
        _emit(_render_table(report) + "\n", out)
    else:
        _emit(json.dumps(report, indent=2) + "\n", out)


def _exact(x: Fraction) -> dict:
    return {"exact": str(x), "decimal": frac_decimal(x)}


def _active_index(M: int, N: int, g) -> int:
    for idx, cand in enumerate(enumerate_sequences(M, N)):
        if cand.n == g.n:
            return idx
    raise UsageError(f"sequence {g.n} is not a monotone scheme index")


def _capacity_report(M: int, N: int, mu: EavesdropProfile) -> dict:
    ub = upper_bound(M, N, mu)
    g, rate = best_scheme(M, N, mu)
    return {
        "M": M,
        "N": N,
        "mu": [str(v) for v in mu.mu],
        "upper_bound": _exact(ub.value),
        "best_rate": _exact(rate),
        "gap": _exact(ub.value - rate),
        "argmax_tau": [str(v) for v in ub.argmax_tau],
        "best_n": list(g.n),
        "active_idx": _active_index(M, N, g),
    }


def _csv_row(M: int, N: int, mu: EavesdropProfile) -> str:
    rep = _capacity_report(M, N, mu)
    cells = [frac_decimal(v) for v in mu.mu]
    cells += [rep["upper_bound"]["decimal"], rep["best_rate"]["decimal"], rep["gap"]["decimal"]]
    cells.append(str(rep["active_idx"]))
    return ",".join(cells)


def _csv_header(N: int) -> str:
    return ",".join([f"mu_{i}" for i in range(1, N + 1)] + ["upper", "lower", "gap", "active_idx"])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_capacity(args) -> int:
    mu = _parse_mu(args.mu, args.N, args.sort_mu)
    if args.format == "csv":
        _emit(_csv_header(args.N) + "\n" + _csv_row(args.M, args.N, mu) + "\n", args.out)
    else:
        _dump(_capacity_report(args.M, args.N, mu), args.format, args.out)
    return 0


def cmd_scheme(args) -> int:
    mu = _parse_mu(args.mu, args.N, args.sort_mu)
    if args.n:
        g = _parse_n(args.n, args.M, args.N)
        rate = achievable_rate(g, mu)
    else:
        g, rate = best_scheme(args.M, args.N, mu)
    dims = repetition_factor(g, mu)
    tau = traffic_vector(g)
    report = {
        "M": args.M,
        "N": args.N,
        "mu": [str(v) for v in mu.mu],
        "n": list(g.n),
        "nu": dims.nu,
        "t": list(dims.t),
        "key_len": list(dims.key_len),
        "L": dims.L,
        "tau": [str(v) for v in tau],
        "rate": _exact(rate),
    }
    _dump(report, args.format, args.out)
    return 0


def cmd_plan(args) -> int:
    mu = _parse_mu(args.mu, args.N, args.sort_mu)
    if args.n:
        g = _parse_n(args.n, args.M, args.N)
    else:
        g, _ = best_scheme(args.M, args.N, mu)
    try:
        plan = build_plan(args.M, args.N, g, mu, desired=args.desired, seed=args.seed, q=args.field_q)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    doc = plan_to_json(plan)
    table = plan_to_table(plan)
    if args.out:
        path = Path(args.out)
        path.write_text(doc, encoding="utf-8")
        md = path.with_suffix(".md") if path.suffix != ".md" else path.with_suffix(".table.md")
        md.write_text(table, encoding="utf-8")
        sys.stdout.write(f"wrote {path} and {md}\n")
    elif args.format == "table":
        sys.stdout.write(table)
    else:
        sys.stdout.write(doc)
    return 0


def _load_plan(path: str):
    try:
        return plan_from_json(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise UsageError(f"plan file not found: {path}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot load plan: {exc}") from exc


def cmd_simulate(args) -> int:
    plan = _load_plan(args.plan)
    store = random_store(plan.M, plan.dims.L, plan.q, args.seed)
    head = {"desired": plan.desired, "seed": args.seed}
    stats = _jsonable(plan_stats(plan))
    try:
        transcript = run_retrieval(plan, store, key_seed=args.seed)
    except ValueError as exc:
        # a plan that cannot be decoded (singular noise, missing side
        # information) is a decode failure, exit 1, not a usage error
        report = {"verdict": "FAIL", "decoded_matches": False, **head, "error": str(exc), "stats": stats}
        _dump(report, args.format, args.out)
        return 1
    ok = transcript.decoded == store.messages[plan.desired - 1]
    report = {
        "verdict": "PASS" if ok else "FAIL",
        "decoded_matches": ok,
        **head,
        "stats": stats,
        "transcript": {
            "answers": [list(row) for row in transcript.answers],
            "decoded": list(transcript.decoded),
            "eavesdropper": {
                "positions": [list(p) for p in transcript.eavesdropper.positions],
                "values": [list(v) for v in transcript.eavesdropper.values],
            },
        },
    }
    _dump(report, args.format, args.out)
    return 0 if ok else 1


def cmd_audit(args) -> int:
    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    plan = _load_plan(args.plan)
    violations = plan_violations(plan)
    audits = {
        "privacy": audit_privacy([
            build_plan(plan.M, plan.N, plan.group_sequence, plan.mu, desired=i, seed=plan.seed)
            for i in range(1, plan.M + 1)
        ]),
        "security": audit_security(plan),
        "decodability": audit_decodability(plan, trials=args.trials, seed=args.seed),
        "structure": {
            "audit": "structure",
            "status": "FAIL" if violations else "PASS",
            "violations": violations,
        },
    }
    status = "PASS" if all(r["status"] == "PASS" for r in audits.values()) else "FAIL"
    _dump(_jsonable({"status": status, **audits}), args.format, args.out)
    return 0 if status == "PASS" else 1


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    return obj


def cmd_sweep(args) -> int:
    try:
        step = parse_rational(args.step)
        mu_max = parse_rational(args.mu_max)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if step <= 0 or mu_max < 0 or mu_max >= 1:
        raise UsageError("need step > 0 and 0 <= mu-max < 1")
    grid = []
    v = Fraction(0)
    while v <= mu_max:
        grid.append(v)
        v += step
    lines = [_csv_header(args.N)]
    for combo in combinations_with_replacement(grid, args.N):
        mu = EavesdropProfile(list(combo))
        lines.append(_csv_row(args.M, args.N, mu))
    text = "\n".join(lines) + "\n"
    if args.format == "json":
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        _emit(json.dumps(rows, indent=2) + "\n", args.out)
    else:
        _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, *, model: bool) -> None:
    if model:
        p.add_argument("-M", type=int, required=True, help="number of messages")
        p.add_argument("-N", type=int, required=True, help="number of databases")
        p.add_argument("--mu", required=True,
                       help="comma-separated eavesdropping ratios, exact rationals (e.g. 1/4,1/2)")
        p.add_argument("--sort-mu", action="store_true",
                       help="sort the ratios ascending instead of rejecting unsorted input")
    p.add_argument("--out", help="write output to this file instead of stdout")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``wtcpir`` argument parser, built once per process on first use.

    Sharing it is safe: ``parse_args`` starts every call from a fresh
    namespace and never changes the parser.
    """
    parser = argparse.ArgumentParser(
        prog="wtcpir",
        description="Exact capacity bounds, schemes, and executable query plans "
                    "for private retrieval against partially observing eavesdroppers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity", help="upper bound, best rate, and gap")
    _add_common(p, model=True)
    p.add_argument("--format", choices=["json", "table", "csv"], default="json")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("scheme", help="best (or given) scheme dimensioning")
    _add_common(p, model=True)
    p.add_argument("--n", help="comma-separated scheme index (defaults to the best one)")
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.set_defaults(func=cmd_scheme)

    p = sub.add_parser("plan", help="build an executable query plan")
    _add_common(p, model=True)
    p.add_argument("--n", help="comma-separated scheme index (defaults to the best one)")
    p.add_argument("--desired", type=int, default=1, help="1-based index of the message to retrieve")
    p.add_argument("--seed", type=int, default=0, help="master seed for permutations and shuffles")
    p.add_argument("--field-q", type=int, help="prime field modulus (default: smallest valid prime)")
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("simulate", help="run one retrieval end to end")
    p.add_argument("--plan", required=True, help="path to a plan JSON document")
    p.add_argument("--seed", type=int, default=0, help="seed for the store and keys")
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("audit", help="privacy, security, decodability, and structure audits")
    p.add_argument("--plan", required=True, help="path to a plan JSON document")
    p.add_argument("--trials", type=int, default=100, help="decodability trials")
    p.add_argument("--seed", type=int, default=0, help="seed for decodability trials")
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("sweep", help="grid of profiles -> bounds CSV")
    p.add_argument("-M", type=int, required=True, help="number of messages")
    p.add_argument("-N", type=int, required=True, help="number of databases")
    p.add_argument("--step", default="1/20", help="grid step, exact rational (default 1/20)")
    p.add_argument("--mu-max", default="19/20", help="largest ratio on the grid (default 19/20)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
