"""Verification command line: every check as a reproducible subcommand.

Each command returns a Report and writes nothing; main renders it as
text, json or csv and is the one place that writes output and picks the
exit code: 0 when every check passes, 1 on a verification failure (a
failed report check, or a library self-check that raised ArithmeticError
or RuntimeError), 2 on a usage or input error (an unwritable --out
included), 3 when a computational budget is exceeded.  All randomness
is surfaced as an explicit --seed; given identical flags every
subcommand produces identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Iterable
from dataclasses import asdict, dataclass
from itertools import pairwise

from .bijection import (
    BijectionTrace,
    conjugate_matching,
    matching_to_oscillating,
    oscillating_to_matching,
)
from .distribution import (
    ENUMERATION_BUDGET,
    BudgetError,
    MgfEntry,
    _series_factors,
    clt_experiment,
    mgf_convergence_report,
    polynomial_by_enumeration,
    polynomial_by_gf,
)
from .matchings import (
    MomentReport,
    _check_draws,
    _matchings,
    brute_force_moments,
    closed_form_moments,
    compare_reports,
    descent_stats,
    parse_matching,
)

CLT_MEAN_TOL = 0.01
CLT_VAR_TOL = 0.005
CLT_KS_TOL = 0.05
SERIES_BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class Report:
    """What one command found, ready for every output format.

    ``json_text`` is the json output.  The csv output is the table:
    ``columns``, then ``rows``, read once, whose cells hold no commas.
    The text output is the ``heading`` lines, the table, and one
    ``name: PASS|FAIL`` line per entry of ``checks``.
    """

    json_text: str
    heading: list[str]
    columns: tuple[str, ...]
    rows: Iterable[tuple]
    checks: dict[str, bool]

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.json_text
        table = [",".join(self.columns)]
        table += [",".join(map(_cell, row)) for row in self.rows]
        if fmt == "csv":
            return "\n".join(table)
        verdicts = [f"{name}: {'PASS' if ok else 'FAIL'}" for name, ok in self.checks.items()]
        return "\n".join(self.heading + table + verdicts)


def _rounded(fields: dict) -> dict:
    """``fields`` with every float cut to 12 significant digits, for json."""
    return {
        k: float(f"{v:.12g}") if isinstance(v, float) else v
        for k, v in fields.items()
    }


def _cell(value) -> str:
    """Reals with 12 significant digits, as in the json output; "-" for None."""
    if value is None:
        return "-"
    return f"{value:.12g}" if isinstance(value, float) else str(value)


def _numbers(parse, lo, hi, many: bool = False):
    """An argparse type: one finite number in [lo, hi) read by ``parse``,
    or with ``many`` a comma list of them."""

    def convert(text: str):
        try:
            values = [parse(tok) for tok in text.split(",")] if many else [parse(text)]
        except ValueError:
            kind = "a comma list of" if many else "one"
            raise argparse.ArgumentTypeError(
                f"expected {kind} {parse.__name__}, got {text!r}"
            ) from None
        for value in values:
            # NaN fails both comparisons; -inf passes them when lo is -inf
            if abs(value) == math.inf or not lo <= value < hi:
                raise argparse.ArgumentTypeError(
                    f"need a finite number in [{lo}, {hi}), got {value}"
                )
        return values if many else values[0]

    return convert


def _report_dict(report: MomentReport) -> dict:
    out = {"n": report.n}
    for name in MomentReport.FIELD_NAMES:
        value = report.value(name)
        out[name] = None if value is None else str(value)
    out["invalid_fields"] = sorted(report.invalid_fields)
    return out


def cmd_stats(args) -> Report:
    closed = closed_form_moments(args.n)
    brute = brute_force_moments(args.n) if args.n <= ENUMERATION_BUDGET else None
    verdicts = {
        name: "SKIPPED" if ok is None else ("MATCH" if ok else "MISMATCH")
        for name, ok in (compare_reports(closed, brute) if brute else {}).items()
    }
    all_match = "MISMATCH" not in verdicts.values()
    payload = {
        "n": args.n,
        "closed_form": _report_dict(closed),
        "brute_force": _report_dict(brute) if brute else None,
        "verdicts": verdicts,
        "all_match": all_match,
    }
    heading = [f"moment report for n={args.n}"]
    if not brute:
        heading.append(f"(enumeration omitted above n={ENUMERATION_BUDGET})")
    return Report(
        json.dumps(payload, indent=2),
        heading,
        ("field", "closed_form", "brute_force", "verdict"),
        [
            (
                name,
                closed.value(name),
                brute.value(name) if brute else None,
                verdicts.get(name, "SKIPPED"),
            )
            for name in MomentReport.FIELD_NAMES
        ],
        {"closed forms match enumeration": all_match} if brute else {},
    )


def cmd_poly(args) -> Report:
    gf = polynomial_by_gf(args.n)
    enum = (
        polynomial_by_enumeration(args.n) if args.n <= ENUMERATION_BUDGET else None
    )
    identical = gf.coeffs == enum.coeffs if enum else None
    payload = {
        "n": args.n,
        "total": gf.total(),
        "coeffs_gf": list(gf.coeffs),
        "coeffs_enumeration": list(enum.coeffs) if enum else None,
        "identical": identical,
    }
    return Report(
        json.dumps(payload),
        [f"descent polynomial for n={args.n} (total {gf.total()})"],
        ("m", "count"),
        [(m, c) for m, c in enumerate(gf.coeffs) if c],
        {"coefficients match enumeration": identical} if enum else {},
    )


def cmd_conjugate(args) -> Report:
    m = parse_matching(args.matching)
    conj = conjugate_matching(m)
    st, st_conj = descent_stats(m), descent_stats(conj)
    d, d_conj = st.descent_number, st_conj.descent_number
    maj, maj_conj = st.major_index, st_conj.major_index
    n = m.n
    d_ok = d + d_conj == 2 * (n + 1)
    maj_ok = maj + maj_conj == 2 * n * n
    payload = {
        "matching": str(m),
        "conjugate": str(conj),
        "d": d,
        "d_conjugate": d_conj,
        "maj": maj,
        "maj_conjugate": maj_conj,
        "descent_identity_ok": d_ok,
        "major_identity_ok": maj_ok,
    }
    return Report(
        json.dumps(payload),
        [f"matching:  {m}", f"conjugate: {conj}"],
        ("statistic", "matching", "conjugate"),
        [("d", d, d_conj), ("maj", maj, maj_conj)],
        {
            f"descent identity {d} + {d_conj} = {2 * (n + 1)}": d_ok,
            f"major identity {maj} + {maj_conj} = {2 * n * n}": maj_ok,
        },
    )


def cmd_tableau(args) -> Report:
    if args.matching is None:
        if args.n is None:
            raise ValueError("--random requires --n")
        seed = 42 if args.seed is None else args.seed
        # the bijection both ways moves each letter along a route of about
        # sqrt(2n) cells, each move several times the cost of a drawn letter
        _check_draws(args.n, seed, 0, args.random, 16 * math.isqrt(2 * args.n))
        failures = 0
        for m in _matchings(args.n, seed, 0, args.random):
            osc, _ = matching_to_oscillating(m)
            failures += oscillating_to_matching(osc) != m
        payload = {
            "n": args.n,
            "seed": seed,
            "count": args.random,
            "failures": failures,
            "round_trip": not failures,
        }
        return Report(
            json.dumps(payload),
            [],
            ("n", "seed", "count", "failures"),
            [(args.n, seed, args.random, failures)],
            {f"round trip on {args.random} random matchings at n={args.n}": not failures},
        )

    if args.n is not None or args.seed is not None:
        raise ValueError("--n and --seed apply only to --random")
    m = parse_matching(args.matching)
    trace = BijectionTrace(m)
    tableaux = trace.tableaux  # the trace budget, then one pass that keeps the walk
    osc = trace._walk
    round_trip = oscillating_to_matching(osc) == m
    shapes = str(osc)
    payload = {
        "matching": str(m),
        "shapes": shapes,
        "tableaux": [t.rows for t in tableaux],
        "round_trip": round_trip,
    }
    return Report(
        json.dumps(payload),
        [f"matching: {m}", f"shapes:   {shapes}"],
        ("step", "tableau_rows"),
        # rows joined by "/", entries by spaces; "-" for the empty tableau
        ((i, str(t).replace("\n", "/") or "-") for i, t in enumerate(tableaux)),
        {"round trip": round_trip},
    )


def cmd_clt(args) -> Report:
    r = clt_experiment(args.n, args.samples, args.seed)
    # Each fixed tolerance plus a sampling allowance at B draws under the
    # limit law N(0, 1/6): five standard errors of the sample mean and of
    # the sample variance, and the DKW bound that a correct sampler
    # exceeds with probability at most 1e-6.
    b = r.num_samples
    mean_bound = CLT_MEAN_TOL + 5 * math.sqrt(r.target_var / b)
    var_bound = CLT_VAR_TOL + 5 * r.target_var * math.sqrt(2 / (b - 1))
    ks_bound = CLT_KS_TOL + math.sqrt(math.log(2e6) / (2 * b))
    return Report(
        json.dumps(_rounded(asdict(r))),
        ["Monte Carlo check of W = (D - n)/sqrt(n) against N(0, 1/6)"],
        ("n", "num_samples", "seed", "sample_mean_W", "sample_var_W", "ks_distance"),
        [(r.n, r.num_samples, r.seed, r.sample_mean_W, r.sample_var_W, r.ks_distance)],
        {
            f"|mean W| <= {mean_bound:.4g}": abs(r.sample_mean_W) <= mean_bound,
            f"|var W - 1/6| <= {var_bound:.4g}": abs(r.sample_var_W - r.target_var)
            <= var_bound,
            f"KS distance <= {ks_bound:.4g}": r.ks_distance <= ks_bound,
        },
    )


def _check_increasing(n_list: list[int]) -> None:
    # the convergence checks compare values in the order of n
    if any(a >= b for a, b in zip(n_list, n_list[1:])):
        raise ValueError(
            f"--n must be strictly increasing, got {','.join(map(str, n_list))}"
        )


def _check_resolved(what: str, n_list: list[int], values: list[float], s: float) -> None:
    # two values both at the float floor 0.0 cannot show a decrease in n:
    # the check is beyond float resolution there, not failed
    for (n_a, a), (n_b, b) in pairwise(zip(n_list, values)):
        if a == b == 0.0:
            raise ValueError(
                f"{what} is 0.0 at both n={n_a} and n={n_b} for s={s:g}, "
                "below float resolution"
            )


def cmd_mgf(args) -> Report:
    _check_increasing(args.n)
    # at s = 0 the MGF is 1 at every n, so its error cannot decrease
    if 0 in args.s or len(set(args.s)) < len(args.s):
        listed = ",".join(f"{s:g}" for s in args.s)
        raise ValueError(f"--s must be distinct and nonzero, got {listed}")
    entries = mgf_convergence_report(args.n, args.s)
    decreasing = True
    for s in args.s:
        errs = [e.abs_error for e in entries if e.s == s]
        _check_resolved("abs_error", args.n, errs, s)
        decreasing &= all(a > b for a, b in zip(errs, errs[1:]))
    return Report(
        json.dumps({"entries": [_rounded(e._asdict()) for e in entries]}),
        ["MGF of W = (D - n)/sqrt(n) against its limit exp(s^2/12)"],
        MgfEntry._fields,
        list(entries),
        {"abs_error strictly decreasing in n": decreasing},
    )


def cmd_lemma41(args) -> Report:
    _check_increasing(args.n)
    columns = ("n", "value", "lower_bound", "gap_to_limit")
    rows = []
    for n, value in zip(args.n, _series_factors(args.n, args.s)):
        bound = math.exp(-args.s / math.sqrt(n)) - SERIES_BOUND_SLACK
        rows.append((n, value, bound, abs(value - 1.0)))
    _check_resolved("the series factor", args.n, [row[1] for row in rows], args.s)
    gaps = [row[3] for row in rows]
    decreasing = all(a > b for a, b in zip(gaps, gaps[1:]))
    payload = {
        "s": args.s,
        "rows": [_rounded(dict(zip(columns, row))) for row in rows],
        "gap_strictly_decreasing": decreasing,
    }
    return Report(
        json.dumps(payload),
        [f"series factor of the MGF at s={args.s:g} (limit 1)"],
        columns,
        rows,
        {
            "value >= lower_bound at every n": all(v >= b for _, v, b, _ in rows),
            "gap strictly decreasing in n": decreasing,
        },
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchstat",
        description="Descent statistics of matchings: exact checks and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    count = _numbers(int, 1, math.inf)
    counts = _numbers(int, 1, math.inf, many=True)
    seed = _numbers(int, 0, 2**64)
    real = _numbers(float, -math.inf, math.inf)
    reals = _numbers(float, -math.inf, math.inf, many=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--out", metavar="PATH", default=None)

    p = sub.add_parser("stats", help="closed-form vs brute-force moments")
    p.add_argument("--n", type=count, required=True)
    common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("poly", help="exact descent polynomial, both routes")
    p.add_argument("--n", type=count, required=True)
    common(p)
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("conjugate", help="conjugate matching and identity checks")
    p.add_argument("--matching", required=True, metavar="PAIRS")
    common(p)
    p.set_defaults(func=cmd_conjugate)

    p = sub.add_parser("tableau", help="shape walk, trace, and round trip")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--matching", metavar="PAIRS")
    group.add_argument("--random", type=count, metavar="COUNT")
    p.add_argument("--n", type=count, default=None)
    p.add_argument("--seed", type=seed, default=None)  # 42 with --random
    common(p)
    p.set_defaults(func=cmd_tableau)

    p = sub.add_parser("clt", help="Monte Carlo check of W against N(0, 1/6)")
    p.add_argument("--n", type=count, required=True)
    p.add_argument("--samples", type=count, default=10000)
    p.add_argument("--seed", type=seed, default=42)
    common(p)
    p.set_defaults(func=cmd_clt)

    p = sub.add_parser("mgf", help="MGF convergence to exp(s^2/12)")
    p.add_argument("--n", type=counts, required=True, metavar="N1,N2,...")
    p.add_argument("--s", type=reals, default=[1.0], metavar="S1,S2,...")
    common(p)
    p.set_defaults(func=cmd_mgf)

    p = sub.add_parser("lemma41", help="series factor of the MGF (limit 1)")
    p.add_argument("--n", type=counts, required=True, metavar="N1,N2,...")
    p.add_argument("--s", type=real, default=1.0)
    common(p)
    p.set_defaults(func=cmd_lemma41)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        report = args.func(args)
        text = report.render(args.format)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeError) as exc:
        # a library self-check failed: wrong exact moments, a walk defect
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    return 0 if all(report.checks.values()) else 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
