"""Verification command line: every check as a reproducible subcommand.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage
or input error, 3 computational budget exceeded.  All randomness is
surfaced as an explicit --seed; given identical flags every subcommand
produces identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .bijection import (
    conjugate_matching,
    matching_to_oscillating,
    oscillating_to_matching,
)
from .distribution import (
    ENUMERATION_BUDGET,
    BudgetError,
    clt_experiment,
    mgf_convergence_report,
    mgf_series_factor,
    polynomial_by_enumeration,
    polynomial_by_gf,
)
from .matchings import (
    MomentReport,
    brute_force_moments,
    closed_form_moments,
    compare_reports,
    descent_stats,
    parse_matching,
    sample_uniform,
)

CLT_MEAN_TOL = 0.01
CLT_VAR_TOL = 0.005
CLT_KS_TOL = 0.05
SERIES_BOUND_SLACK = 1e-9


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seed_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return value


def _int_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {text!r}")
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("need positive integers")
    return values


def _float_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of numbers: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("need at least one number")
    return values


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _frac(value: Fraction | None) -> str:
    return "-" if value is None else str(value)


def _report_dict(report: MomentReport) -> dict:
    out = {"n": report.n}
    for name in MomentReport.FIELD_NAMES:
        value = report.value(name)
        out[name] = None if value is None else str(value)
    out["invalid_fields"] = sorted(report.invalid_fields)
    return out


def cmd_stats(args) -> int:
    closed = closed_form_moments(args.n)
    brute = brute_force_moments(args.n) if args.n <= ENUMERATION_BUDGET else None
    verdicts = compare_reports(closed, brute) if brute else {}
    failed = [name for name, ok in verdicts.items() if ok is False]

    if args.format == "json":
        _emit(
            json.dumps(
                {
                    "n": args.n,
                    "closed_form": _report_dict(closed),
                    "brute_force": _report_dict(brute) if brute else None,
                    "verdicts": {
                        k: ("MATCH" if ok else "MISMATCH") if ok is not None else "SKIPPED"
                        for k, ok in verdicts.items()
                    },
                    "all_match": not failed,
                },
                indent=2,
            ),
            args.out,
        )
    elif args.format == "csv":
        lines = ["field,closed_form,brute_force,verdict"]
        for name in MomentReport.FIELD_NAMES:
            ok = verdicts.get(name)
            verdict = "SKIPPED" if ok is None else ("MATCH" if ok else "MISMATCH")
            brute_val = _frac(brute.value(name)) if brute else "-"
            lines.append(f"{name},{_frac(closed.value(name))},{brute_val},{verdict}")
        _emit("\n".join(lines), args.out)
    else:
        width = max(len(name) for name in MomentReport.FIELD_NAMES)
        lines = [f"moment report for n={args.n}"]
        header = f"{'field':<{width}}  {'closed form':>18}  {'brute force':>18}  verdict"
        lines.append(header)
        for name in MomentReport.FIELD_NAMES:
            ok = verdicts.get(name)
            verdict = "SKIPPED" if ok is None else ("MATCH" if ok else "MISMATCH")
            brute_val = _frac(brute.value(name)) if brute else "-"
            lines.append(
                f"{name:<{width}}  {_frac(closed.value(name)):>18}  "
                f"{brute_val:>18}  {verdict}"
            )
        if not brute:
            lines.append(f"(enumeration omitted above n={ENUMERATION_BUDGET})")
        _emit("\n".join(lines), args.out)
    return 1 if failed else 0


def cmd_poly(args) -> int:
    gf = polynomial_by_gf(args.n)
    enum = (
        polynomial_by_enumeration(args.n) if args.n <= ENUMERATION_BUDGET else None
    )
    mismatches = []
    if enum:
        mismatches = [
            m for m, (a, b) in enumerate(zip(gf.coeffs, enum.coeffs)) if a != b
        ]

    if args.format == "csv":
        _emit(gf.to_csv().rstrip("\n"), args.out)
    elif args.format == "json":
        _emit(
            json.dumps(
                {
                    "n": args.n,
                    "total": gf.total(),
                    "coeffs_gf": list(gf.coeffs),
                    "coeffs_enumeration": list(enum.coeffs) if enum else None,
                    "identical": not mismatches if enum else None,
                }
            ),
            args.out,
        )
    else:
        lines = [f"descent polynomial for n={args.n} (total {gf.total()})"]
        lines.append("m,count" if not enum else "m,count_gf,count_enumeration,verdict")
        for m, c in enumerate(gf.coeffs):
            if not c and (not enum or not enum.coeffs[m]):
                continue
            if enum:
                verdict = "MATCH" if c == enum.coeffs[m] else "MISMATCH"
                lines.append(f"{m},{c},{enum.coeffs[m]},{verdict}")
            else:
                lines.append(f"{m},{c}")
        _emit("\n".join(lines), args.out)
    if mismatches:
        print(f"coefficient mismatch at m={mismatches}", file=sys.stderr)
        return 1
    return 0


def cmd_conjugate(args) -> int:
    m = parse_matching(args.matching)
    conj = conjugate_matching(m)
    st, st_conj = descent_stats(m), descent_stats(conj)
    n = m.n
    d_ok = st.descent_number + st_conj.descent_number == 2 * (n + 1)
    maj_ok = st.major_index + st_conj.major_index == 2 * n * n

    if args.format == "json":
        _emit(
            json.dumps(
                {
                    "matching": str(m),
                    "conjugate": str(conj),
                    "d": st.descent_number,
                    "d_conjugate": st_conj.descent_number,
                    "maj": st.major_index,
                    "maj_conjugate": st_conj.major_index,
                    "descent_identity_ok": d_ok,
                    "major_identity_ok": maj_ok,
                }
            ),
            args.out,
        )
    else:
        lines = [
            f"matching:  {m}",
            f"conjugate: {conj}",
            f"descent identity: {st.descent_number} + {st_conj.descent_number} "
            f"= {2 * (n + 1)}  {'PASS' if d_ok else 'FAIL'}",
            f"major identity:   {st.major_index} + {st_conj.major_index} "
            f"= {2 * n * n}  {'PASS' if maj_ok else 'FAIL'}",
        ]
        _emit("\n".join(lines), args.out)
    return 0 if d_ok and maj_ok else 1


def _tableau_lines(m) -> list[str]:
    osc, trace = matching_to_oscillating(m)
    round_trip = oscillating_to_matching(osc) == m
    lines = [f"matching: {m}", f"shapes:   {osc}", "tableaux:"]
    for idx, tab in enumerate(trace.tableaux):
        rendered = str(tab).splitlines() or ["(empty)"]
        lines.append(f"  step {idx}: {rendered[0]}")
        lines.extend(f"          {row}" for row in rendered[1:])
    lines.append(f"round trip: {'PASS' if round_trip else 'FAIL'}")
    return lines, round_trip


def cmd_tableau(args) -> int:
    if args.matching is not None:
        m = parse_matching(args.matching)
        if args.format == "json":
            osc, trace = matching_to_oscillating(m)
            round_trip = oscillating_to_matching(osc) == m
            _emit(
                json.dumps(
                    {
                        "matching": str(m),
                        "shapes": str(osc),
                        "tableaux": [list(map(list, t.rows)) for t in trace.tableaux],
                        "round_trip": round_trip,
                    }
                ),
                args.out,
            )
            return 0 if round_trip else 1
        lines, round_trip = _tableau_lines(m)
        _emit("\n".join(lines), args.out)
        return 0 if round_trip else 1

    failures = 0
    for k in range(args.random):
        m = sample_uniform(args.n, args.seed, stream=k)
        osc, _ = matching_to_oscillating(m)
        if oscillating_to_matching(osc) != m:
            failures += 1
    if args.format == "json":
        _emit(
            json.dumps(
                {
                    "n": args.n,
                    "seed": args.seed,
                    "count": args.random,
                    "failures": failures,
                    "round_trip": not failures,
                }
            ),
            args.out,
        )
    else:
        verdict = "PASS" if not failures else f"FAIL ({failures} of {args.random})"
        _emit(
            f"round trip on {args.random} random matchings at n={args.n}: {verdict}",
            args.out,
        )
    return 0 if not failures else 1


def cmd_clt(args) -> int:
    report = clt_experiment(args.n, args.samples, args.seed)
    mean_ok = abs(report.sample_mean_W) <= CLT_MEAN_TOL
    var_ok = abs(report.sample_var_W - report.target_var) <= CLT_VAR_TOL
    ks_ok = report.ks_distance <= CLT_KS_TOL
    passed = mean_ok and var_ok and ks_ok
    if args.format == "text":
        lines = [
            f"n={report.n} samples={report.num_samples} seed={report.seed}",
            f"sample mean W:     {report.sample_mean_W:+.6f}  "
            f"(|mean| <= {CLT_MEAN_TOL}: {'PASS' if mean_ok else 'FAIL'})",
            f"sample var W:      {report.sample_var_W:.6f}  "
            f"(|var - 1/6| <= {CLT_VAR_TOL}: {'PASS' if var_ok else 'FAIL'})",
            f"KS vs N(0, 1/6):   {report.ks_distance:.6f}  "
            f"(<= {CLT_KS_TOL}: {'PASS' if ks_ok else 'FAIL'})",
        ]
        _emit("\n".join(lines), args.out)
    else:
        _emit(report.to_json(), args.out)
    return 0 if passed else 1


def cmd_mgf(args) -> int:
    report = mgf_convergence_report(args.n, args.s)
    decreasing = True
    for s in args.s:
        errs = [e.abs_error for e in report.entries if e.s == s]
        decreasing &= all(a > b for a, b in zip(errs, errs[1:]))
    if args.format == "text":
        lines = ["n,s,mgf_value,target,abs_error"]
        lines += [
            f"{e.n},{e.s:g},{e.mgf_value:.12g},{e.target:.12g},{e.abs_error:.12g}"
            for e in report.entries
        ]
        lines.append(f"abs_error strictly decreasing in n: {'PASS' if decreasing else 'FAIL'}")
        _emit("\n".join(lines), args.out)
    else:
        _emit(report.to_json(), args.out)
    return 0 if decreasing else 1


def cmd_lemma41(args) -> int:
    rows = []
    ok = True
    for n in args.n:
        value = mgf_series_factor(n, args.s, args.k_max)
        bound = math.exp(-args.s / math.sqrt(n)) - SERIES_BOUND_SLACK
        ok &= value >= bound
        rows.append((n, value, bound, abs(value - 1.0)))
    gaps = [row[3] for row in rows]
    decreasing = all(a > b for a, b in zip(gaps, gaps[1:]))
    ok &= decreasing
    if args.format == "json":
        _emit(
            json.dumps(
                {
                    "s": args.s,
                    "rows": [
                        {
                            "n": n,
                            "value": float(f"{v:.12g}"),
                            "lower_bound": float(f"{b:.12g}"),
                            "gap_to_limit": float(f"{g:.12g}"),
                        }
                        for n, v, b, g in rows
                    ],
                    "gap_strictly_decreasing": decreasing,
                }
            ),
            args.out,
        )
    else:
        lines = [f"series factor of the MGF at s={args.s:g} (limit 1)"]
        lines.append("n,value,lower_bound,gap_to_limit")
        lines += [f"{n},{v:.12g},{b:.12g},{g:.12g}" for n, v, b, g in rows]
        lines.append(f"gap strictly decreasing and bounds hold: {'PASS' if ok else 'FAIL'}")
        _emit("\n".join(lines), args.out)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchstat",
        description="Descent statistics of matchings: exact checks and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("text", "json")):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", metavar="PATH", default=None)

    p = sub.add_parser("stats", help="closed-form vs brute-force moments")
    p.add_argument("--n", type=_positive_int, required=True)
    common(p, ("text", "json", "csv"))
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("poly", help="exact descent polynomial, both routes")
    p.add_argument("--n", type=_positive_int, required=True)
    common(p, ("text", "json", "csv"))
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("conjugate", help="conjugate matching and identity checks")
    p.add_argument("--matching", required=True, metavar="PAIRS")
    common(p)
    p.set_defaults(func=cmd_conjugate)

    p = sub.add_parser("tableau", help="shape walk, trace, and round trip")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--matching", metavar="PAIRS")
    group.add_argument("--random", type=_positive_int, metavar="COUNT")
    p.add_argument("--n", type=_positive_int, default=None)
    p.add_argument("--seed", type=_seed_int, default=42)
    common(p)
    p.set_defaults(func=cmd_tableau)

    p = sub.add_parser("clt", help="Monte Carlo check of W against N(0, 1/6)")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--samples", type=_positive_int, default=10000)
    p.add_argument("--seed", type=_seed_int, default=42)
    common(p)
    p.set_defaults(func=cmd_clt)

    p = sub.add_parser("mgf", help="MGF convergence to exp(s^2/12)")
    p.add_argument("--n", type=_int_list, required=True, metavar="N1,N2,...")
    p.add_argument("--s", type=_float_list, default=[1.0], metavar="S1,S2,...")
    common(p)
    p.set_defaults(func=cmd_mgf)

    p = sub.add_parser("lemma41", help="series factor of the MGF (limit 1)")
    p.add_argument("--n", type=_int_list, required=True, metavar="N1,N2,...")
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--k-max", type=_positive_int, default=None)
    common(p)
    p.set_defaults(func=cmd_lemma41)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if getattr(args, "command", None) == "tableau" and args.random is not None:
        if args.n is None:
            print("--random requires --n", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
