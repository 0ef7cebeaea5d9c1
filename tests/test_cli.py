"""Command-line surface: outputs, verdicts, and exit codes."""

import json
import math
import re
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

from matchstat import (
    brute_force_moments,
    clt_experiment,
    matching_to_oscillating,
    parse_matching,
    polynomial_by_enumeration,
    sample_uniform,
)
from matchstat.cli import (
    CLT_KS_TOL,
    CLT_MEAN_TOL,
    CLT_VAR_TOL,
    SERIES_BOUND_SLACK,
    main,
)
from matchstat.distribution import MgfEntry, _gf_coeffs
from matchstat.matchings import double_factorial


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStats:
    def test_n4_matches(self, capsys):
        code, out, _ = run(capsys, "stats", "--n", "4")
        assert code == 0
        assert "8/7" in out
        assert "MISMATCH" not in out

    def test_n2_mean_maj(self, capsys):
        code, out, _ = run(capsys, "stats", "--n", "2")
        assert code == 0
        assert out.count("4") >= 2  # mean_maj shown in both columns

    def test_n0_usage_error(self, capsys):
        code, _, _ = run(capsys, "stats", "--n", "0")
        assert code == 2

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "stats", "--n", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_match"] is True
        assert payload["closed_form"]["var_d"] == payload["brute_force"]["var_d"]

    def test_json_is_indented_by_two(self, capsys):
        code, out, _ = run(capsys, "stats", "--n", "2", "--format", "json")
        assert code == 0
        assert out.startswith('{\n  "n": 2,\n  "closed_form": {\n    "n": 2,\n')

    def test_large_n_omits_brute_force(self, capsys):
        code, out, _ = run(capsys, "stats", "--n", "9")
        assert code == 0
        assert "omitted" in out

    def test_enumerates_at_the_enumeration_budget(self, capsys):
        # n = 6 is the largest n enumerated, so its report still checks
        code, out, _ = run(capsys, "stats", "--n", "6", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["brute_force"] is not None
        assert payload["all_match"] is True

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "stats", "--n", "4", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "field,closed_form,brute_force,verdict"


class TestPoly:
    def test_n2_rows(self, capsys):
        code, out, _ = run(capsys, "poly", "--n", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["m,count", "1,1", "2,1", "3,1"]

    def test_n1(self, capsys):
        code, out, _ = run(capsys, "poly", "--n", "1", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["m,count", "1,1"]

    def test_n6_total(self, capsys):
        code, out, _ = run(capsys, "poly", "--n", "6")
        assert code == 0
        assert "10395" in out
        assert "MISMATCH" not in out

    def test_above_enumeration_budget_still_works(self, capsys):
        code, out, _ = run(capsys, "poly", "--n", "8", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["coeffs_enumeration"] is None
        assert sum(payload["coeffs_gf"]) == payload["total"]

    def test_enumerates_at_the_enumeration_budget(self, capsys):
        code, out, _ = run(capsys, "poly", "--n", "6", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["coeffs_enumeration"] == payload["coeffs_gf"]
        assert payload["identical"] is True

    def test_unknown_flag_rejected(self, capsys):
        code, _, _ = run(capsys, "poly", "--n", "2", "--frobnicate")
        assert code == 2

    def test_failed_moment_check_exits_1(self, capsys, monkeypatch):
        # a wrong (2n-1)!! makes the library's moment check raise
        # ArithmeticError inside the command
        monkeypatch.setattr(
            "matchstat.distribution.double_factorial",
            lambda m: double_factorial(m) + 2,
        )
        _gf_coeffs.cache_clear()
        code, out, err = run(capsys, "poly", "--n", "7")
        assert code == 1 and out == ""
        assert err.startswith("verification failed: ") and "Traceback" not in err


class TestConjugate:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "conjugate", "--matching", "1-4,2-3,5-6")
        assert code == 0
        assert "1-3,2-4,5-6" in out
        assert "5 + 3 = 8" in out
        assert "11 + 7 = 18" in out
        assert "FAIL" not in out

    def test_single_pair(self, capsys):
        code, out, _ = run(capsys, "conjugate", "--matching", "1-2")
        assert code == 0
        assert "2 + 2 = 4" in out
        assert "1 + 1 = 2" in out

    def test_malformed_matching(self, capsys):
        code, _, err = run(capsys, "conjugate", "--matching", "1-1")
        assert code == 2
        assert "1" in err

    def test_walk_defect_exits_1(self, capsys, monkeypatch):
        def defect(m):
            raise RuntimeError("defect: walk inversion left a nonempty tableau")

        monkeypatch.setattr("matchstat.cli.conjugate_matching", defect)
        code, out, err = run(capsys, "conjugate", "--matching", "1-4,2-3,5-6")
        assert code == 1 and out == ""
        assert err == "verification failed: defect: walk inversion left a nonempty tableau\n"

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "conjugate", "--matching", "1-4,2-3,5-6", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["conjugate"] == "1-3,2-4,5-6"
        assert payload["descent_identity_ok"] and payload["major_identity_ok"]


class TestTableau:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "tableau", "--matching", "1-4,2-3,5-6")
        assert code == 0
        assert "();(1);(1,1);(1);();(1);()" in out
        assert "PASS" in out

    def test_single_pair(self, capsys):
        code, out, _ = run(capsys, "tableau", "--matching", "1-2")
        assert code == 0
        assert "();(1);()" in out

    def test_random_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "tableau", "--random", "100", "--n", "50", "--seed", "7"
        )
        assert code == 0
        assert "PASS" in out

    def test_random_checks_streams_from_zero(self, capsys, monkeypatch):
        checked = []

        def forward(m):
            checked.append(m)
            return matching_to_oscillating(m)

        monkeypatch.setattr("matchstat.cli.matching_to_oscillating", forward)
        code, _, _ = run(capsys, "tableau", "--random", "3", "--n", "5", "--seed", "9")
        assert code == 0
        assert checked == [sample_uniform(5, 9, stream=k) for k in range(3)]

    def test_random_json(self, capsys):
        code, out, _ = run(
            capsys, "tableau", "--random", "3", "--n", "5", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {
            "n": 5,
            "seed": 42,
            "count": 3,
            "failures": 0,
            "round_trip": True,
        }

    def test_draw_budget_checked_before_any_draw(self, capsys, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a matching was drawn")

        monkeypatch.setattr("matchstat.cli._matchings", no_draw)
        code, out, err = run(capsys, "tableau", "--random", "2000", "--n", "50")
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and "draw cost=327680000 exceeds" in err

    def test_trace_budget_checked_before_the_inverse(self, capsys, monkeypatch):
        def no_inverse(*args, **kwargs):
            raise AssertionError("the walk was inverted")

        monkeypatch.setattr("matchstat.cli.oscillating_to_matching", no_inverse)
        code, out, err = run(capsys, "tableau", "--matching", WIDE_TRACE)
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and f"trace cells={1449**2} exceeds" in err

    def test_trace_budget_checked_before_the_forward_map(self, capsys, monkeypatch):
        def no_walk(*args, **kwargs):
            raise AssertionError("the forward map ran")

        monkeypatch.setattr("matchstat.cli.matching_to_oscillating", no_walk)
        monkeypatch.setattr("matchstat.bijection._walk", no_walk)
        code, out, err = run(capsys, "tableau", "--matching", WIDE_TRACE)
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and f"trace cells={1449**2} exceeds" in err

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_forward_map_runs_once(self, capsys, monkeypatch, fmt):
        import matchstat.bijection as bijection

        calls = {"_insert": 0, "_slide": 0}
        for name in calls:

            def counted(*args, _op=getattr(bijection, name), _name=name):
                calls[_name] += 1
                return _op(*args)

            monkeypatch.setattr(bijection, name, counted)
        m = sample_uniform(50, 11, stream=0)
        code, _, _ = run(capsys, "tableau", "--matching", str(m), "--format", fmt)
        assert code == 0
        assert calls == {"_insert": 50, "_slide": 50}

    @pytest.mark.parametrize("flag", [["--seed", "5"], ["--n", "9"]])
    def test_matching_refuses_random_flags(self, capsys, flag):
        code, out, err = run(capsys, "tableau", "--matching", "1-2", *flag)
        assert code == 2 and out == ""
        assert err == "error: --n and --seed apply only to --random\n"

    def test_random_requires_n(self, capsys):
        code, _, _ = run(capsys, "tableau", "--random", "5")
        assert code == 2

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "tableau", "--matching", "1-2,3-4", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["round_trip"] is True
        assert payload["tableaux"][0] == []

    @pytest.mark.parametrize(
        "fmt, expected",
        [
            (
                "text",
                "matching: 1-4,2-3,5-6\nshapes:   ();(1);(1,1);(1);();(1);()\n"
                "step,tableau_rows\n0,-\n1,4\n2,3/4\n3,4\n4,-\n5,6\n6,-\n"
                "round trip: PASS\n",
            ),
            (
                "json",
                '{"matching": "1-4,2-3,5-6", "shapes": "();(1);(1,1);(1);();(1);()", '
                '"tableaux": [[], [[4]], [[3], [4]], [[4]], [], [[6]], []], '
                '"round_trip": true}\n',
            ),
            ("csv", "step,tableau_rows\n0,-\n1,4\n2,3/4\n3,4\n4,-\n5,6\n6,-\n"),
        ],
    )
    def test_worked_example_output(self, capsys, fmt, expected):
        code, out, err = run(
            capsys, "tableau", "--matching", "1-4,2-3,5-6", "--format", fmt
        )
        assert (code, out, err) == (0, expected, "")

    def test_json_and_csv_hold_the_same_tableaux(self, capsys):
        m = sample_uniform(50, 11, stream=0)
        _, out, _ = run(capsys, "tableau", "--matching", str(m), "--format", "json")
        tableaux = json.loads(out)["tableaux"]
        _, out, _ = run(capsys, "tableau", "--matching", str(m), "--format", "csv")
        header, *lines = out.splitlines()
        assert header == "step,tableau_rows"
        from_csv = []
        for step, line in enumerate(lines):
            index, rows = line.split(",")
            assert int(index) == step
            cells = [] if rows == "-" else rows.split("/")
            from_csv.append([list(map(int, r.split())) for r in cells])
        assert from_csv == tableaux
        assert len(tableaux) == 101 and tableaux[0] == tableaux[-1] == []
        trace = matching_to_oscillating(m)[1]
        assert tableaux == [[list(row) for row in t.rows] for t in trace.tableaux]


class TestClt:
    def test_degenerate_fails_thresholds(self, capsys):
        # at n=1 the variance is 0, far from 1/6, so the verdict is FAIL
        code, out, _ = run(capsys, "clt", "--n", "1", "--samples", "100")
        assert code == 1
        assert "FAIL" in out

    def test_bounds_scale_with_samples(self, capsys):
        # at B = 2000 the variance allows 0.005 + 5 (1/6) sqrt(2/1999)
        code, out, _ = run(
            capsys, "clt", "--n", "1000", "--samples", "2000", "--seed", "42"
        )
        assert code == 0
        assert "|mean W| <= 0.05564: PASS" in out
        assert "|var W - 1/6| <= 0.03136: PASS" in out
        assert "KS distance <= 0.1102: PASS" in out

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys,
            "clt",
            "--n",
            "50",
            "--samples",
            "400",
            "--seed",
            "3",
            "--format",
            "json",
        )
        payload = json.loads(out)
        assert set(payload) == {
            "n",
            "num_samples",
            "seed",
            "sample_mean_W",
            "sample_var_W",
            "ks_distance",
            "target_var",
        }
        assert payload["n"] == 50 and payload["num_samples"] == 400
        assert payload["target_var"] == pytest.approx(1 / 6, rel=1e-11)
        assert code in (0, 1)

    def test_usage_errors(self, capsys):
        assert run(capsys, "clt", "--n", "0")[0] == 2
        assert run(capsys, "clt", "--n", "5", "--samples", "-3")[0] == 2
        assert run(capsys, "clt", "--n", "5", "--seed", "-1")[0] == 2

    def test_sample_count_limit(self, capsys):
        # a single sample has no variance: a usage error, not a failed check
        code, out, err = run(capsys, "clt", "--n", "5", "--samples", "1")
        assert code == 2 and out == ""
        assert "num_samples must be >= 2" in err
        assert run(capsys, "clt", "--n", "5", "--samples", "2")[0] in (0, 1)

    @pytest.mark.parametrize("value", ["many", "0", "-2"])
    def test_bad_thread_env_is_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("MATCHSTAT_THREADS", value)
        code, _, err = run(capsys, "clt", "--n", "5", "--samples", "10")
        assert code == 2
        assert "MATCHSTAT_THREADS" in err


class TestMgf:
    def test_decreasing_error(self, capsys):
        code, out, _ = run(capsys, "mgf", "--n", "10,100", "--s", "1")
        assert code == 0
        assert "PASS" in out

    def test_budget_exceeded(self, capsys):
        code, _, err = run(capsys, "mgf", "--n", "1001", "--s", "1")
        assert code == 3
        assert "n=1001" in err

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "mgf", "--n", "10,50", "--s", "1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["entries"]) == 2
        for entry in payload["entries"]:
            assert set(entry) == {"n", "s", "mgf_value", "target", "abs_error"}

    def test_negative_s_list_after_equals_sign(self, capsys):
        # "--s -1,1" is taken for an option by argparse; "--s=-1,1" is not
        code, out, _ = run(
            capsys, "mgf", "--n", "10,100", "--s=-1,1", "--format", "json"
        )
        assert code == 0
        entries = json.loads(out)["entries"]
        assert [(e["n"], e["s"]) for e in entries] == [
            (10, -1.0), (10, 1.0), (100, -1.0), (100, 1.0)
        ]
        assert entries[0]["mgf_value"] == entries[1]["mgf_value"]
        assert entries[2]["mgf_value"] == entries[3]["mgf_value"]

    def test_errors_at_the_float_floor(self, capsys):
        # every abs_error rounds to 0.0, so no decrease in n can show
        code, out, err = run(capsys, "mgf", "--n", "10,100,400", "--s", "1e-9")
        assert code == 2 and out == ""
        assert err == (
            "error: abs_error is 0.0 at both n=10 and n=100 for s=1e-09,"
            " below float resolution\n"
        )
        # one n compares nothing
        assert run(capsys, "mgf", "--n", "10", "--s", "1e-9")[0] == 0

    def test_equal_errors_are_not_a_decrease(self, capsys, monkeypatch):
        entries = (MgfEntry(10, 1.0, 1.5, 1.0, 0.5), MgfEntry(100, 1.0, 1.5, 1.0, 0.5))
        monkeypatch.setattr(
            "matchstat.cli.mgf_convergence_report", lambda n_list, s_list: entries
        )
        code, out, _ = run(capsys, "mgf", "--n", "10,100", "--s", "1")
        assert code == 1
        assert "abs_error strictly decreasing in n: FAIL" in out


class TestLemma41:
    def test_convergence(self, capsys):
        code, out, _ = run(capsys, "lemma41", "--n", "25,100", "--s", "1")
        assert code == 0
        assert "PASS" in out

    def test_rising_gap_fails(self, capsys):
        # the gaps are 0.4565 at n = 1 and 0.5068 at n = 2
        code, out, _ = run(capsys, "lemma41", "--n", "1,2")
        assert code == 1
        assert "gap strictly decreasing in n: FAIL" in out

    def test_rejects_nonpositive_s(self, capsys):
        code, _, _ = run(capsys, "lemma41", "--n", "25", "--s", "-1")
        assert code == 2

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "lemma41", "--n", "25,100", "--s", "1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["gap_strictly_decreasing"] is True
        assert len(payload["rows"]) == 2

    def test_json_rounds_s_as_every_real(self, capsys):
        code, out, _ = run(
            capsys, "lemma41", "--n", "25,100", "--s", "0.12345678901234567",
            "--format", "json",
        )
        assert code == 0
        assert out.startswith('{"s": 0.123456789012, "rows": ')
        code, out, err = run(capsys, "lemma41", "--n", "25,100,400", "--format", "json")
        assert (code, out, err) == (
            0,
            '{"s": 1.0, "rows": [{"n": 25, "value": 1.11593779683, '
            '"lower_bound": 0.818730752078, "gap_to_limit": 0.11593779683}, '
            '{"n": 100, "value": 1.05388272391, "lower_bound": 0.904837417036, '
            '"gap_to_limit": 0.0538827239132}, {"n": 400, "value": 1.02595493931, '
            '"lower_bound": 0.951229423501, "gap_to_limit": 0.0259549393101}], '
            '"gap_strictly_decreasing": true}\n',
            "",
        )

    def test_overflow_names_n_and_s(self, capsys):
        code, out, err = run(capsys, "lemma41", "--n", "345", "--s", "1000")
        assert code == 2 and out == ""
        assert err == (
            "error: exp overflow evaluating the series factor at n=345, s=1000.0\n"
        )

    def test_factors_at_the_float_floor(self, capsys):
        # both factors underflow to 0.0, so both gaps read exactly 1
        code, out, err = run(capsys, "lemma41", "--n", "4,63", "--s", "1e300")
        assert code == 2 and out == ""
        assert err == (
            "error: the series factor is 0.0 at both n=4 and n=63 for s=1e+300,"
            " below float resolution\n"
        )
        # one n compares nothing
        assert run(capsys, "lemma41", "--n", "4", "--s", "1e300")[0] == 0


class TestPlumbing:
    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "poly.csv"
        code, out, _ = run(
            capsys, "poly", "--n", "2", "--format", "csv", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text().splitlines()[0] == "m,count"

    def test_missing_subcommand(self, capsys):
        assert run(capsys)[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_determinism(self, capsys):
        first = run(capsys, "clt", "--n", "20", "--samples", "200", "--seed", "5")
        second = run(capsys, "clt", "--n", "20", "--samples", "200", "--seed", "5")
        assert first == second


def _clt_with(**fields):
    return lambda n, samples, seed: replace(clt_experiment(n, samples, seed), **fields)


def _first_coefficient_plus_one(n):
    p = polynomial_by_enumeration(n)
    return replace(p, coeffs=(p.coeffs[0] + 1, *p.coeffs[1:]))


CLT_ARGV = ["clt", "--n", "1000", "--samples", "2000", "--seed", "42"]
WORKED = "1-4,2-3,5-6"  # d = 5 and maj = 11; its conjugate has d = 3 and maj = 7

#: One verdict line per row, broken alone by replacing the name cli.py
#: imports: (name, replacement, argv, the line that must read FAIL).
BROKEN_CHECKS = [
    (
        "brute_force_moments",
        lambda n: replace(brute_force_moments(n), mean_d=Fraction(0)),
        ["stats", "--n", "4"],
        "closed forms match enumeration",
    ),
    (
        "polynomial_by_enumeration",
        _first_coefficient_plus_one,
        ["poly", "--n", "3"],
        "coefficients match enumeration",
    ),
    (
        "conjugate_matching",  # d = 4, maj = 7
        lambda m: parse_matching("1-5,2-3,4-6"),
        ["conjugate", "--matching", WORKED],
        "descent identity 5 + 4 = 8",
    ),
    (
        "conjugate_matching",  # d = 3, maj = 6
        lambda m: parse_matching("1-3,2-5,4-6"),
        ["conjugate", "--matching", WORKED],
        "major identity 11 + 6 = 18",
    ),
    (
        "oscillating_to_matching",
        lambda osc: parse_matching("1-2"),
        ["tableau", "--matching", WORKED],
        "round trip",
    ),
    (
        "oscillating_to_matching",
        lambda osc: parse_matching("1-2"),
        ["tableau", "--random", "3", "--n", "5"],
        "round trip on 3 random matchings at n=5",
    ),
    ("clt_experiment", _clt_with(sample_mean_W=0.06), CLT_ARGV, "|mean W| <= 0.05564"),
    (
        "clt_experiment",
        _clt_with(sample_var_W=0.2),
        CLT_ARGV,
        "|var W - 1/6| <= 0.03136",
    ),
    ("clt_experiment", _clt_with(ks_distance=0.12), CLT_ARGV, "KS distance <= 0.1102"),
    (
        "_series_factors",  # equal gaps, both values above their bounds
        lambda n_list, s: [0.95, 0.95],
        ["lemma41", "--n", "25,100"],
        "gap strictly decreasing in n",
    ),
    (
        "_series_factors",  # the gaps 0.5, 0.4, 0.3 still fall
        lambda n_list, s: [0.5, 0.6, 0.7],
        ["lemma41", "--n", "25,100,400"],
        "value >= lower_bound at every n",
    ),
]


@pytest.mark.parametrize(
    "name,fake,argv,line", BROKEN_CHECKS, ids=[row[3] for row in BROKEN_CHECKS]
)
def test_each_verdict_can_fail_alone(capsys, monkeypatch, name, fake, argv, line):
    monkeypatch.setattr(f"matchstat.cli.{name}", fake)
    code, out, err = run(capsys, *argv)
    verdicts = re.findall(r"^(.+): (PASS|FAIL)$", out, re.M)
    assert code == 1 and err == ""
    assert (line, "FAIL") in verdicts
    assert all(ok == "PASS" for check, ok in verdicts if check != line)


def _on_the_bounds(n, samples, seed):
    # with target_var 0 the mean and variance bounds are CLT_MEAN_TOL and
    # CLT_VAR_TOL exactly
    ks_bound = CLT_KS_TOL + math.sqrt(math.log(2e6) / (2 * samples))
    return replace(
        clt_experiment(n, samples, seed),
        target_var=0.0,
        sample_mean_W=-CLT_MEAN_TOL,
        sample_var_W=CLT_VAR_TOL,
        ks_distance=ks_bound,
    )


ON_THE_BOUNDS = [
    ("clt_experiment", _on_the_bounds, CLT_ARGV),
    (
        "_series_factors",
        lambda n_list, s: [
            math.exp(-s / math.sqrt(n)) - SERIES_BOUND_SLACK for n in n_list
        ],
        ["lemma41", "--n", "25,100"],
    ),
]


@pytest.mark.parametrize("name,fake,argv", ON_THE_BOUNDS, ids=["clt", "lemma41"])
def test_values_on_their_bounds_pass(capsys, monkeypatch, name, fake, argv):
    monkeypatch.setattr(f"matchstat.cli.{name}", fake)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "FAIL" not in out


# Every command, small inputs, with the header its csv output must start with.
CONTRACT = [
    (["stats", "--n", "4"], "field,closed_form,brute_force,verdict"),
    (["poly", "--n", "3"], "m,count"),
    (["conjugate", "--matching", "1-4,2-3,5-6"], "statistic,matching,conjugate"),
    (["tableau", "--matching", "1-4,2-3,5-6"], "step,tableau_rows"),
    (["tableau", "--random", "3", "--n", "5"], "n,seed,count,failures"),
    (
        ["clt", "--n", "10", "--samples", "50"],
        "n,num_samples,seed,sample_mean_W,sample_var_W,ks_distance",
    ),
    (["mgf", "--n", "10,50", "--s", "1,2"], "n,s,mgf_value,target,abs_error"),
    (["lemma41", "--n", "25,100"], "n,value,lower_bound,gap_to_limit"),
]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("argv,header", CONTRACT, ids=[" ".join(a) for a, _ in CONTRACT])
def test_every_command_renders_every_format(capsys, argv, header, fmt):
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code in (0, 1) and err == ""
    if fmt == "json":
        json.loads(out)
    elif fmt == "csv":
        lines = out.splitlines()
        assert lines[0] == header
        assert all(line.count(",") == header.count(",") for line in lines)
    else:
        verdicts = re.findall(r"^.+: (PASS|FAIL)$", out, re.M)
        assert verdicts
        assert code == (1 if "FAIL" in verdicts else 0)


#: 1449 openers, then their closers in shuffled order: 1449^2 trace cells,
#: just past the trace budget, while each step stays short.
WIDE_TRACE = ",".join(
    f"{i}-{j}" for i, j in enumerate(Random(0).sample(range(1450, 2899), 1449), start=1)
)

#: Pairs (i, 2n+1-i) at n = 2896: a walk down one column of n rows and
#: back, costing n^2 + 2n, the first nested matching past the walk budget.
NESTED_WALK = ",".join(f"{i}-{2 * 2896 + 1 - i}" for i in range(1, 2897))

#: Every n from 1 to 1000: each is admitted alone, the list is not.
MGF_LIST = ",".join(map(str, range(1, 1001)))

#: 18000 values of s, each admitted alone at n = 1000, the list not.
MGF_S_LIST = ",".join(f"{k / 10000:g}" for k in range(1, 18001))

#: Every n from 1 to 9897: each is admitted alone, the list is not.
LEMMA41_LIST = ",".join(map(str, range(1, 9898)))

#: 15 values from n = 8592 at s = 1, each admitted alone at about 2^21
#: terms: the second value's pass of 2^21 terms is over the series budget.
LEMMA41_LATE = ",".join(map(str, range(8592, 9951, 97)))

# Inputs that must end in a usage error (2) or a budget error (3), never a traceback.
BAD_INPUTS = [
    (["mgf", "--n", "10", "--s", "1e6"], 2),  # exp overflows
    (["mgf", "--n", "10", "--s", "nan"], 2),
    (["mgf", "--n", "10", "--s", "1,inf"], 2),
    (["mgf", "--n", "10,", "--s", "1"], 2),
    # a convergence check needs n strictly increasing and distinct nonzero s
    (["mgf", "--n", "100,10"], 2),
    (["mgf", "--n", "10,10"], 2),
    (["mgf", "--n", "10", "--s", "1,1"], 2),
    (["mgf", "--n", "10,100", "--s", "0"], 2),
    (["mgf", "--n", "10,100,400", "--s", "1e-9"], 2),  # abs_errors all 0.0
    (["lemma41", "--n", "400,100,25"], 2),
    (["lemma41", "--n", "25", "--s", "nan"], 2),
    (["lemma41", "--n", "25", "--s", "inf"], 2),
    (["lemma41", "--n", "25", "--s", "-1"], 2),
    (["lemma41", "--n", "25", "--k-max", "8"], 2),
    (["lemma41", "--n", "2000,5000", "--s", "1e4"], 2),  # exp overflows
    (["lemma41", "--n", "4,63", "--s", "1e300"], 2),  # factors underflow to 0.0
    (["stats", "--n", "0"], 2),
    (["poly", "--n", "2", "--frobnicate"], 2),
    (["conjugate", "--matching", "1-1"], 2),
    (["tableau", "--random", "5"], 2),
    (["tableau", "--matching", "1-2", "--seed", "5"], 2),  # --seed and --n
    (["tableau", "--matching", "1-2", "--n", "9"], 2),  # apply only to --random
    (["clt", "--n", "5", "--samples", "1"], 2),
    (["clt", "--n", "5", "--seed", "18446744073709551616"], 2),
    # a flag's range is a usage error, refused before any budget
    (["clt", "--n", "1048577", "--seed=-1"], 2),
    (["tableau", "--random", "1", "--n", "1048577", "--seed=-1"], 2),
    ([], 2),
    (["poly", "--n", "1001"], 3),
    (["mgf", "--n", "1001", "--s", "1"], 3),
    (["mgf", "--n", MGF_LIST], 3),
    (["mgf", "--n", "1000", "--s", MGF_S_LIST], 3),
    (["lemma41", "--n", LEMMA41_LIST], 3),
    (["lemma41", "--n", LEMMA41_LATE], 3),
    (["lemma41", "--n", "300000"], 3),
    (["clt", "--n", "2000000"], 3),
    (["tableau", "--random", "1", "--n", "2000000"], 3),
    (["clt", "--n", "1", "--samples", "1000000000000"], 3),
    (["clt", "--n", "512", "--samples", "262145"], 3),
    (["tableau", "--random", "1000000000", "--n", "1"], 3),
    (["tableau", "--random", "1", "--n", "40000"], 3),
    (["tableau", "--matching", WIDE_TRACE], 3),
    (["conjugate", "--matching", NESTED_WALK], 3),
]


@pytest.mark.parametrize(
    "argv,expected",
    BAD_INPUTS,
    ids=[
        " ".join(a)
        .replace(WIDE_TRACE, "WIDE_TRACE")
        .replace(NESTED_WALK, "NESTED_WALK")
        .replace(LEMMA41_LIST, "LEMMA41_LIST")
        .replace(MGF_LIST, "MGF_LIST")
        .replace(MGF_S_LIST, "MGF_S_LIST")
        .replace(LEMMA41_LATE, "LEMMA41_LATE")
        or "(none)"
        for a, _ in BAD_INPUTS
    ],
)
def test_bad_input_exit_code(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert code == expected
    assert out == "" and err and "Traceback" not in err


def test_unwritable_out_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, "stats", "--n", "4", "--out", str(target))
    assert code == 2 and out == ""
    assert "No such file" in err and "Traceback" not in err
