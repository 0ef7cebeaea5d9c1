"""Exact descent polynomials, MGF/KS diagnostics, and the sampler experiment."""

import hashlib
import json
import math
import os
import re
import tracemalloc
import warnings
from dataclasses import asdict
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import accumulate
from random import Random

import numpy as np
import pytest

from matchstat import (
    BudgetError,
    DescentPolynomial,
    brute_force_moments,
    closed_form_moments,
    clt_experiment,
    descent_stats,
    double_factorial,
    enumerate_matchings,
    exact_distribution,
    exact_ks_distance,
    mgf_convergence_report,
    mgf_series_factor,
    mgf_Wn,
    polynomial_by_enumeration,
    polynomial_by_gf,
    sample_uniform,
)
from matchstat import distribution
from matchstat.cli import main
from matchstat.distribution import (
    _check_moments,
    _descent_counts_range,
    _difference,
    _normal_cdf,
    _resolve_workers,
    _series_factors,
    _stirling_tail,
)
from matchstat.matchings import _STREAM_BLOCK

from gf_oracle import gf_coefficient
from moment_oracle import central_moment, raw_moments
from walk_oracle import closed_walk_descents


class TestPolynomials:
    def test_enumeration_n1(self):
        assert polynomial_by_enumeration(1).coeffs == (0, 1)

    def test_enumeration_n2(self):
        assert polynomial_by_enumeration(2).coeffs == (0, 1, 1, 1)

    def test_enumeration_n4(self):
        poly = polynomial_by_enumeration(4)
        assert poly.total() == 105
        assert all(poly.coeffs[m] == poly.coeffs[8 - m] for m in range(1, 8))

    def test_gf_small(self):
        assert polynomial_by_gf(1).coeffs == (0, 1)
        assert polynomial_by_gf(2).coeffs == (0, 1, 1, 1)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_gf_matches_enumeration(self, n):
        assert polynomial_by_gf(n).coeffs == polynomial_by_enumeration(n).coeffs

    def test_gf_matches_direct_convolution(self):
        for n in range(1, 41):
            coeffs = polynomial_by_gf(n).coeffs
            assert list(coeffs) == [gf_coefficient(n, m) for m in range(2 * n)]

    # sha256 of repr(coeffs), computed by differencing all 2n+2 degrees
    @pytest.mark.parametrize(
        "n,digest",
        [
            (100, "51442681d5dce71be7bda847ddb8752e3e55e1de48006b1ee0ddb6cb05f7f6bc"),
            (345, "2fde3de115e80b9000f406900725fadd161a311854c108691241c26e03095c78"),
            (500, "6dbd047021b3f99a98e5282019a9d452daf40460d9828da7a31dd873dccfb26c"),
        ],
    )
    def test_gf_digest(self, n, digest):
        coeffs = polynomial_by_gf(n).coeffs
        assert hashlib.sha256(repr(coeffs).encode()).hexdigest() == digest

    # sha256 of repr(coeffs), computed by big-int differencing of degrees 0..n
    def test_gf_digest_n1000(self, coeffs_1000):
        digest = hashlib.sha256(repr(coeffs_1000).encode()).hexdigest()
        assert digest == (
            "973f218254a1177213cde7fd740233f953c3585fa3d312ec2547fccf4426670b"
        )

    def test_fourth_moment_conjecture(self, coeffs_1000):
        # A conjecture, fitted at n = 2..6 and not derived: the central
        # fourth moment of the descent count is
        # (5n^4 + 24n^3 - 26n^2 - 111n + 84) / (15 (2n-1)(2n-3)) for n >= 2,
        # which makes kappa_4(D)/n tend to -1/60.
        def fitted(n):
            top = 5 * n**4 + 24 * n**3 - 26 * n**2 - 111 * n + 84
            return Fraction(top, 15 * (2 * n - 1) * (2 * n - 3))

        def exact(n, coeffs):
            fourth = sum((m - n) ** 4 * c for m, c in enumerate(coeffs))
            return Fraction(fourth, double_factorial(2 * n - 1))

        for n in range(2, 201):
            assert exact(n, polynomial_by_gf(n).coeffs) == fitted(n)
        assert exact(1000, coeffs_1000) == fitted(1000)

    @pytest.mark.parametrize("n", [*range(3, 40), 200])
    def test_moment_recursion_matches_coefficients(self, n):
        coeffs = polynomial_by_gf(n).coeffs
        total = double_factorial(2 * n - 1)
        expected = [
            Fraction(sum(m**r * c for m, c in enumerate(coeffs)), total)
            for r in range(7)
        ]
        assert raw_moments(n, 6) == expected

    def test_fourth_and_sixth_moments_proven(self):
        # For fixed r the recursion's a_r, e_j(1..2n), e_i(0..n-1) and
        # binomials are polynomials in n, so by induction mu'_r L_r, with
        # L_r = prod_{i<=r} (2n)(2n-1)...(2n-i+1), is a polynomial in n;
        # as 0 <= D < 2n it is O(n^(r + r(r+1)/2)), which bounds its degree.
        # So is the central moment's.  Each closed form P/Q below has Q
        # dividing L_r, so (mu_r - P/Q) L_r is a polynomial of degree at
        # most 14 for r = 4 and 27 for r = 6: vanishing at 38 or more n, it
        # is zero, and the closed form holds at every n with 2n >= r.
        def mu4(n):
            top = 5 * n**4 + 24 * n**3 - 26 * n**2 - 111 * n + 84
            return Fraction(top, 15 * (2 * n - 1) * (2 * n - 3))

        def mu6(n):
            top = (
                35 * n**6 + 189 * n**5 - 388 * n**4 - 2067 * n**3
                + 1316 * n**2 + 4911 * n - 2340
            )
            return Fraction(top, 63 * (2 * n - 5) * (2 * n - 3) * (2 * n - 1))

        for n in range(2, 41):
            assert central_moment(n, 4) == mu4(n)
            assert central_moment(n, 3) == 0
            assert central_moment(n, 2) == closed_form_moments(n).var_d
        for n in range(3, 41):
            assert central_moment(n, 6) == mu6(n)

    def test_moment_checks_reject_wrong_tuples(self):
        n = 6
        total = double_factorial(2 * n - 1)
        good = list(polynomial_by_gf(n).coeffs)
        _check_moments(n, good, total)

        def moved(changes):
            out = good.copy()
            for m, delta in changes:
                out[m] += delta
            return out

        wrong = {
            "sum to": moved([(3, 1)]),
            "mean": moved([(3, -1), (4, 1)]),
            "variance": moved([(n, -2), (n - 1, 1), (n + 1, 1)]),
            "fourth central moment": moved(
                [(n - 2, 1), (n - 1, -4), (n, 6), (n + 1, -4), (n + 2, 1)]
            ),
        }
        for message, coeffs in wrong.items():
            with pytest.raises(ArithmeticError, match=message):
                _check_moments(n, coeffs, total)
        # n = 2 is the least n with a fourth-moment test; there a third
        # difference keeps the count, mean and variance
        two = [c + d for c, d in zip(polynomial_by_gf(2).coeffs, (-1, 3, -3, 1))]
        with pytest.raises(ArithmeticError, match="fourth central moment"):
            _check_moments(2, two, 3)

    def test_high_degree_coefficients_vanish(self):
        for n in range(1, 41):
            assert gf_coefficient(n, 2 * n) == 0
            assert gf_coefficient(n, 2 * n + 1) == 0
            assert gf_coefficient(n, 2 * n - 1) >= 1

    def test_normalization(self):
        for n in (3, 7, 12):
            assert polynomial_by_gf(n).total() == double_factorial(2 * n - 1)

    def test_enumeration_budget(self):
        with pytest.raises(BudgetError, match="n=7"):
            polynomial_by_enumeration(7)

    def test_coefficient_budget(self):
        with pytest.raises(BudgetError, match="n=1001"):
            polynomial_by_gf(1001)
        with pytest.raises(BudgetError, match="n=1001"):
            exact_distribution(1001)

    def test_budget_precedes_double_factorial(self, monkeypatch):
        # (2n-1)!! at n = 10**7 has about 6.6e7 digits; the budget must
        # refuse n before it is built
        def no_double_factorial(*args):
            raise AssertionError("(2n-1)!! was built")

        monkeypatch.setattr(
            "matchstat.distribution.double_factorial", no_double_factorial
        )
        n = 10**7
        with pytest.raises(BudgetError, match=f"n={n}"):
            exact_distribution(n)
        with pytest.raises(BudgetError, match=f"n={n}"):
            exact_ks_distance(n)
        with pytest.raises(BudgetError, match=f"n={n}"):
            mgf_Wn(n, 1.0)

    def test_coefficient_length_check(self):
        with pytest.raises(ValueError):
            DescentPolynomial(2, (0, 1, 1))


class TestLimbDifferencing:
    """_difference on its own, against plain big-int differencing.

    g is built from known results c by prefix-summing (the inverse of one
    difference pass) ``passes`` times.  Each pass can double a limb, so
    the pass counts straddle the carry interval of 29 passes, and 40 rows
    give the binomial growth room to overflow int64 if a carry pass were
    skipped; the bit bounds straddle limb edges, and c holds 0 and
    2^bits - 1, the ends of the range the routine must be exact on.
    """

    ROWS = 40

    @staticmethod
    def plain(g, passes):
        c = list(g)
        for _ in range(passes):
            c[1:] = [x - y for x, y in zip(c[1:], c)]
        return c

    @pytest.mark.parametrize("bits", [31, 32, 33, 63, 64, 9519])
    @pytest.mark.parametrize("passes", [1, 28, 29, 30, 58, 59, 2001])
    def test_recovers_known_results(self, passes, bits):
        top = 2**bits - 1
        rng = Random(passes * 10007 + bits)
        c = [rng.randrange(top + 1) for _ in range(self.ROWS)]
        c[0], c[1], c[-2], c[-1] = 0, top, 0, top
        g = c
        for _ in range(passes):
            g = list(accumulate(g))
        assert self.plain(g, passes) == c
        assert _difference(g, passes, bits) == c

    @pytest.mark.parametrize("unit", [3, 2**61 - 1, 14175 * 2**9519 + 1])
    def test_divides_out_an_odd_unit(self, unit):
        # _gf_coeffs seeds u * g_k with u the odd part of n!; the last
        # unit here is wider than the modulus 2^96
        bits, passes = 64, 30
        rng = Random(unit)
        c = [rng.randrange(2**bits) for _ in range(self.ROWS)]
        g = c
        for _ in range(passes):
            g = list(accumulate(g))
        assert _difference([unit * x for x in g], passes, bits, unit) == c


class TestWalkOracle:
    """Counting closed one-box walks by descents (tests/walk_oracle.py)
    needs neither tableaux nor the generating function, and it counts
    every degree, so it also checks the upper half of the coefficients,
    which ``_gf_coeffs`` mirrors from the lower half."""

    def test_equals_gf_coefficients(self):
        counts = closed_walk_descents(17)
        for n in range(1, 18):
            assert counts[n] == list(polynomial_by_gf(n).coeffs)
            assert sum(counts[n]) == double_factorial(2 * n - 1)


class TestExactDistribution:
    def test_n1(self):
        assert exact_distribution(1) == [(1, Fraction(1))]

    def test_n2(self):
        assert exact_distribution(2) == [
            (1, Fraction(1, 3)),
            (2, Fraction(1, 3)),
            (3, Fraction(1, 3)),
        ]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_sums_to_one(self, n):
        assert sum(p for _, p in exact_distribution(n)) == 1

    @pytest.mark.parametrize("n", [*range(1, 41), 345])
    def test_equals_direct_fractions(self, n):
        # the law forms Fractions for m <= n only and mirrors the rest
        total = double_factorial(2 * n - 1)
        coeffs = polynomial_by_gf(n).coeffs
        direct = [(m, Fraction(c, total)) for m, c in enumerate(coeffs) if c]
        assert exact_distribution(n) == direct

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_moment_consistency_with_closed_forms(self, n):
        # descent_count = d - 1, so the mean shifts by one and the
        # variance is unchanged
        dist = exact_distribution(n)
        mean = sum(Fraction(m) * p for m, p in dist)
        second = sum(Fraction(m * m) * p for m, p in dist)
        rep = closed_form_moments(n)
        assert mean == rep.mean_d - 1
        assert second - mean**2 == rep.var_d


class TestMgf:
    def test_degenerate_n1(self):
        for s in (-3.0, 0.0, 0.25, 7.0):
            assert mgf_Wn(1, s) == 1.0

    def test_three_point_closed_form(self):
        s = 1.5
        direct = (math.exp(-s / math.sqrt(2)) + 1 + math.exp(s / math.sqrt(2))) / 3
        assert mgf_Wn(2, s) == pytest.approx(direct, rel=1e-14)

    def test_at_origin(self):
        for n in (1, 5, 40):
            assert mgf_Wn(n, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_evenness(self):
        # exact: the float law is mirrored, so both sums have the same terms
        for n in range(1, 61):
            for s in (0.3, 1.0, 2.5):
                assert mgf_Wn(n, s) == mgf_Wn(n, -s)

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 200])
    def test_equals_sum_over_float_fractions(self, n):
        # the library divides c_m by (2n-1)!! without forming a Fraction;
        # correct rounding makes every term the same float
        sqrt_n = math.sqrt(n)
        for s in (-0.5, 1.0, 2.0):
            direct = math.fsum(
                float(p) * math.exp(s * (m - n) / sqrt_n)
                for m, p in exact_distribution(n)
            )
            assert mgf_Wn(n, s) == direct

    def test_overflow_raises(self):
        with pytest.raises(OverflowError, match="MGF"):
            mgf_Wn(100, 1e6)

    def test_budget(self):
        with pytest.raises(BudgetError, match="n=1001"):
            mgf_Wn(1001, 1.0)

    @pytest.mark.parametrize("s", [0.0, -0.5, -1.0])
    def test_rejects_s_at_or_below_zero_by_name(self, s):
        message = rf"^s must be positive and finite, got {s}$"
        with pytest.raises(ValueError, match=message):
            mgf_series_factor(10, s)

    def test_rejects_non_finite_s(self):
        for s in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                mgf_Wn(10, s)

    def test_report_entries(self):
        entries = mgf_convergence_report([10, 50], [1.0])
        assert [e.n for e in entries] == [10, 50]
        for e in entries:
            assert e.mgf_value == mgf_Wn(e.n, 1.0)
            assert e.target == pytest.approx(math.exp(1 / 12), rel=1e-15)
            assert e.abs_error == abs(e.mgf_value - e.target)
        assert entries[0].abs_error > entries[1].abs_error

    def test_report_charges_its_distinct_n_before_any_value(self, monkeypatch):
        # each distinct n costs (2n+1)(n+1)L limb updates, L = bitlen((2n-1)!!) // 32 + 1,
        # and each (n, s) value 1024 for each of its 2n - 1 exponentials
        n_list, s_list = [5, 40, 300, 40], [1.0, 2.0]
        work = sum(
            (2 * n + 1) * (n + 1) * (double_factorial(2 * n - 1).bit_length() // 32 + 1)
            for n in (5, 40, 300)
        ) + 1024 * len(s_list) * sum(2 * n - 1 for n in n_list)
        monkeypatch.setattr(distribution, "MGF_BUDGET", work)
        assert len(mgf_convergence_report(n_list, s_list)) == 8

        def no_value(*args):
            raise AssertionError("a value was computed")

        monkeypatch.setattr(distribution, "mgf_Wn", no_value)
        monkeypatch.setattr(distribution, "MGF_BUDGET", work - 1)
        with pytest.raises(BudgetError, match=f"^mgf work={work} exceeds"):
            mgf_convergence_report(n_list, s_list)
        # one more s costs 1024 (2n - 1) more for every listed n
        more = 1024 * sum(2 * n - 1 for n in n_list)
        monkeypatch.setattr(distribution, "MGF_BUDGET", work + more - 1)
        with pytest.raises(BudgetError, match=f"^mgf work={work + more} exceeds"):
            mgf_convergence_report(n_list, [*s_list, 3.0])
        # each n is checked alone first, in the order of the list
        with pytest.raises(BudgetError, match="^n=1001 exceeds"):
            mgf_convergence_report([5, 1001, 0], [1.0])
        with pytest.raises(ValueError, match="n must be >= 1"):
            mgf_convergence_report([5, 0, 1001], [1.0])


def decimal_series_factor(n: int, s: float) -> float:
    """The series factor summed term by term at 40 digits.

    Each product prod_{j<n} (k^2+k+2j) is an exact integer; only the
    exponentials and the sum are rounded.  The terms rise to one peak and
    then fall, so the sum stops past the peak once a term is below 1e-45
    of the total.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        decay = Decimal(s) / Decimal(n).sqrt()
        total = previous = Decimal(0)
        k = 1
        while True:
            product = math.prod(range(k * k + k, k * k + k + 2 * n, 2))
            term = Decimal(product) * (-decay * k).exp()
            total += term
            if term < previous and term < total * Decimal("1e-45"):
                break
            previous = term
            k += 1
        return float(decay ** (2 * n + 1) / math.factorial(2 * n) * total)


def log_series_factor_by_gf(n: int, s: float, coeffs) -> float:
    """log of (x/(1-e^-x))^(2n+1) * sum_m c_m e^(-x m) / (2n-1)!!, x = s/sqrt(n).

    The series factor in closed form through the generating-function
    identity, from the exact coefficients c_m: with y = (k^2+k)/2,
    prod_{j<n} (k^2+k+2j) = 2^n n! C(y+n-1, n) and (2n)! = 2^n n! (2n-1)!!.
    """
    x = s / math.sqrt(n)
    logs = [math.log(c) - x * m for m, c in enumerate(coeffs) if c]
    top = max(logs)
    log_sum = top + math.log(math.fsum(math.exp(v - top) for v in logs))
    return (
        (2 * n + 1) * (math.log(x) - math.log(-math.expm1(-x)))
        + log_sum
        - math.log(double_factorial(2 * n - 1))
    )


class TestSeriesFactor:
    def test_small_case_against_direct_sum(self):
        direct = sum(k * (k + 1) * math.exp(-k) for k in range(51)) / 2
        assert mgf_series_factor(1, 1.0) == pytest.approx(direct, rel=1e-12)

    def test_lower_bound_grid(self):
        for n in (1, 5, 25, 100):
            for s in (0.5, 1.0, 2.0, 5.0):
                bound = math.exp(-s / math.sqrt(n)) - 1e-9
                assert mgf_series_factor(n, s) >= bound

    def test_huge_s_underflows_without_warning(self):
        # k s/sqrt(n) overflows to inf for k >= 2: the term is 0, silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mgf_series_factor(4, 1.4e308) == 0.0

    def test_overflow_names_n_and_s(self):
        with pytest.raises(
            OverflowError,
            match=r"^exp overflow evaluating the series factor at n=345, s=1000\.0$",
        ):
            mgf_series_factor(345, 1000.0)

    # s = c sqrt(n) fixes decay = s/sqrt(n) at c: the rule that skips
    # passes while the terms rise applies only below decay 1.5
    @pytest.mark.parametrize("n", [1, 2, 5, 25, 143, 345, 1000])
    def test_against_generating_function(self, n, request):
        coeffs = (
            request.getfixturevalue("coeffs_1000")
            if n == 1000
            else polynomial_by_gf(n).coeffs
        )
        scaled = [c * math.sqrt(n) for c in (1.5, 1.65, 3, 7.5)]
        checked = 0
        for s in (0.3, 1.0, 3.0, 10.0, *scaled):
            log_value = log_series_factor_by_gf(n, s, coeffs)
            if not -700 < log_value < 700:
                continue  # outside the float range
            assert mgf_series_factor(n, s) == pytest.approx(
                math.exp(log_value), rel=1e-10
            ), s
            checked += 1
        assert checked >= 5

    def test_gap_shrinks(self):
        gaps = [abs(mgf_series_factor(n, 1.0) - 1.0) for n in (25, 100)]
        assert gaps[0] > gaps[1]

    def test_truncation_against_direct_sum_at_n5(self):
        # (1/sqrt 5)^11 / 10! * sum_k prod_{j<5} (k^2+k+2j) exp(-k/sqrt 5);
        # the terms peak near k = 22 and are below 1e-60 of it by k = 400
        n, decay = 5, 1 / math.sqrt(5)
        terms = [
            math.prod(k * k + k + 2 * j for j in range(n)) * math.exp(-decay * k)
            for k in range(401)
        ]
        direct = decay ** (2 * n + 1) / math.factorial(2 * n) * math.fsum(terms)
        assert mgf_series_factor(n, 1.0) == pytest.approx(direct, rel=1e-12)

    # n = 5, s = 5 puts 26 % of the sum on k = 3 and 22 % on k = 4, the
    # last term summed factor by factor and the first from Stirling
    @pytest.mark.parametrize("n,s", [(5, 1.0), (25, 1.0), (100, 1.0), (5, 5.0)])
    def test_against_decimal_sum(self, n, s):
        assert mgf_series_factor(n, s) == pytest.approx(
            decimal_series_factor(n, s), rel=1e-12
        )

    def test_series_budget_limit(self, monkeypatch):
        # n = 25, s = 1 stops after one pass of 1024 terms: 25 + 1024 = 1049
        expected = mgf_series_factor(25, 1.0)
        monkeypatch.setattr("matchstat.distribution.SERIES_BUDGET", 1049)
        assert mgf_series_factor(25, 1.0) == expected
        monkeypatch.setattr("matchstat.distribution.SERIES_BUDGET", 1048)
        with pytest.raises(BudgetError, match=r"n\+terms=1049 "):
            mgf_series_factor(25, 1.0)

    def test_series_budget_stops_tiny_s(self, monkeypatch):
        # the charge grows with the terms whatever n is, so a tiny s cannot
        # build arrays beyond SERIES_BUDGET floats; n = 1, s = 0.01 stops
        # after the pass of 8192 terms
        monkeypatch.setattr("matchstat.distribution.SERIES_BUDGET", 8193)
        assert mgf_series_factor(1, 0.01) > 0
        monkeypatch.setattr("matchstat.distribution.SERIES_BUDGET", 8192)
        with pytest.raises(BudgetError, match=r"n\+terms=8193 "):
            mgf_series_factor(1, 0.01)
        monkeypatch.setattr("matchstat.distribution.SERIES_BUDGET", 2**20)
        with pytest.raises(BudgetError, match=r"n\+terms=1048577 "):
            mgf_series_factor(1, 1e-9)

    def test_series_budget_charged_before_any_array(self, monkeypatch):
        def no_arrays(*args, **kwargs):
            raise AssertionError("an array was built")

        monkeypatch.setattr("numpy.arange", no_arrays)
        with pytest.raises(BudgetError, match=r"n\+terms=4195328 "):
            mgf_series_factor(2**22, 1.0)

    def test_passes_that_must_fail_are_skipped(self, monkeypatch):
        # at n = 20000, s = 1 the log terms provably rise up to k ~ 5.7e6,
        # so no pass below 2^23 terms can end the sum; skipped passes are
        # still charged, and the one of 2^22 terms is over the budget
        def no_arrays(*args, **kwargs):
            raise AssertionError("an array was built")

        monkeypatch.setattr("numpy.arange", no_arrays)
        with pytest.raises(BudgetError, match=r"n\+terms=4214304 "):
            mgf_series_factor(20000, 1.0)

    def test_list_charged_every_pass_against_one_budget(self, monkeypatch):
        # a list is charged n plus the final k_hi of each value, summed: at
        # s = 0.1, n = 3 builds two passes, and each pass charges its terms
        # k = 1 .. k_hi once, so the charge is the terms built
        n_list = [3, 25, 100]
        built = []

        def counted(x, n):
            built.append((n, len(x)))
            return log_gamma_ratio(x, n)

        log_gamma_ratio = distribution._log_gamma_ratio
        monkeypatch.setattr(distribution, "_log_gamma_ratio", counted)
        values = _series_factors(n_list, 0.1)
        assert [n for n, _ in built].count(3) == 2
        final = {n: 3 + sum(t for m, t in built if m == n) for n in n_list}
        charge = sum(n + final[n] for n in n_list)
        admitted = list(built)

        monkeypatch.setattr(distribution, "SERIES_BUDGET", charge)
        built.clear()
        assert _series_factors(n_list, 0.1) == values
        assert built == admitted
        monkeypatch.setattr(distribution, "SERIES_BUDGET", charge - 1)
        built.clear()
        with pytest.raises(BudgetError, match=rf"^n\+terms={charge} exceeds"):
            _series_factors(n_list, 0.1)
        # refused before the last pass of n = 100 builds its Stirling terms
        assert built == admitted[:-1]
        # each n is checked when its turn comes, in the order of the list,
        # and its passes are charged on top of the values done
        monkeypatch.undo()
        with pytest.raises(BudgetError, match=rf"^n\+terms={4214304 + 1049} "):
            _series_factors([25, 20000, 0], 1.0)
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            _series_factors([25, 0, 20000], 1.0)
        with pytest.raises(ValueError, match="^s must be positive and finite"):
            _series_factors([25], -1.0)

    @pytest.mark.parametrize("s", [0.1, 1.0, 5.0])
    def test_list_values_equal_single_calls(self, s):
        n_list = [1, 3, 25, 113, 345]
        singles = [mgf_series_factor(n, s) for n in n_list]
        assert _series_factors(n_list, s) == singles
        assert _series_factors([], s) == []

    # sha256 of repr of the values, n outermost, computed before passes
    # were pre-checked in scalar floats
    def test_values_digest(self):
        values = [
            mgf_series_factor(n, s)
            for n in (1, 5, 25, 113, 143, 345, 1000)
            for s in (0.5, 1.0, 2.0, 5.0)
        ]
        assert hashlib.sha256(repr(values).encode()).hexdigest() == (
            "8b893024e5440e369d5228a30bf09cf003fb8896bfe647e4e6739547f7da5282"
        )

    @pytest.mark.parametrize(
        "n,s,passes",
        [
            # decay 1: the rule's quadratic has its root near k = 2n = 3400,
            # where the terms peak, so 1024 and 2048 are skipped; the last
            # term of 4096 is far below the peak, and that pass ends the sum
            (1700, math.sqrt(1700), [4096]),
            # decay exactly 3/2: the rule is off, so the passes before the
            # peak near k = 4n/3 are built although they cannot end the sum
            (2500, 75.0, [1024, 2048, 4096]),
        ],
    )
    def test_rising_rule_skips_only_below_decay_three_halves(
        self, monkeypatch, n, s, passes
    ):
        built = []

        def recorded(x, n):
            built.append(round((math.sqrt(8 * x[-1] + 1) - 1) / 2))
            return log_gamma_ratio(x, n)

        log_gamma_ratio = distribution._log_gamma_ratio
        monkeypatch.setattr(distribution, "_log_gamma_ratio", recorded)
        mgf_series_factor(n, s)
        assert built == passes

    @pytest.mark.parametrize("n,s,k_final", [(3, 0.1, 2048), (100000, 1000.0, 65536)])
    def test_built_passes_compute_each_term_once(self, monkeypatch, n, s, k_final):
        # both cases build more than one pass: each pass computes only the
        # terms past the last one built, so together the passes tile
        # k = 4 .. k_final once
        seen = []

        def recorded(x, n):
            seen.append(x.copy())
            return log_gamma_ratio(x, n)

        log_gamma_ratio = distribution._log_gamma_ratio
        monkeypatch.setattr(distribution, "_log_gamma_ratio", recorded)
        mgf_series_factor(n, s)
        k = np.arange(4, k_final + 1, dtype=np.float64)
        assert len(seen) > 1
        assert np.array_equal(np.concatenate(seen), (k * k + k) * 0.5)

    def test_peak_memory_per_term(self, monkeypatch):
        # n = 3000, s = 1 builds one pass of 2^19 terms; k, x and the
        # result take 24 bytes per term, whole-array temporaries 40 more
        built = []

        def counted(x, n):
            built.append(len(x))
            return log_gamma_ratio(x, n)

        log_gamma_ratio = distribution._log_gamma_ratio
        monkeypatch.setattr(distribution, "_log_gamma_ratio", counted)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            mgf_series_factor(3000, 1.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        terms = 3 + sum(built)
        assert terms == 2**19
        assert peak <= 32 * terms

    @pytest.mark.parametrize("n", [1, 345, 8592])
    def test_log_gamma_ratio_blocks_match_one_array(self, n):
        # the five statements on whole arrays, at lengths around the block
        # edges: the blocked evaluation must give the same floats
        block = distribution._TERM_BLOCK
        for length in (1, block - 1, block, block + 1, 3 * block + 5):
            k = np.arange(4, length + 4, dtype=np.float64)
            x = (k * k + k) * 0.5
            expected = np.log1p(n / x)
            expected *= x - 0.5
            expected += n * np.log(x + n) - n
            expected += _stirling_tail(x + n)
            expected -= _stirling_tail(x)
            assert np.array_equal(distribution._log_gamma_ratio(x, n), expected)

    def test_rejects_bad_s(self):
        with pytest.raises(ValueError):
            mgf_series_factor(10, 0.0)
        with pytest.raises(ValueError):
            mgf_series_factor(10, -1.0)

    def test_rejects_non_finite_s(self):
        # NaN used to pass the s <= 0 test and double the truncation forever
        for s in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                mgf_series_factor(25, s)


class TestExactKs:
    def test_point_mass_at_n1(self):
        assert exact_ks_distance(1) == 0.5

    def test_decreases(self):
        assert exact_ks_distance(10) > exact_ks_distance(40)

    @pytest.mark.parametrize("n", [1, 2, 7, 40, 200])
    def test_equals_scan_over_float_fractions(self, n):
        sigma, sqrt_n = math.sqrt(1 / 6), math.sqrt(n)
        cum = dist = 0.0
        for m, p in exact_distribution(n):
            target = _normal_cdf((m - n) / sqrt_n, sigma)
            dist = max(dist, target - cum)
            cum += float(p)
            dist = max(dist, cum - target)
        assert exact_ks_distance(n) == dist

    def test_budget(self):
        with pytest.raises(BudgetError):
            exact_ks_distance(1001)


class TestCltExperiment:
    def test_degenerate_n1(self):
        report = clt_experiment(1, 200, 42)
        assert report.sample_mean_W == 0.0
        assert report.sample_var_W == 0.0
        assert report.ks_distance == 0.5

    def test_deterministic(self):
        assert clt_experiment(20, 300, 9) == clt_experiment(20, 300, 9)

    @pytest.mark.parametrize("n,draws,seed", [(20, 300, 9), (3, 5000, 1), (57, 999, 123)])
    def test_ks_equals_scan_over_sample_counts(self, n, draws, seed):
        sigma, sqrt_n = math.sqrt(1 / 6), math.sqrt(n)
        freq = np.bincount(_descent_counts_range(n, seed, 0, draws)).tolist()
        cum, dist = 0, 0.0
        for m, f in enumerate(freq):
            if f:
                target = _normal_cdf((m - n) / sqrt_n, sigma)
                dist = max(dist, target - cum / draws)
                cum += f
                dist = max(dist, cum / draws - target)
        assert clt_experiment(n, draws, seed).ks_distance == dist

    def test_mean_and_sample_variance_of_w(self):
        n, draws = 20, 7
        w = ((_descent_counts_range(n, 9, 0, draws) - n) / math.sqrt(n)).tolist()
        report = clt_experiment(n, draws, 9)
        mean = sum(w) / draws
        assert report.sample_mean_W == pytest.approx(mean, rel=1e-12, abs=1e-12)
        var = sum((x - mean) ** 2 for x in w) / (draws - 1)  # unbiased: B - 1
        assert report.sample_var_W == pytest.approx(var, rel=1e-12)

    def test_sample_budget_checked_before_any_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool started")

        monkeypatch.setattr("matchstat.matchings.SAMPLE_BUDGET", 20)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        assert clt_experiment(20, 300, 9, threads=1).n == 20
        with pytest.raises(BudgetError, match="n=21 exceeds the budget n <= 20"):
            clt_experiment(21, 300, 9, threads=2)

    def test_draw_budget_checked_before_any_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool started")

        monkeypatch.setattr("matchstat.matchings.DRAW_BUDGET", 300 * 1024)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        assert clt_experiment(20, 300, 9, threads=1).num_samples == 300
        # every draw is charged at least 1024 letters, n = 1 included
        for n in (1, 20, 512):
            with pytest.raises(BudgetError, match="draw cost=308224 exceeds"):
                clt_experiment(n, 301, 9, threads=2)
        with pytest.raises(BudgetError, match="draw cost=308000 exceeds"):
            clt_experiment(1000, 154, 9, threads=2)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_checked_before_any_pool(self, monkeypatch, seed):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool started")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        with pytest.raises(ValueError, match="seed must be an unsigned 64-bit integer"):
            clt_experiment(10, 100, seed, threads=2)

    def test_worker_count_does_not_change_output(self):
        assert clt_experiment(20, 300, 9, threads=1) == clt_experiment(
            20, 300, 9, threads=2
        )

    def test_samples_come_from_per_stream_draws(self):
        counts = _descent_counts_range(10, 99, 0, 12)
        expected = [
            descent_stats(sample_uniform(10, 99, stream=k)).descent_count
            for k in range(12)
        ]
        assert counts.tolist() == expected

    @pytest.mark.parametrize("n", [3, 1000])
    def test_counts_do_not_depend_on_the_split(self, n):
        # a range seeds _STREAM_BLOCK streams per pass and a range of one
        # stream uses numpy's constructors; cuts on and off the block size
        # and ranges of one stream must all give the same counts, as the
        # worker split of clt_experiment relies on
        b = _STREAM_BLOCK
        total = 2 * b + 50
        cuts = [0, 1, 2, b - 1, b, b + 1, 2 * b, 2 * b + 1, total]
        whole = _descent_counts_range(n, 42, 0, total).tolist()
        parts = [_descent_counts_range(n, 42, a, c) for a, c in zip(cuts, cuts[1:])]
        assert np.concatenate(parts).tolist() == whole
        singles = [_descent_counts_range(n, 42, k, k + 1)[0] for k in range(total)]
        assert singles == whole

    # sha256 of repr(_descent_counts_range(n, 42, 0, 200).tolist()),
    # computed on the sampler that drew with rng.permutation per stream
    @pytest.mark.parametrize(
        "n,digest",
        [
            (1, "36df4597b03fb95f666f114f552fed956c56a532e1c123953225b816080bda32"),
            (3, "d8dcd7713c3ac2cca2e54b58e3a88a22a7e55e09419ad6bf3077b06b564c9fba"),
            (10, "0d94a7e3a810926a27794caa12dea2bc491741571229ae6bfef7b41dee7cd977"),
            (1000, "ce7d4957f828e7becc8d218f63090d82613be1161da6242e0bec53c5426b5f23"),
        ],
    )
    def test_seeded_counts_digest(self, n, digest):
        counts = _descent_counts_range(n, 42, 0, 200).tolist()
        assert hashlib.sha256(repr(counts).encode()).hexdigest() == digest

    def test_moderate_run_is_sane(self):
        report = clt_experiment(100, 3000, 42)
        assert abs(report.sample_mean_W) < 0.05
        assert abs(report.sample_var_W - 1 / 6) < 0.03
        assert report.ks_distance < 0.15

    @pytest.mark.parametrize("n", [200, 1000])
    def test_empirical_cdf_within_dkw_bound_of_exact_law(self, n, coeffs_1000):
        # Dvoretzky-Kiefer-Wolfowitz: P(sup |F_N - F| > eps) <= 2 exp(-2 N eps^2),
        # so eps below fails a correct sampler with probability <= 1e-6
        draws = 20000
        eps = math.sqrt(math.log(2 / 1e-6) / (2 * draws))
        counts = _descent_counts_range(n, 42, 0, draws)
        empirical = np.cumsum(np.bincount(counts, minlength=2 * n)) / draws
        # exact CDF: integer partial sums, each correctly rounded by one division
        total = double_factorial(2 * n - 1)
        coeffs = coeffs_1000 if n == 1000 else polynomial_by_gf(n).coeffs
        exact = [c / total for c in accumulate(coeffs)]
        gap = max(abs(float(e) - f) for e, f in zip(empirical, exact))
        assert gap <= eps

    def test_mean_of_descent_count_near_n(self):
        counts = _descent_counts_range(4, 42, 0, 20000)
        assert abs(counts.mean() - 4) < 0.02

    def test_json_schema(self, capsys):
        # the report is written as json by the CLI alone: one key per field
        report = clt_experiment(5, 50, 1)
        argv = ["clt", "--n", "5", "--samples", "50", "--seed", "1", "--format", "json"]
        assert main(argv) in (0, 1)
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == set(asdict(report)) == {
            "n",
            "num_samples",
            "seed",
            "sample_mean_W",
            "sample_var_W",
            "ks_distance",
            "target_var",
        }
        for key, value in asdict(report).items():
            assert payload[key] == pytest.approx(value, rel=1e-11, abs=1e-15)
        assert payload["target_var"] == pytest.approx(1 / 6, rel=1e-11)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            clt_experiment(0, 10, 1)
        with pytest.raises(ValueError):
            clt_experiment(2, 0, 1)
        with pytest.raises(ValueError):
            clt_experiment(2, 10, 1, threads=0)

    def test_sample_count_limit(self):
        # one sample has no sample variance
        with pytest.raises(ValueError, match="num_samples must be >= 2"):
            clt_experiment(5, 1, 1)
        assert clt_experiment(5, 2, 1).num_samples == 2

    @pytest.mark.parametrize(
        "counts, message",
        [
            ({"num_samples": 2.5}, r"num_samples must be an integer, got 2\.5"),
            ({"num_samples": 1.5}, r"num_samples must be an integer, got 1\.5"),
            ({"num_samples": "300"}, r"num_samples must be an integer, got '300'"),
            ({"threads": 1.5}, r"thread count must be an integer, got 1\.5"),
            ({"threads": 0.5}, r"thread count must be an integer, got 0\.5"),
            ({"threads": "2"}, r"thread count must be an integer, got '2'"),
        ],
    )
    def test_counts_must_be_integers(self, monkeypatch, counts, message):
        # checked before num_samples >= 2 and threads >= 1, and before any
        # draw or worker pool
        def nothing_started(*args, **kwargs):
            raise AssertionError("a draw or a worker pool started")

        monkeypatch.setattr("matchstat.distribution._partners", nothing_started)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", nothing_started)
        request = {"num_samples": 300, "threads": 2, **counts}
        with pytest.raises(ValueError, match=f"^{message}$"):
            clt_experiment(20, seed=9, **request)

    def test_counts_of_any_integer_type(self):
        expected = clt_experiment(5, 40, 1, threads=1)
        assert clt_experiment(5, np.int64(40), 1, threads=np.int8(1)) == expected
        assert clt_experiment(5, np.uint16(40), 1, threads=True) == expected


class TestResolveWorkers:
    def test_capped_at_core_count(self):
        assert _resolve_workers(10**9) == (os.cpu_count() or 1)
        assert _resolve_workers(1) == 1

    def test_one_worker_by_default_and_none_refused(self, monkeypatch):
        monkeypatch.delenv("MATCHSTAT_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert _resolve_workers(None) == 1
        with pytest.raises(ValueError, match="^thread count must be >= 1$"):
            _resolve_workers(0)
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # count unknown
        assert _resolve_workers(5) == 1

    def test_env_capped_at_core_count(self, monkeypatch):
        monkeypatch.setenv("MATCHSTAT_THREADS", str(10**9))
        assert _resolve_workers(None) == (os.cpu_count() or 1)

    @pytest.mark.parametrize("value", ["two", "1.5", "4x"])
    def test_env_rejects_non_integer(self, monkeypatch, value):
        monkeypatch.setenv("MATCHSTAT_THREADS", value)
        with pytest.raises(ValueError, match="MATCHSTAT_THREADS"):
            _resolve_workers(None)


#: Every entry point that takes a matching size n, called at that n.
SIZED_ENTRY_POINTS = {
    "polynomial_by_enumeration": polynomial_by_enumeration,
    "polynomial_by_gf": polynomial_by_gf,
    "exact_distribution": exact_distribution,
    "mgf_Wn": lambda n: mgf_Wn(n, 1.0),
    "mgf_series_factor": lambda n: mgf_series_factor(n, 1.0),
    "exact_ks_distance": exact_ks_distance,
    "sample_uniform": lambda n: sample_uniform(n, 1),
    "closed_form_moments": closed_form_moments,
    "brute_force_moments": brute_force_moments,
    "clt_experiment": lambda n: clt_experiment(n, 2, 1),
    "enumerate_matchings": lambda n: list(enumerate_matchings(n)),
    "mgf_convergence_report": lambda n: mgf_convergence_report([n], [1.0]),
}


@pytest.mark.parametrize("n", [0, -1, 2.5, 3.0, "3"])
@pytest.mark.parametrize("entry", SIZED_ENTRY_POINTS)
def test_refuses_n_below_one(entry, n):
    # one check refuses every size: first a non-integer, then n < 1
    if isinstance(n, int):
        message = r"^n must be >= 1$"
    else:
        message = rf"^n must be an integer, got {re.escape(repr(n))}$"
    with pytest.raises(ValueError, match=message):
        SIZED_ENTRY_POINTS[entry](n)


@pytest.mark.parametrize("entry", SIZED_ENTRY_POINTS)
def test_accepts_integer_n_of_any_type(entry):
    at_three = SIZED_ENTRY_POINTS[entry](3)
    for n in (np.int64(3), np.uint16(3)):
        assert SIZED_ENTRY_POINTS[entry](n) == at_three
    assert SIZED_ENTRY_POINTS[entry](True) == SIZED_ENTRY_POINTS[entry](1)


def test_double_factorial_refuses_non_integers():
    assert double_factorial(np.int64(5)) == double_factorial(5) == 15
    for m in (5.0, 2.5, -1.0, "5"):
        with pytest.raises(ValueError, match="needs an odd integer >= -1"):
            double_factorial(m)


@pytest.mark.parametrize(
    "draw, message",
    [
        (lambda: sample_uniform(3, 1.0), "seed must be an unsigned 64-bit integer"),
        (lambda: sample_uniform(3, 1, stream=0.5), "stream must be a non-negative integer"),
        (lambda: sample_uniform(3, 1, stream=2.0), "stream must be a non-negative integer"),
        (lambda: clt_experiment(3, 10, 2.5), "seed must be an unsigned 64-bit integer"),
    ],
    ids=["seed", "stream", "integral-float-stream", "clt-seed"],
)
def test_draws_refuse_non_integer_seed_or_stream(monkeypatch, draw, message):
    def no_draw(*args, **kwargs):
        raise AssertionError("a matching was drawn")

    monkeypatch.setattr("matchstat.matchings._partners", no_draw)
    monkeypatch.setattr("matchstat.distribution._partners", no_draw)
    with pytest.raises(ValueError, match=message):
        draw()
    monkeypatch.undo()
    assert sample_uniform(3, np.uint64(1), stream=np.int64(2)) == sample_uniform(3, 1, 2)
