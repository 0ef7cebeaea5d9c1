"""End-to-end acceptance checks, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s``)
and asserts the same condition, so the suite is green exactly when every
line passes.  Tolerances and sizes are fixed here, not configurable.
"""

import math
import time
from collections import Counter
from fractions import Fraction

from matchstat import (
    DESCENT_CASES,
    PositionCase,
    Tableau,
    brute_force_moments,
    classify_position,
    closed_form_moments,
    clt_experiment,
    compare_reports,
    conjugate_matching,
    conjugate_oscillating,
    descent_stats,
    double_factorial,
    enumerate_matchings,
    exact_ks_distance,
    from_pairs,
    matching_to_oscillating,
    mgf_convergence_report,
    mgf_series_factor,
    polynomial_by_enumeration,
    polynomial_by_gf,
    row_insert,
    sample_uniform,
)
from matchstat.matchings import _partners

from gf_oracle import gf_coefficient

SEED = 42


def report(label: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def test_01_enumeration_counts():
    expected = {1: 1, 2: 3, 3: 15, 4: 105, 5: 945, 6: 10395}
    start = time.perf_counter()
    counts = {n: sum(1 for _ in enumerate_matchings(n)) for n in range(1, 7)}
    elapsed = time.perf_counter() - start
    ok = counts == expected and all(
        counts[n] == double_factorial(2 * n - 1) for n in counts
    )
    ok = ok and elapsed < 10.0
    report(f"enumeration counts equal (2n-1)!! for n=1..6 in {elapsed:.2f}s", ok)


def test_02_moment_oracle_equivalence():
    ok = True
    for n in (4, 5, 6):
        closed = closed_form_moments(n)
        brute = brute_force_moments(n)
        verdicts = compare_reports(closed, brute)
        ok &= all(v is True for v in verdicts.values())
        ok &= closed.p_descent == Fraction(n, 2 * n - 1)
        ok &= closed.p_joint_adjacent == Fraction(n + 1, 3 * (2 * n - 1))
        ok &= closed.p_joint_nonadjacent == Fraction(
            n * (n - 1), (2 * n - 1) * (2 * n - 3)
        )
        ok &= closed.mean_d == n + 1
        ok &= closed.var_d == Fraction((n + 4) * (n - 1), 3 * (2 * n - 1))
        ok &= closed.mean_maj == n * n
        ok &= closed.var_maj == Fraction(2 * n * (n + 4) * (n - 1), 9)
        ok &= brute.second_moment_d == closed.second_moment_d
        ok &= brute.second_moment_maj == closed.second_moment_maj
    report("brute-force moments equal closed forms exactly for n=4,5,6", ok)


def test_03_worked_example_fidelity():
    m = from_pairs([(1, 4), (2, 3), (5, 6)])
    st = descent_stats(m)
    osc, _ = matching_to_oscillating(m)
    conj = conjugate_matching(m)
    st_conj = descent_stats(conj)
    ok = st.des_set == (1, 2, 3, 5)
    ok &= st.descent_number == 5 and st.major_index == 11
    ok &= str(osc) == "();(1);(1,1);(1);();(1);()"
    ok &= conj == from_pairs([(1, 3), (2, 4), (5, 6)])
    ok &= st_conj.descent_number == 3 and st_conj.major_index == 7
    report("worked example (1 4)(2 3)(5 6) reproduced in full", ok)


def test_04_conjugation_identities():
    ok = True
    checked = 0
    for n in range(1, 6):
        for m in enumerate_matchings(n):
            conj = conjugate_matching(m)
            st, st_conj = descent_stats(m), descent_stats(conj)
            ok &= st.descent_number + st_conj.descent_number == 2 * (n + 1)
            ok &= st.major_index + st_conj.major_index == 2 * n * n
            ok &= conjugate_matching(conj) == m
            checked += 1
    ok &= checked == 1 + 3 + 15 + 105 + 945
    n = 50
    for k in range(1000):
        m = sample_uniform(n, SEED, stream=k)
        conj = conjugate_matching(m)
        st, st_conj = descent_stats(m), descent_stats(conj)
        ok &= st.descent_number + st_conj.descent_number == 2 * (n + 1)
        ok &= st.major_index + st_conj.major_index == 2 * n * n
        ok &= conjugate_matching(conj) == m
    report(
        "d + d' = 2(n+1), maj + maj' = 2n^2, involution: all 2n<=10 "
        "and 1000 random at 2n=100",
        ok,
    )


def test_05_six_case_classification():
    swap = {1: 1, 2: 2, 3: 4, 4: 3, 5: 6, 6: 5}
    ok = True
    for n in range(1, 6):
        for m in enumerate_matchings(n):
            osc, _ = matching_to_oscillating(m)
            conj_osc = conjugate_oscillating(osc)
            des = set(descent_stats(m).des_set)
            cases = []
            for i in range(1, 2 * n):
                case = classify_position(osc, i)
                cases.append(case)
                ok &= (case in DESCENT_CASES) == (i in des)
                ok &= classify_position(conj_osc, i) == swap[case]
            peaks = sum(1 for c in cases if c == PositionCase.PEAK)
            valleys = sum(1 for c in cases if c == PositionCase.VALLEY)
            ok &= peaks == valleys + 1
            ok &= (
                sum(
                    i * ((c == PositionCase.PEAK) - (c == PositionCase.VALLEY))
                    for i, c in enumerate(cases, start=1)
                )
                == n
            )
    report("six-case classification, case swap, and count identities (2n<=10)", ok)


def test_06_generating_function_identity():
    ok = True
    for n in range(1, 7):
        ok &= polynomial_by_gf(n).coeffs == polynomial_by_enumeration(n).coeffs
        ok &= gf_coefficient(n, 2 * n) == 0
        ok &= gf_coefficient(n, 2 * n + 1) == 0
    # the coefficient routine also checks the count, mean and variance
    # internally for every n computed below
    for n in range(1, 201):
        coeffs = polynomial_by_gf(n).coeffs
        ok &= sum(coeffs) == double_factorial(2 * n - 1)
        ok &= all(coeffs[m] == coeffs[2 * n - m] for m in range(1, 2 * n))
        ok &= coeffs[0] == 0 and coeffs[2 * n - 1] >= 1
    report("generating function matches enumeration; palindromic up to n=200", ok)


def test_07_double_insertion_relations():
    import random

    rng = random.Random(20240809)
    violations = 0
    for _ in range(10000):
        tab = Tableau()
        for _ in range(rng.randint(0, 24)):
            tab, _ = row_insert(tab, rng.randint(1, 60))
        x, y = rng.randint(1, 60), rng.randint(1, 60)
        mid, r1 = row_insert(tab, x)
        _, r2 = row_insert(mid, y)
        cols1 = {b.row: b.col for b in r1.boxes}
        cols2 = {b.row: b.col for b in r2.boxes}
        b1, b2 = r1.new_box, r2.new_box
        if x <= y:
            good = all(cols1[r] < cols2[r] for r in cols1 if r in cols2)
            good &= b1.col < b2.col and b1.row >= b2.row
        else:
            good = all(cols2[r] <= cols1[r] for r in cols2 if r in cols1)
            good &= b2.col <= b1.col and b2.row > b1.row
        violations += not good
    report(f"double-insertion route relations: {violations} violations in 10000", violations == 0)


def test_08_monte_carlo_normal_limit():
    start = time.perf_counter()
    rep = clt_experiment(1000, 100000, SEED, threads=2)
    elapsed = time.perf_counter() - start
    mean_ok = abs(rep.sample_mean_W) <= 0.01
    var_ok = abs(rep.sample_var_W - 1 / 6) <= 0.005
    ks_ok = rep.ks_distance <= 0.05
    time_ok = elapsed < 120.0
    report(
        f"CLT at n=1000, 100k samples: mean {rep.sample_mean_W:+.5f}, "
        f"var {rep.sample_var_W:.5f}, KS {rep.ks_distance:.5f}, {elapsed:.0f}s",
        mean_ok and var_ok and ks_ok and time_ok,
    )


def test_09_deterministic_convergence(coeffs_1000):
    # the fixture's build of the n = 1000 coefficients is in the cache, so
    # the n = 1000 calls below and the later users of the fixture share it
    ks50, ks200, ks1000 = (exact_ks_distance(n) for n in (50, 200, 1000))
    ks_ok = ks50 > ks200 > ks1000 and ks200 <= 0.05
    # sqrt(n) KS_n rises to half the central atom of the lattice law of
    # sqrt(n) W, whose variance tends to 1/6: sqrt(6)/(2 sqrt(2 pi))
    ks_rates = [math.sqrt(50) * ks50, math.sqrt(200) * ks200, math.sqrt(1000) * ks1000]
    ks_limit = math.sqrt(6) / (2 * math.sqrt(2 * math.pi))
    ks_ok = ks_ok and ks_rates[0] < ks_rates[1] < ks_rates[2] < ks_limit

    entries = mgf_convergence_report([10, 100, 400, 1000], [1.0])
    errs = [e.abs_error for e in entries]
    target_ok = round(entries[0].target, 6) == 1.086904
    mgf_ok = errs[0] > errs[1] > errs[2] > errs[3] and target_ok
    # n (MGF_n(1) - e^(1/12)) rises to the 1/n term of MGF_n(1),
    # e^(1/12) (7/24 - 1/1440): 7/24 from Var W = 1/6 + 7/(12n) + O(1/n^2),
    # -1/1440 from the fourth cumulant of W
    mgf_rates = [e.n * (e.mgf_value - e.target) for e in entries]
    mgf_limit = math.exp(1 / 12) * (7 / 24 - 1 / 1440)
    mgf_ok = mgf_ok and all(a < b for a, b in zip(mgf_rates, mgf_rates[1:]))
    mgf_ok = mgf_ok and mgf_rates[-1] < mgf_limit

    gaps = []
    bounds_ok = True
    for n in (25, 100, 400):
        value = mgf_series_factor(n, 1.0)
        gaps.append(abs(value - 1.0))
        bounds_ok &= value >= math.exp(-1.0 / math.sqrt(n)) - 1e-9
    series_ok = gaps[0] > gaps[1] > gaps[2] and bounds_ok

    report(
        f"exact KS {ks50:.4f}->{ks200:.4f}->{ks1000:.4f}, MGF errors "
        f"{'->'.join(f'{e:.2e}' for e in errs)}, series gaps "
        f"{gaps[0]:.3f}->{gaps[1]:.3f}->{gaps[2]:.3f}",
        ks_ok and mgf_ok and series_ok,
    )


def test_10_sampler_uniformity():
    # streams 0 .. draws-1 through one range: the same streams and draws as
    # one sample_uniform call each (pinned by the split-invariance test)
    draws = 150000
    freq = Counter(tuple(p.tolist()) for p in _partners(3, SEED, 0, draws))
    first = [sample_uniform(3, SEED, stream=k).partner for k in range(200)]
    ok = first == [
        tuple((p + 1).tolist()) for p in _partners(3, SEED, 0, len(first))
    ]
    expected = draws / 15
    ok &= len(freq) == 15
    ok &= all(abs(c - expected) <= 0.05 * expected for c in freq.values())
    spread = max(abs(c - expected) / expected for c in freq.values())
    report(
        f"sampler uniformity at n=3: max deviation {spread:.2%} (<= 5%),"
        " first 200 streams as sample_uniform draws them",
        ok,
    )
