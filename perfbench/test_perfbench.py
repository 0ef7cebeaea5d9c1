"""Tests of the benchmark's own pieces: generators, oracles, tail rule, spans.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import matchstat as ms  # noqa: E402
from hostspeed import REF_S, host_scaled  # noqa: E402
from metrics import per_layer_units, tail, tail_percentile  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402
from tracing import NullTracer, Span, Tracer, self_times  # noqa: E402
from worker import run_job  # noqa: E402
from workloads import (  # noqa: E402
    EXACT_BANDS,
    WORKLOADS,
    Workload,
    band_ns,
    rng,
    shuffle_pair,
)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    wl = WORKLOADS[name]
    assert wl.inputs(7) == wl.inputs(7)
    assert wl.inputs(7) != wl.inputs(8)


def test_shuffle_pair_is_uniform_at_n3():
    r = rng(0, "uniformity")
    draws = 15000
    counts = Counter(str(shuffle_pair(3, r)) for _ in range(draws))
    assert len(counts) == 15
    expected = draws / 15
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 36.12  # 0.999 quantile of chi-square with 14 degrees of freedom


def test_band_ns_use_every_n_once_and_spread_from_the_start():
    lo, hi = EXACT_BANDS[-1]
    ns = band_ns(3, EXACT_BANDS[-1], 2 * (hi - lo + 1))
    assert sorted(ns[: hi - lo + 1]) == list(range(lo, hi + 1))
    mid = math.sqrt(lo * hi)
    for start in (0, 16):
        low_half = sum(1 for n in ns[start : start + 16] if n < mid)
        assert 7 <= low_half <= 9


def test_mixes_have_one_big_job_in_four():
    sizes = [m.size for m in WORKLOADS["bijection-mix"].inputs(1)[:40]]
    assert sizes == [100, 100, 100, 2000] * 10
    ns = WORKLOADS["exact-cold"].inputs(1)[:40]
    for k, n in enumerate(ns):
        lo, hi = EXACT_BANDS[k % 4]
        assert lo <= n <= hi
    assert len(set(ns)) == len(ns)


@pytest.mark.parametrize(
    "count, p",
    [(5, None), (19, None), (20, 50), (21, 52), (55, 81), (100, 90), (1000, 99), (5000, 99)],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, p):
    assert tail_percentile(count) == p


def test_tail_reads_the_nearest_rank_sample():
    assert tail([float(x) for x in range(1, 101)]) == (90.0, 90)
    assert tail([float(x) for x in range(55, 0, -1)]) == (45.0, 81)
    assert tail([3.0, 1.0, 2.0]) == (2.0, 50)


def test_host_scaling_uses_the_probes_on_either_side_of_a_job():
    probes = [(0.0, 2 * REF_S), (1.0, 4 * REF_S), (3.0, 2 * REF_S)]
    jobs = [
        {"t0": 0.5, "t": 0.4, "cpu": 0.3},  # between the first two probes
        {"t0": 1.5, "t": 1.0, "cpu": 1.0},  # between the second and third
        {"t0": 3.5, "t": 0.2, "cpu": 0.2},  # after the last probe only
    ]
    assert host_scaled(jobs, probes) == pytest.approx([0.1, 1 / 3, 0.1])


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("job.x", 0.0, 10.0, None, 0, None),
        Span("a.f", 1.0, 4.0, 0, 0, None),
        Span("a.g", 3.0, 6.0, 0, 0, None),  # overlaps its sibling
        Span("b.h", 2.0, 3.0, 1, 0, None),
        Span("b.k", 9.0, 12.0, 0, 0, None),  # runs past its parent's end
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])


def test_tracer_charges_a_failure_to_the_innermost_layer():
    tr = Tracer()
    tr.job = 4

    def inner():
        tr.call("tableaux.row_insert", lambda: 1 / 0)

    with pytest.raises(ZeroDivisionError):
        with tr.span("job.x"):
            tr.call("bijection.conjugate_matching", inner)
    assert [s.ok for s in tr.spans] == [False, False, False]
    assert [s.parent for s in tr.spans] == [None, 0, 1]
    assert tr.innermost_failure() == "tableaux"


def test_a_raising_job_is_counted_against_the_failing_layer():
    class Broken(Workload):
        name, layer = "broken", "bijection"

        def run(self, x, tr):
            return tr.call("tableaux.row_insert", ms.row_insert, ms.Tableau(), x)

        def check(self, x, out):
            return []

    record = {"jobs": []}
    run_job(Broken(), 0, 0, NullTracer(), record)  # entries must be positive
    run_job(Broken(), 0, 1, Tracer(), record)
    run_job(Broken(), 1, 2, Tracer(), record)
    assert [j["fail"] for j in record["jobs"]] == [["bijection"], ["tableaux"], []]


def test_bijection_oracle_rejects_a_wrong_double_conjugate():
    wl = WORKLOADS["bijection-mix"]
    m = ms.parse_matching("1-4,2-3,5-6")
    out = wl.run(m, NullTracer())
    assert wl.check(m, out) == []
    osc, back, conj, twice, cases = out
    assert conj != m
    assert wl.check(m, (osc, back, conj, conj, cases)) == ["bijection"]


def test_exact_oracle_rejects_a_changed_coefficient():
    wl = WORKLOADS["exact-cold"]
    out = wl.run(12, NullTracer())
    assert wl.check(12, out) == []
    poly = out[0]
    c = list(poly.coeffs)
    c[3] += 1
    c[4] -= 1
    bad = ms.DescentPolynomial(poly.n, tuple(c))
    assert wl.check(12, (bad, *out[1:])) == ["distribution"]


def test_benchmark_json_matches_what_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(WORKLOAD_NAMES) == list(WORKLOADS)
    # cli-session stays runnable by hand but is left out of the timed set
    assert [w["name"] for w in spec["workloads"]] == [
        n for n in WORKLOAD_NAMES if n != "cli-session"
    ]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s",
        "jobs_per_s",
        "job_s.p50",
        "job_s.tail",
        "ok_ratio",
        "peak_rss_mb",
    ]
