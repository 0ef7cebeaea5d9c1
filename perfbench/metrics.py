"""End-to-end and per-layer metrics computed from a worker's raw records."""

from __future__ import annotations

import math
from collections import defaultdict
from statistics import median

from hostspeed import host_scaled
from tracing import Span, self_times

TAIL_BEYOND = 10

LAYERS = ("matchings", "tableaux", "bijection", "distribution", "cli")
SIZES = ("2n100", "2n2000")
TABLEAUX_CALLS = (
    "row_insert",
    "delete_min_and_slide",
    "reverse_row_insert",
    "reverse_slide_and_place_min",
    "Tableau",
    "conjugate_partition",
    "added_box",
)
BIJECTION_CALLS = (
    "matching_to_oscillating",
    "oscillating_to_matching",
    "conjugate_matching",
    "OscillatingTableau",
)
EXACT_CALLS = ("polynomial_by_gf", "exact_ks_distance", "mgf_Wn", "mgf_series_factor")
CLI_COMMANDS = ("stats", "poly", "conjugate", "tableau", "mgf", "lemma41")


def tail_percentile(count: int) -> int | None:
    """Highest whole percentile from 99 down to 50 whose nearest-rank sample
    has at least TAIL_BEYOND samples above it; None when even p50 has fewer."""
    for p in range(99, 49, -1):
        if count - math.ceil(p * count / 100) >= TAIL_BEYOND:
            return p
    return None


def tail(values: list[float]) -> tuple[float, int]:
    """Job time at the tail percentile, and that percentile.

    With fewer than 2 * TAIL_BEYOND samples no percentile qualifies, and
    the median is reported as p50.
    """
    xs = sorted(values)
    p = tail_percentile(len(xs))
    if p is None:
        return median(xs), 50
    return xs[math.ceil(p * len(xs) / 100) - 1], p


def end_to_end(
    jobs: list[dict], probes: list[tuple[float, float]], setup: list[float], rss_kb: int
) -> dict:
    """Metrics a user sees, as name -> (value, unit), plus details that
    include the rate and median of the jobs' unscaled wall times."""
    raw = [j["t"] for j in jobs]
    times = host_scaled(jobs, probes)
    failed = sum(1 for j in jobs if j["fail"])
    value, p = tail(times)
    return {
        "setup_s": (median(setup), "s"),
        "jobs_per_s": (len(times) / math.fsum(times), "1/s"),
        "job_s.p50": (median(times), "s"),
        "job_s.tail": (value, "s"),
        "fail_ratio": (failed / len(jobs), "ratio"),
        "ok_ratio": (1.0 - failed / len(jobs), "ratio"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }, {
        "tail_percentile": p,
        "samples": len(times),
        "unscaled_jobs_per_s": len(raw) / math.fsum(raw),
        "unscaled_job_s.p50": median(raw),
        "reference_loop_s.p50": median(d for _, d in probes),
    }


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {
        "matchings.sample_uniform.ms": "ms",
        "matchings.sample_uniform.calls": "count",
        "matchings.Matching.us": "us",
        "matchings.descent_stats.us": "us",
        "matchings.from_pairs.us": "us",
        "matchings.brute_force_moments.s": "s",
    }
    units.update({f"tableaux.{f}.us.{c}": "us" for f in TABLEAUX_CALLS for c in SIZES})
    units["tableaux.calls"] = "count"
    units.update({f"bijection.{f}.ms.{c}": "ms" for f in BIJECTION_CALLS for c in SIZES})
    units.update({f"bijection.classify_position.us.{c}": "us" for c in SIZES})
    units.update({f"bijection.conjugate_matching.tableaux_share.{c}": "ratio" for c in SIZES})
    units.update({f"distribution.{f}.ms": "ms" for f in EXACT_CALLS})
    units.update({f"distribution.{f}.busy_share": "ratio" for f in EXACT_CALLS})
    units["distribution.clt_experiment.s"] = "s"
    units["distribution.clt_experiment.sampler_share"] = "ratio"
    units["distribution.polynomial_by_enumeration.s"] = "s"
    units.update({f"cli.{c}.s": "s" for c in CLI_COMMANDS})
    units["cli.interpreter_start.s"] = "s"
    units.update({f"{layer}.fail": "count" for layer in LAYERS})
    units["trace_overhead"] = "ratio"
    return units


def per_layer(
    spans: list[Span],
    jobs: list[dict],
    probes: list[tuple[float, float]],
    workload: str,
    clt_draws: int,
) -> dict:
    """Per-call medians, counts and shares from one traced run, name -> (value, unit).

    ``trace_overhead`` compares the host-scaled times of the workload's own
    traced and untraced jobs, whose rounds of the input mix were split in
    Thue-Morse order.
    """
    durations: dict[tuple[str, str | None], list[float]] = defaultdict(list)
    busy: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        durations[span.name, span.cls].append(span.end - span.start)
        busy[span.name] += own

    def med(name: str, cls: str | None = None) -> float:
        return median(durations[name, cls])

    v: dict[str, float] = {
        "matchings.sample_uniform.ms": med("matchings.sample_uniform") * 1e3,
        "matchings.sample_uniform.calls": len(durations["matchings.sample_uniform", None]),
        "matchings.Matching.us": med("matchings.Matching") * 1e6,
        "matchings.descent_stats.us": med("matchings.descent_stats") * 1e6,
        "matchings.from_pairs.us": med("matchings.from_pairs") * 1e6,
        "matchings.brute_force_moments.s": med("matchings.brute_force_moments"),
    }
    for f in TABLEAUX_CALLS:
        for c in SIZES:
            v[f"tableaux.{f}.us.{c}"] = med(f"tableaux.{f}", c) * 1e6
    v["tableaux.calls"] = sum(1 for s in spans if s.layer == "tableaux")
    for f in BIJECTION_CALLS:
        for c in SIZES:
            v[f"bijection.{f}.ms.{c}"] = med(f"bijection.{f}", c) * 1e3
    for c in SIZES:
        v[f"bijection.classify_position.us.{c}"] = med("bijection.classify_position", c) * 1e6
    for c, share in _tableaux_shares(spans).items():
        v[f"bijection.conjugate_matching.tableaux_share.{c}"] = share
    exact_job_s = math.fsum(s.end - s.start for s in spans if s.name == "job.exact-cold")
    for f in EXACT_CALLS:
        v[f"distribution.{f}.ms"] = med(f"distribution.{f}") * 1e3
        v[f"distribution.{f}.busy_share"] = busy[f"distribution.{f}"] / exact_job_s
    clt_s = med("distribution.clt_experiment")
    v["distribution.clt_experiment.s"] = clt_s
    # clt_experiment draws without building a validated Matching
    draw_s = med("matchings.sample_uniform") - med("matchings.Matching")
    v["distribution.clt_experiment.sampler_share"] = clt_draws * draw_s / clt_s
    v["distribution.polynomial_by_enumeration.s"] = med("distribution.polynomial_by_enumeration")
    for c in CLI_COMMANDS:
        v[f"cli.{c}.s"] = med(f"cli.{c}")
    v["cli.interpreter_start.s"] = med("cli.interpreter_start")
    for layer in LAYERS:
        v[f"{layer}.fail"] = sum(j["fail"].count(layer) for j in jobs)
    own = [j for j in jobs if j["workload"] == workload]
    scaled = host_scaled(own, probes)
    v["trace_overhead"] = median(t for j, t in zip(own, scaled) if j["traced"]) / median(
        t for j, t in zip(own, scaled) if not j["traced"]
    )
    units = per_layer_units()
    return {name: (v[name], unit) for name, unit in units.items()}


def _tableaux_shares(spans: list[Span]) -> dict[str, float]:
    """Median per size class of (tableaux time in the replay of a job's
    first conjugation) / (that conjugate_matching call's time)."""
    conj: dict[int, float] = {}
    replay: dict[int, int] = {}
    cls: dict[int, str | None] = {}
    inside: dict[int, float] = defaultdict(float)
    for idx, s in enumerate(spans):
        if s.name == "bijection.conjugate_matching" and s.job not in conj:
            conj[s.job] = s.end - s.start
        elif s.name == "bijection.conjugate_matching.replay":
            replay[idx] = s.job
            cls[s.job] = s.cls
        elif s.layer == "tableaux" and s.parent in replay:
            inside[replay[s.parent]] += s.end - s.start
    shares: dict[str, list[float]] = defaultdict(list)
    for job in replay.values():
        shares[cls[job]].append(inside[job] / conj[job])
    return {c: median(shares[c]) for c in SIZES}
