"""Exact descent-count distributions and normal-limit diagnostics.

The number c_m of matchings of S_{2n} with exactly m descents is the
coefficient of t^m in a generating-function identity,

    sum_m c_m t^m = (1 - t)^(2n+1) * sum_k C(k(k+1)/2 + n - 1, n) t^k,

evaluated in exact integer arithmetic by taking first differences of
the series 2n+1 times (subtraction only) up to degree n; the palindrome
c_m = c_{2n-m} gives the rest.  Every computation checks the result
against the count (2n-1)!!, the mean n and the variance of the descent
count, all known in closed form.  On top of the exact distribution sit
the diagnostics for convergence of the normalized descent count
W = (D - n)/sqrt(n) to N(0, 1/6): pointwise MGF values against
exp(s^2/12), a deterministic Kolmogorov-Smirnov distance, a Monte Carlo
experiment, and the series factor of the MGF whose limit is 1.

Numerical care: the float probabilities behind the MGF and the KS
distance are c_m / (2n-1)!! by correctly rounded integer division
(relative error <= 2^-53, the same float as rounding the exact rational),
formed for m <= n and mirrored like the coefficients; MGF sums use
math.fsum, and the series factor is evaluated entirely in log space via
log-sum-exp because (2n)! overflows floats from n = 86 on.
"""

from __future__ import annotations

import json
import math
import operator
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence, TypeVar

import numpy as np

from .matchings import (
    BudgetError,
    _check_sample_budget,
    _random_partner,
    _rng_for,
    closed_form_moments,
    descent_stats,
    double_factorial,
    enumerate_matchings,
)

__all__ = [
    "ENUMERATION_BUDGET",
    "COEFFICIENT_BUDGET",
    "SERIES_BUDGET",
    "BudgetError",
    "DescentPolynomial",
    "CltReport",
    "MgfEntry",
    "MgfReport",
    "polynomial_by_enumeration",
    "polynomial_by_gf",
    "exact_distribution",
    "mgf_Wn",
    "mgf_convergence_report",
    "mgf_series_factor",
    "clt_experiment",
    "exact_ks_distance",
]

#: Largest n for which exhaustive enumeration is considered affordable.
ENUMERATION_BUDGET = 6

#: Largest n for which exact coefficients are computed on demand.
COEFFICIENT_BUDGET = 1000

#: Largest n + (number of terms) one pass of the MGF series factor may take.
SERIES_BUDGET = 2**22

_TARGET_VAR = 1.0 / 6.0
_EVENNESS_TOL = 1e-12

_P = TypeVar("_P")


@dataclass(frozen=True)
class DescentPolynomial:
    """coeffs[m] = number of matchings of S_{2n} with exactly m descents."""

    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != 2 * self.n:
            raise ValueError("need coefficients for m = 0 .. 2n-1")

    def total(self) -> int:
        return sum(self.coeffs)


def polynomial_by_enumeration(n: int) -> DescentPolynomial:
    """Exact descent-count histogram over all (2n-1)!! matchings."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > ENUMERATION_BUDGET:
        raise BudgetError("n", n, ENUMERATION_BUDGET)
    coeffs = [0] * (2 * n)
    for m in enumerate_matchings(n):
        coeffs[descent_stats(m).descent_count] += 1
    return DescentPolynomial(n, tuple(coeffs))


@lru_cache(maxsize=16)
def _gf_coeffs(n: int) -> tuple[int, ...]:
    # Every exact-coefficient entry point comes through here, so the
    # budget is enforced once, where the O(n^2) big-int work is done.
    if n > COEFFICIENT_BUDGET:
        raise BudgetError("n", n, COEFFICIENT_BUDGET)
    # Multiply sum_k g_k t^k by (1 - t) 2n+1 times, truncated at degree n;
    # the slice assignment consumes the whole map (old values only) before
    # it writes.  The palindrome c_{n+j} = c_{n-j} gives degrees n+1 .. 2n-1.
    c = [math.comb(k * (k + 1) // 2 + n - 1, n) for k in range(n + 1)]
    for _ in range(2 * n + 1):
        c[1:] = map(operator.sub, c[1:], c)
    coeffs = tuple(c + c[n - 1 : 0 : -1])
    _check_moments(n, coeffs)
    return coeffs


def _check_moments(n: int, coeffs: Sequence[int]) -> None:
    """Raise ArithmeticError unless coeffs has the known law's first moments.

    The count (2n-1)!!, the mean n and the variance var_d of the descent
    count are established independently of the generating function, so
    they test the differencing and the mirroring from outside.
    """
    total = double_factorial(2 * n - 1)
    if sum(coeffs) != total:
        raise ArithmeticError(f"coefficients at n={n} do not sum to (2n-1)!!")
    if sum(m * c for m, c in enumerate(coeffs)) != n * total:
        raise ArithmeticError(f"coefficients at n={n} do not have mean n")
    second = sum(m * m * c for m, c in enumerate(coeffs))
    if Fraction(second, total) - n * n != closed_form_moments(n).var_d:
        raise ArithmeticError(f"coefficients at n={n} do not have variance var_d")


def polynomial_by_gf(n: int) -> DescentPolynomial:
    """Exact descent-count coefficients from the generating function.

    c_m is the coefficient of t^m in (1 - t)^(2n+1) * sum_k g_k t^k with
    g_k = C(k(k+1)/2 + n - 1, n); only k <= m contributes to it, so the
    series is cut at degree n and differenced 2n+1 times, and degrees
    n+1 .. 2n-1 are mirrored from the palindrome c_m = c_{2n-m}.  The
    result is checked against the count (2n-1)!!, the mean n and the
    variance of closed_form_moments(n), raising ArithmeticError otherwise.
    Raises BudgetError for n > COEFFICIENT_BUDGET, as does every function
    built on these coefficients.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return DescentPolynomial(n, _gf_coeffs(n))


def _mirrored_law(
    n: int, ratio: Callable[[int, int], _P]
) -> tuple[tuple[int, _P], ...]:
    """(m, ratio(c_m, (2n-1)!!)) for every nonzero c_m.

    ratio is called for m <= n only; m = n+1 .. 2n-1 reuse the value at
    2n - m, as the coefficients themselves do.
    """
    coeffs = _gf_coeffs(n)  # first: it enforces the budget before (2n-1)!! is built
    total = double_factorial(2 * n - 1)
    half = [ratio(c, total) for c in coeffs[: n + 1]]
    law = half + half[n - 1 : 0 : -1]
    return tuple((m, p) for m, (c, p) in enumerate(zip(coeffs, law)) if c)


@lru_cache(maxsize=16)
def _exact_distribution(n: int) -> tuple[tuple[int, Fraction], ...]:
    return _mirrored_law(n, Fraction)


@lru_cache(maxsize=16)
def _exact_floats(n: int) -> tuple[tuple[int, float], ...]:
    # int true division is correctly rounded, so each value equals
    # float(Fraction(c_m, total)) bit for bit without the gcd
    return _mirrored_law(n, operator.truediv)


def exact_distribution(n: int) -> list[tuple[int, Fraction]]:
    """P(D = m) = c_m / (2n-1)!! as exact rationals, nonzero entries only.

    Only m <= n is reduced to lowest terms; m = n+1 .. 2n-1 repeat the
    value at 2n - m by the palindrome.  Raises BudgetError for
    n > COEFFICIENT_BUDGET before (2n-1)!! is built.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return list(_exact_distribution(n))


def mgf_Wn(n: int, s: float) -> float:
    """MGF of W = (D - n)/sqrt(n) at s, from the exact distribution.

    Each probability is the correctly rounded float of c_m / (2n-1)!!,
    taken by integer division without forming a Fraction, and the
    weighted exponentials are summed with math.fsum.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    sqrt_n = math.sqrt(n)
    try:
        terms = [
            p * math.exp(s * (m - n) / sqrt_n) for m, p in _exact_floats(n)
        ]
    except OverflowError:
        raise OverflowError(
            f"exp overflow evaluating the MGF at n={n}, s={s}"
        ) from None
    return math.fsum(terms)


class MgfEntry(NamedTuple):
    n: int
    s: float
    mgf_value: float
    target: float
    abs_error: float


@dataclass(frozen=True)
class MgfReport:
    """Pointwise MGF values against the limit exp(s^2/12)."""

    entries: tuple[MgfEntry, ...]

    def to_json(self) -> str:
        return json.dumps(
            {
                "entries": [
                    {
                        "n": e.n,
                        "s": _sig12(e.s),
                        "mgf_value": _sig12(e.mgf_value),
                        "target": _sig12(e.target),
                        "abs_error": _sig12(e.abs_error),
                    }
                    for e in self.entries
                ]
            }
        )


def mgf_convergence_report(
    n_list: Sequence[int], s_list: Sequence[float]
) -> MgfReport:
    """Tabulate |MGF(s) - exp(s^2/12)| for every (n, s) pair.

    Also re-evaluates each MGF at -s and insists on evenness within
    1e-12, a consequence of the coefficient palindrome.
    """
    entries = []
    for n in n_list:
        for s in s_list:
            value = mgf_Wn(n, s)
            mirrored = mgf_Wn(n, -s)
            if abs(value - mirrored) > _EVENNESS_TOL:
                raise ArithmeticError(
                    f"MGF evenness violated at n={n}, s={s}: "
                    f"{value!r} vs {mirrored!r}"
                )
            target = math.exp(s * s / 12.0)
            entries.append(MgfEntry(n, s, value, target, abs(value - target)))
    return MgfReport(tuple(entries))


def _stirling_tail(z: np.ndarray) -> np.ndarray:
    # lnGamma(z) - [(z - 1/2) log z - z + log(2 pi)/2]; the first omitted
    # term, 1/(1188 z^9), is below 1e-12 for z >= 10
    r = 1.0 / z
    r2 = r * r
    return r * (1 / 12 + r2 * (-1 / 360 + r2 * (1 / 1260 - r2 / 1680)))


def _log_gamma_ratio(x: np.ndarray, n: int) -> np.ndarray:
    """lnGamma(x + n) - lnGamma(x) for x >= 10, without cancelling two lgammas."""
    out = np.log1p(n / x)
    out *= x - 0.5
    out += n * np.log(x + n) - n
    out += _stirling_tail(x + n)
    out -= _stirling_tail(x)
    return out


def mgf_series_factor(n: int, s: float) -> float:
    """The series factor of the normalized-descent MGF; its limit is 1.

    Evaluates (s/sqrt(n))^(2n+1) / (2n)! * sum_k prod_{j<n} (k^2+k+2j)
    * exp(-k s / sqrt(n)) in log space, with the outer sum a log-sum-exp.
    With x = (k^2+k)/2 the product is 2^n Gamma(x+n)/Gamma(x): for k <= 3
    its logarithm is summed factor by factor, and for k >= 4 (x >= 10) it
    comes from one Stirling-series difference per k, so the work is O(n)
    once plus O(terms) per pass.  The sum starts at 1024 terms and doubles
    until the last term's log magnitude falls below -40 nats.  A pass
    that provably ends while the terms still rise is skipped; each pass
    recomputes every term, so skipping does not change the value.  Raises
    BudgetError, before any array is built, once a pass taken or skipped
    would have n + terms above SERIES_BUDGET.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 < s < math.inf:
        raise ValueError(f"s must be positive and finite, got {s}")

    def charge(k_hi: int) -> None:
        if n + k_hi > SERIES_BUDGET:
            raise BudgetError("n+terms", n + k_hi, SERIES_BUDGET)

    decay = s / math.sqrt(n)

    def rises_through(k: int) -> bool:
        # d/dk sum_j log(k^2+k+2j) >= n(2k+1)/(k^2+k+2n-2); the bound is
        # 3/2 at k = 1 and unimodal, so where it exceeds decay at 1 and at
        # k it does on all of [1, k], the log terms rise up to k, and a
        # pass ending at k cannot end the doubling
        return decay < 1.5 and n * (2 * k + 1) > decay * (k * k + k + 2 * n - 2)

    k_hi = 1024
    charge(k_hi)
    while rises_through(k_hi):
        k_hi *= 2
        charge(k_hi)
    log_prefactor = (2 * n + 1) * (math.log(s) - 0.5 * math.log(n)) - math.lgamma(
        2 * n + 1
    )
    # term for k = 0 is exactly zero (the j = 0 factor vanishes)
    two_j = 2.0 * np.arange(n, dtype=np.float64)
    head = [
        log_prefactor + math.fsum(np.log(two_j + (k * k + k))) - decay * k
        for k in (1, 2, 3)
    ]
    while True:
        k = np.arange(4, k_hi + 1, dtype=np.float64)
        log_terms = _log_gamma_ratio((k * k + k) * 0.5, n)
        log_terms += log_prefactor + n * math.log(2.0)
        log_terms -= decay * k
        log_terms = np.concatenate((head, log_terms))
        # terms rise until k*s/sqrt(n) overtakes the 2n*log(k) growth; the
        # truncation is sound only once the peak lies strictly inside the
        # range and the last term has dropped below -40 nats
        peak_idx = int(log_terms.argmax())
        tail_log = float(log_terms[-1])
        if peak_idx < k_hi - 1 and tail_log < min(-40.0, log_terms[peak_idx] - 40.0):
            break
        k_hi *= 2
        charge(k_hi)
    peak = float(log_terms[peak_idx])
    return math.exp(peak + math.log(float(np.exp(log_terms - peak).sum())))


def _normal_cdf(x: float, sigma: float) -> float:
    return 0.5 * (1.0 + math.erf(x / (sigma * math.sqrt(2.0))))


def exact_ks_distance(n: int) -> float:
    """KS distance between the exact lattice law of W and N(0, 1/6).

    Both one-sided gaps are measured at every atom, so this is the true
    supremum distance; there is no sampling noise.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    sigma = math.sqrt(_TARGET_VAR)
    sqrt_n = math.sqrt(n)
    cum = 0.0
    dist = 0.0
    for m, p in _exact_floats(n):
        target = _normal_cdf((m - n) / sqrt_n, sigma)
        dist = max(dist, target - cum)
        cum += p
        dist = max(dist, cum - target)
    return dist


@dataclass(frozen=True)
class CltReport:
    """Monte Carlo comparison of W samples against N(0, 1/6)."""

    n: int
    num_samples: int
    seed: int
    sample_mean_W: float
    sample_var_W: float
    ks_distance: float
    target_var: float = _TARGET_VAR

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "num_samples": self.num_samples,
                "seed": self.seed,
                "sample_mean_W": _sig12(self.sample_mean_W),
                "sample_var_W": _sig12(self.sample_var_W),
                "ks_distance": _sig12(self.ks_distance),
                "target_var": _sig12(self.target_var),
            }
        )


def _descent_counts_range(n: int, seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start, dtype=np.int64)
    for k in range(start, stop):
        partner = _random_partner(n, _rng_for(seed, k))
        out[k - start] = np.count_nonzero(partner[:-1] > partner[1:])
    return out


def _resolve_workers(threads: int | None) -> int:
    # The output does not depend on the worker count, so capping it at the
    # core count only bounds how many processes a large request starts.
    if threads is None:
        env = os.environ.get("MATCHSTAT_THREADS", "")
        try:
            threads = int(env) if env else 1
        except ValueError:
            raise ValueError(
                f"MATCHSTAT_THREADS must be a positive integer, got {env!r}"
            ) from None
    if threads < 1:
        raise ValueError("thread count must be >= 1")
    return min(threads, os.cpu_count() or 1)


def clt_experiment(
    n: int, num_samples: int, seed: int, threads: int | None = None
) -> CltReport:
    """Sample W = (D - n)/sqrt(n) and compare against N(0, 1/6).

    Sample k is drawn from RNG stream k, so the output is independent of
    how the work is split across processes; ``threads`` (default: the
    MATCHSTAT_THREADS environment variable, else 1) caps the worker
    count, which is further capped at the number of cores.  Reports the
    sample mean and variance of W and the KS distance, with both
    one-sided gaps measured at every sample lattice point.  The sample
    variance needs ``num_samples >= 2``; n > SAMPLE_BUDGET raises
    BudgetError before any draw.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if num_samples < 2:
        raise ValueError("num_samples must be >= 2")
    _check_sample_budget(n)
    workers = _resolve_workers(threads)
    if workers == 1 or num_samples < 4 * workers:
        counts = _descent_counts_range(n, seed, 0, num_samples)
    else:
        bounds = np.linspace(0, num_samples, 4 * workers + 1, dtype=int)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_descent_counts_range, n, seed, int(a), int(b))
                for a, b in zip(bounds[:-1], bounds[1:])
            ]
            counts = np.concatenate([f.result() for f in futures])
    sqrt_n = math.sqrt(n)
    w = (counts - n) / sqrt_n
    mean = float(w.mean())
    var = float(w.var(ddof=1))

    sigma = math.sqrt(_TARGET_VAR)
    freq = np.bincount(counts)
    cum = 0
    dist = 0.0
    for m in np.nonzero(freq)[0].tolist():
        target = _normal_cdf((m - n) / sqrt_n, sigma)
        dist = max(dist, target - cum / num_samples)
        cum += int(freq[m])
        dist = max(dist, cum / num_samples - target)
    return CltReport(n, num_samples, seed, mean, var, dist)


def _sig12(x: float) -> float:
    """Round a float to 12 significant digits for report emission."""
    return float(f"{x:.12g}")
