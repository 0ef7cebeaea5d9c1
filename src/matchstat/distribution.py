"""Exact descent-count distributions and normal-limit diagnostics.

The number c_m of matchings of S_{2n} with exactly m descents is the
coefficient of t^m in a generating-function identity,

    sum_m c_m t^m = (1 - t)^(2n+1) * sum_k C(k(k+1)/2 + n - 1, n) t^k,

evaluated exactly by taking first differences of the series 2n+1 times
(subtraction only) up to degree n; the palindrome c_m = c_{2n-m} gives
the rest.  The series is seeded without division, by the falling
factorials (x+n-1)_n = n! C(x+n-1, n) at x = k(k+1)/2 shifted right by
v2(n!) = n - popcount(n): u times each term, with u the odd part of n!.
The differencing runs in numpy, modulo 2^(32L) with L =
bitlen((2n-1)!!) // 32 + 1, on int64 arrays of 32-bit limbs whose carries
are moved up every 29 passes, before a limb can overflow, and at the
end until every limb lies in [0, 2^32); each row is then read back as
one integer and multiplied by the one inverse of the odd u modulo
2^(32L).  That is exact: differencing commutes with reduction modulo
any integer, u is a unit modulo a power of two, and every c_m lies in
[0, (2n-1)!!], below 2^(32L), so each residue is c_m itself.
Every computation checks the result against the count (2n-1)!!, the
mean n and the variance of the descent count, all known in closed form.
On top of the exact distribution sit the diagnostics for convergence of
the normalized descent count W = (D - n)/sqrt(n) to N(0, 1/6):
pointwise MGF values against exp(s^2/12), a deterministic
Kolmogorov-Smirnov distance, a Monte Carlo experiment, and the series
factor of the MGF whose limit is 1.

Numerical care: the float probabilities behind the MGF and the KS
distance are c_m / (2n-1)!! by correctly rounded integer division
(relative error <= 2^-53, the same float as rounding the exact rational),
formed for m <= n and mirrored like the coefficients; MGF sums use
math.fsum, and the series factor is evaluated entirely in log space via
log-sum-exp because (2n)! overflows floats from n = 86 on, with its
terms evaluated in blocks, at about 24 bytes per term; a list of series
factors is built in one doubling loop and charged as a whole, n plus the
terms of every pass it takes or skips, against SERIES_BUDGET.
Each function that builds arrays imports numpy itself, so a process that
only enumerates never loads it, and clt_experiment imports the process
pool only when it starts more than one worker.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence, TypeVar

from .matchings import (
    ENUMERATION_BUDGET,
    BudgetError,
    _check_draws,
    _check_n,
    _integer,
    _partners,
    _unchecked,
    closed_form_moments,
    descent_stats,
    double_factorial,
    enumerate_matchings,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ENUMERATION_BUDGET",
    "COEFFICIENT_BUDGET",
    "MGF_BUDGET",
    "SERIES_BUDGET",
    "BudgetError",
    "DescentPolynomial",
    "CltReport",
    "MgfEntry",
    "polynomial_by_enumeration",
    "polynomial_by_gf",
    "exact_distribution",
    "mgf_Wn",
    "mgf_convergence_report",
    "mgf_series_factor",
    "clt_experiment",
    "exact_ks_distance",
]

#: Largest n for which exact coefficients are computed on demand.
COEFFICIENT_BUDGET = 1000

#: Largest work of one MGF report, in limb updates: each distinct n costs
#: the (2n+1)(n+1)L of its cold coefficients in ``_difference``, L =
#: bitlen((2n-1)!!) // 32 + 1, cached or not, and each (n, s) value its
#: 2n - 1 exponentials at _EXP_WORK each.  n = 1000 at one s costs 5.99e8;
#: the costliest request found within it, ``mgf --n 1,2,...,358``, takes
#: 2.4-4.5 s and 35 MB in a fresh process on one core of a 2-vCPU VM.
MGF_BUDGET = 2**31

#: Limb updates charged for one exponential of an MGF value: about its
#: time, call included, at n = 1, and about three times it at n = 1000.
_EXP_WORK = 1024

#: Largest n + (number of terms) a request of MGF series factors may
#: build: each value charges its n and every pass it takes or skips
#: charges its terms, across the whole list.
SERIES_BUDGET = 2**22

_TARGET_VAR = 1.0 / 6.0

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
    n = _check_n(n)
    if n > ENUMERATION_BUDGET:
        raise BudgetError("n", n, ENUMERATION_BUDGET)
    coeffs = [0] * (2 * n)
    for m in enumerate_matchings(n):
        coeffs[descent_stats(m).descent_count] += 1
    return _unchecked(DescentPolynomial, n=n, coeffs=tuple(coeffs))


#: A carry pass runs at least this often: it leaves every limb below 2^33
#: in magnitude, and each difference pass at most doubles that, so limbs
#: stay below 2^62 and int64 never overflows.
_PASSES_PER_CARRY = 29


def _carry(a: np.ndarray, carry: np.ndarray) -> None:
    """Move each limb's bits above 32 into the next limb.

    The carry out of the top limb is dropped, which is the reduction
    modulo 2^(32L).  Afterwards the low limb lies in [0, 2^32) and every
    other limb in [-2^31, 2^32 + 2^31).
    """
    import numpy as np

    np.right_shift(a, 32, out=carry)
    a &= 0xFFFFFFFF
    a[:, 1:] += carry[:, :-1]


def _difference(
    g: Sequence[int], passes: int, bits: int, unit: int = 1
) -> list[int]:
    """Apply c[k] -= c[k-1] (k >= 1, old values) ``passes`` times to g / unit.

    Works modulo 2^(32L), L = bits // 32 + 1, in an int64 array of 32-bit
    limbs, one row per term.  Differencing is a ring map, so the results
    are exact whenever each of them lies in [0, 2^bits).  ``unit`` is odd,
    hence invertible modulo 2^(32L): g is differenced as given and each
    result is multiplied by the one inverse of unit as it is read back.
    """
    import numpy as np

    limbs = bits // 32 + 1
    width = 4 * limbs
    mask = (1 << 32 * limbs) - 1
    packed = b"".join((x & mask).to_bytes(width, "little") for x in g)
    a = np.frombuffer(packed, dtype="<u4").reshape(len(g), limbs).astype(np.int64)
    b = a.copy()  # row 0 never changes, so both buffers keep it
    carry = np.empty_like(a)
    for done in range(1, passes + 1):
        np.subtract(a[1:], a[:-1], out=b[1:])
        a, b = b, a
        if done % _PASSES_PER_CARRY == 0:
            _carry(a, carry)
    # carry out until every limb lies in [0, 2^32)
    while np.right_shift(a, 32, out=carry).any():
        _carry(a, carry)
    rows = a.astype("<u4").tobytes()
    inverse = pow(unit, -1, mask + 1)
    return [
        int.from_bytes(rows[i : i + width], "little") * inverse & mask
        for i in range(0, len(rows), width)
    ]


@lru_cache(maxsize=16)
def _gf_coeffs(n: int) -> tuple[int, ...]:
    # Every exact-coefficient entry point comes through here, so the
    # budget is enforced once, where the O(n^2) limb work is done.
    if n > COEFFICIENT_BUDGET:
        raise BudgetError("n", n, COEFFICIENT_BUDGET)
    # Multiply sum_k g_k t^k by (1 - t) 2n+1 times, truncated at degree n.
    # Every c_m lies in [0, (2n-1)!!], so differencing modulo a power of
    # two above (2n-1)!! is exact.  The palindrome c_{n+j} = c_{n-j} gives
    # degrees n+1 .. 2n-1.  The seed is u g_k with u the odd part of n!:
    # the falling factorial (x+n-1)_n = n! g_k at x = k(k+1)/2, shifted
    # right by v2(n!) = n - popcount(n), takes no division.
    total = double_factorial(2 * n - 1)
    twos = n - bin(n).count("1")
    g = [math.perm(k * (k + 1) // 2 + n - 1, n) >> twos for k in range(n + 1)]
    c = _difference(g, 2 * n + 1, total.bit_length(), math.factorial(n) >> twos)
    coeffs = tuple(c + c[n - 1 : 0 : -1])
    _check_moments(n, coeffs, total)
    return coeffs


def _check_moments(n: int, coeffs: Sequence[int], total: int) -> None:
    """Raise ArithmeticError unless coeffs has the known law's first moments.

    ``total`` is (2n-1)!!.  The count (2n-1)!!, the mean n and the
    variance var_d of the descent count are established independently of
    the generating function, so they test the differencing and the
    mirroring from outside.
    """
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
    seed is u g_k = (x+n-1)_n >> v2(n!) with x = k(k+1)/2 and u the odd
    part of n!, a falling factorial with no division.  The differencing
    works on it modulo 2^(32L), a power of 2^32 above (2n-1)!!, in numpy
    arrays of 32-bit limbs, and multiplies each result by the inverse of
    u modulo 2^(32L), computed once; since every c_m lies in
    [0, (2n-1)!!], the residues it returns are the integers.  The
    result is checked against the count (2n-1)!!, the mean n and the
    variance of closed_form_moments(n), raising ArithmeticError otherwise.
    Raises BudgetError for n > COEFFICIENT_BUDGET, as does every function
    built on these coefficients.
    """
    n = _check_n(n)
    return _unchecked(DescentPolynomial, n=n, coeffs=_gf_coeffs(n))


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
    n = _check_n(n)
    return list(_mirrored_law(n, Fraction))


def mgf_Wn(n: int, s: float) -> float:
    """MGF of W = (D - n)/sqrt(n) at s, from the exact distribution.

    Each probability is the correctly rounded float of c_m / (2n-1)!!,
    taken by integer division without forming a Fraction, and the
    weighted exponentials are summed with math.fsum.
    """
    n = _check_n(n)
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


def mgf_convergence_report(
    n_list: Sequence[int], s_list: Sequence[float]
) -> tuple[MgfEntry, ...]:
    """Tabulate |MGF(s) - exp(s^2/12)| for every (n, s) pair, n outermost.

    No evenness check is needed: the float law is mirrored from its lower
    half, so the terms of mgf_Wn(n, -s) are those of mgf_Wn(n, s) with m
    reflected to 2n - m, and math.fsum, being correctly rounded, returns
    the same value for both.  Before the first value, raises ValueError
    for an n that is not an integer >= 1, BudgetError for one above
    COEFFICIENT_BUDGET, in the order of the list, then BudgetError when
    the request costs more than MGF_BUDGET in all: the cold-coefficient
    work of each distinct n, and _EXP_WORK for each of the 2n - 1
    exponentials of each (n, s) value.
    """
    ns = []
    for n in n_list:
        n = _check_n(n)
        if n > COEFFICIENT_BUDGET:
            raise BudgetError("n", n, COEFFICIENT_BUDGET)
        ns.append(n)
    work = sum(
        (2 * n + 1) * (n + 1) * (double_factorial(2 * n - 1).bit_length() // 32 + 1)
        for n in set(ns)
    )
    work += _EXP_WORK * len(s_list) * sum(2 * n - 1 for n in ns)
    if work > MGF_BUDGET:
        raise BudgetError("mgf work", work, MGF_BUDGET)
    entries = []
    for n in ns:
        for s in s_list:
            value = mgf_Wn(n, s)
            target = math.exp(s * s / 12.0)
            entries.append(MgfEntry(n, s, value, target, abs(value - target)))
    return tuple(entries)


def _stirling_tail(z: np.ndarray) -> np.ndarray:
    # lnGamma(z) - [(z - 1/2) log z - z + log(2 pi)/2]; the first omitted
    # term, 1/(1188 z^9), is below 1e-12 for z >= 10
    r = 1.0 / z
    r2 = r * r
    return r * (1 / 12 + r2 * (-1 / 360 + r2 * (1 / 1260 - r2 / 1680)))


#: Terms per block of _log_gamma_ratio: a float64 temporary of 2^13 values
#: is 64 KiB, below glibc's 128 KiB mmap threshold, so it comes from the heap.
_TERM_BLOCK = 2**13


def _log_gamma_ratio(x: np.ndarray, n: int) -> np.ndarray:
    """lnGamma(x + n) - lnGamma(x) for x >= 10, without cancelling two lgammas.

    Evaluated in blocks of _TERM_BLOCK terms written into one output array,
    so a series factor holds about 24 bytes per term: its k, x and result.
    """
    import numpy as np

    out = np.empty_like(x)
    for a in range(0, len(x), _TERM_BLOCK):
        xb = x[a : a + _TERM_BLOCK]
        ob = out[a : a + _TERM_BLOCK]
        np.log1p(n / xb, out=ob)
        ob *= xb - 0.5
        ob += n * np.log(xb + n) - n
        ob += _stirling_tail(xb + n)
        ob -= _stirling_tail(xb)
    return out


def mgf_series_factor(n: int, s: float) -> float:
    """The series factor of the normalized-descent MGF; its limit is 1.

    Evaluates (s/sqrt(n))^(2n+1) / (2n)! * sum_k prod_{j<n} (k^2+k+2j)
    * exp(-k s / sqrt(n)) in log space, with the outer sum a log-sum-exp.
    With x = (k^2+k)/2 the product is 2^n Gamma(x+n)/Gamma(x): for k <= 3
    its logarithm is summed factor by factor, and for k >= 4 (x >= 10) it
    comes from one Stirling-series difference per k, so the factor costs
    O(n + terms).  One loop doubles the number of terms from 1024 until
    the last term's log magnitude falls below -40 nats.  One rule skips
    a pass that cannot end: the terms provably still rise at its last k.
    Each term is computed once, by the first pass built that reaches it,
    and later passes append theirs, so skipping does not change the
    value.  Raises BudgetError, before any array is built, once a pass
    taken or skipped would have n + terms above SERIES_BUDGET, and
    OverflowError naming n and s when the factor exceeds the float range.
    lemma41 runs the same loop over its whole list, against the one budget.

    Equivalently, the product is 2^n n! g_k with g_k = C(x+n-1, n) and
    (2n)! = 2^n n! (2n-1)!!, so the generating-function identity of
    polynomial_by_gf gives the factor, with d = s/sqrt(n), as
    (d / (1 - e^-d))^(2n+1) * sum_m c_m e^(-d m) / (2n-1)!!.
    """
    return _series_factors([n], s)[0]


def _series_factors(n_list: Sequence[int], s: float) -> list[float]:
    """mgf_series_factor(n, s) for each n of the list, in its order.

    The list is charged as a whole: before each pass, taken or skipped,
    BudgetError is raised when the n + terms of the values done, plus
    this n and the pass's terms, exceed SERIES_BUDGET.  Each value is
    checked when its turn comes, so a refusal may follow computed values.
    """
    import numpy as np

    values = []
    spent = 0  # n + terms of the values done
    for n in n_list:
        n = _check_n(n)
        if not 0 < s < math.inf:
            raise ValueError(f"s must be positive and finite, got {s}")
        decay = s / math.sqrt(n)
        log_prefactor = (2 * n + 1) * (
            math.log(s) - 0.5 * math.log(n)
        ) - math.lgamma(2 * n + 1)
        log_scale = log_prefactor + n * math.log(2.0)
        chunks: list[np.ndarray] = []  # the log terms of k = 1 .. k_lo - 1
        peak = -math.inf
        k_lo = 4
        k_hi = 512
        while True:
            k_hi *= 2
            if spent + n + k_hi > SERIES_BUDGET:
                raise BudgetError("n+terms", spent + n + k_hi, SERIES_BUDGET)
            # One rule skips a pass: it cannot end while the terms rise.
            # d/dk sum_j log(k^2+k+2j) >= n(2k+1)/(k^2+k+2n-2), and n(2k+1)
            # - decay(k^2+k+2n-2) is a quadratic in k, positive at k = 1
            # exactly when decay < 3/2, so positive on an interval [1, k2)
            # that holds k_hi here.
            if decay < 1.5 and n * (2 * k_hi + 1) > decay * (
                k_hi * k_hi + k_hi + 2 * n - 2
            ):
                continue
            if not chunks:  # k = 0 adds nothing: its j = 0 factor vanishes
                two_j = np.arange(0.0, 2.0 * n, 2.0)
                scratch = np.empty_like(two_j)
                head = []
                for k in (1, 2, 3):
                    np.add(two_j, k * k + k, out=scratch)
                    np.log(scratch, out=scratch)
                    head.append(log_prefactor + math.fsum(scratch) - decay * k)
                del two_j, scratch  # n floats each, freed before the pass's arrays
                chunks.append(np.array(head))
                peak = max(head)
            k = np.arange(k_lo, k_hi + 1, dtype=np.float64)
            chunk = _log_gamma_ratio((k * k + k) * 0.5, n)
            chunk += log_scale
            with np.errstate(over="ignore"):  # inf for s near the float max
                k *= decay
                chunk -= k
            del k
            chunks.append(chunk)
            k_lo = k_hi + 1
            peak = max(peak, float(chunk.max()))
            # the truncation is sound only once the peak lies strictly
            # inside the range and the last term has dropped below -40
            # nats; a last term 40 nats below the peak is not the peak
            if chunk[-1] < min(-40.0, peak - 40.0):
                break
        spent += n + k_hi
        log_terms = np.concatenate(chunks)
        del chunks
        log_terms -= peak
        np.exp(log_terms, out=log_terms)
        try:
            values.append(math.exp(peak + math.log(float(log_terms.sum()))))
        except OverflowError:
            raise OverflowError(
                f"exp overflow evaluating the series factor at n={n}, s={s}"
            ) from None
    return values


def _normal_cdf(x: float, sigma: float) -> float:
    return 0.5 * (1.0 + math.erf(x / (sigma * math.sqrt(2.0))))


def _lattice_ks(n: int, cdf: Iterable[tuple[int, float]]) -> float:
    """KS distance between a law of D and N(0, 1/6), on the scale of W.

    ``cdf`` yields (m, P(D <= m)) for each atom m of the law in increasing
    order.  Both one-sided gaps are measured at every atom, so this is the
    true supremum distance of the lattice law of W = (D - n)/sqrt(n).
    """
    sigma = math.sqrt(_TARGET_VAR)
    sqrt_n = math.sqrt(n)
    below = 0.0
    dist = 0.0
    for m, cum in cdf:
        target = _normal_cdf((m - n) / sqrt_n, sigma)
        dist = max(dist, target - below, cum - target)
        below = cum
    return dist


def exact_ks_distance(n: int) -> float:
    """KS distance between the exact lattice law of W and N(0, 1/6).

    The CDF is the running sum of the correctly rounded floats of the
    exact law, and both one-sided gaps are measured at every atom, so
    this is the true supremum distance; there is no sampling noise.
    """
    n = _check_n(n)
    atoms, masses = zip(*_exact_floats(n))
    return _lattice_ks(n, zip(atoms, accumulate(masses)))


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


def _descent_counts_range(n: int, seed: int, start: int, stop: int) -> np.ndarray:
    """Descent counts of the draws on streams start .. stop-1.

    Entry k - start counts the descents of the matching that
    sample_uniform(n, seed, k) returns, drawn from the same stream
    PCG64(SeedSequence(seed, spawn_key=(k,))), seeded as _partners
    seeds it, so the counts do not depend on how a range is cut; the
    caller has checked n, seed and start.
    """
    import numpy as np

    out = np.empty(stop - start, dtype=np.int64)
    is_descent = np.empty(2 * n - 1, dtype=bool)
    for i, partner in enumerate(_partners(n, seed, start, stop)):
        np.greater(partner[:-1], partner[1:], out=is_descent)
        out[i] = np.count_nonzero(is_descent)
    return out


def _resolve_workers(threads: int | None) -> int:
    # The output does not depend on the worker count, so capping it at the
    # core count only bounds how many processes a large request starts.
    if threads is None:
        env = os.environ.get("MATCHSTAT_THREADS", "")
        try:
            threads = int(env) if env else 1
        except ValueError:
            threads = 0  # refused below, like a count below 1
        if threads < 1:
            raise ValueError(
                f"MATCHSTAT_THREADS must be a positive integer, got {env!r}"
            )
    count = _integer(threads)
    if count is None:
        raise ValueError(f"thread count must be an integer, got {threads!r}")
    if count < 1:
        raise ValueError("thread count must be >= 1")
    return min(count, os.cpu_count() or 1)


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
    variance needs an integer ``num_samples >= 2``.  Then, before any draw
    or worker pool, the request is checked in the order of
    matchings._check_draws: BudgetError for n > SAMPLE_BUDGET, then for a
    draw cost num_samples * max(2n, 1024) above DRAW_BUDGET, then
    ValueError for a seed outside [0, 2^64); last, ValueError unless the
    worker count is an integer >= 1.
    """
    import numpy as np

    n = _check_n(n)
    samples = _integer(num_samples)
    if samples is None:
        raise ValueError(f"num_samples must be an integer, got {num_samples!r}")
    if samples < 2:
        raise ValueError("num_samples must be >= 2")
    num_samples = samples
    _check_draws(n, seed, 0, num_samples)
    workers = _resolve_workers(threads)
    if workers == 1 or num_samples < 4 * workers:
        counts = _descent_counts_range(n, seed, 0, num_samples)
    else:
        from concurrent.futures import ProcessPoolExecutor

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

    freq = np.bincount(counts)
    atoms = np.flatnonzero(freq)
    cdf = np.cumsum(freq)[atoms] / num_samples
    ks = _lattice_ks(n, zip(atoms.tolist(), cdf.tolist()))
    return CltReport(n, num_samples, seed, mean, var, ks)
