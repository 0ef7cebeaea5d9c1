"""Exact raw moments of the descent count from the generating function alone.

g(k) = C(k(k+1)/2 + n - 1, n) is a polynomial in k of degree 2n, and
sum_k g(k) t^k = A(t) / (1 - t)^(2n+1) with A(t) = sum_m c_m t^m, so
g(k) = sum_m c_m C(k - m + 2n, 2n).  Multiplied by (2n)! = 2^n n! (2n-1)!!
this reads

    prod_{i<n} (k^2 + k + 2i) = E[ prod_{i=1..2n} (k - D + i) ],

an identity of polynomials in k.  The coefficient of k^(2n-r) on the left
is a_r = sum_{2i+l=r} 2^i e_i(0..n-1) C(n-i, l), and on the right
sum_{j+l=r} e_j(1..2n) C(2n-j, l) (-1)^l mu'_l, with e the elementary
symmetric sums.  Solved for the l = r term, each raw moment mu'_r = E[D^r]
follows from the lower ones in O(nr) integer work, for every r <= 2n,
with no coefficient c_m and no enumeration.
"""

import math
from fractions import Fraction


def _elementary(values, top: int) -> list[int]:
    """e_0 .. e_top of the given integers."""
    e = [1] + [0] * top
    for v in values:
        for i in range(top, 0, -1):
            e[i] += v * e[i - 1]
    return e


def raw_moments(n: int, order: int) -> list[Fraction]:
    """E[D^r] for r = 0 .. order, D the descent count of a uniform matching of S_{2n}."""
    if not 0 <= order <= 2 * n:
        raise ValueError("need 0 <= order <= 2n")
    low = _elementary(range(n), order // 2)  # e_i(0 .. n-1)
    high = _elementary(range(1, 2 * n + 1), order)  # e_j(1 .. 2n)
    moments: list[Fraction] = []
    for r in range(order + 1):
        a_r = sum(
            2**i * low[i] * math.comb(n - i, r - 2 * i) for i in range(r // 2 + 1)
        )
        lower = sum(
            (-1) ** l * math.comb(2 * n - r + l, l) * high[r - l] * moments[l]
            for l in range(r)
        )
        moments.append((-1) ** r * Fraction(a_r - lower, math.comb(2 * n, r)))
    return moments


def central_moment(n: int, r: int) -> Fraction:
    """E[(D - n)^r]; the mean of D is n."""
    raw = raw_moments(n, r)
    return sum(math.comb(r, k) * raw[k] * (-n) ** (r - k) for k in range(r + 1))
