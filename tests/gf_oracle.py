"""Direct coefficient oracle for the descent generating function.

c_m = sum_{k=0}^{m} (-1)^(m-k) C(2n+1, m-k) C(k(k+1)/2 + n - 1, n), the
coefficient of t^m in (1 - t)^(2n+1) * sum_k C(k(k+1)/2 + n - 1, n) t^k
written out as one alternating convolution.  The library computes the same
product by repeated differencing; this independent route checks it.
"""

import math


def gf_coefficient(n: int, m: int) -> int:
    """One coefficient of the generating-function expansion, any degree."""
    total = 0
    for k in range(m + 1):
        term = math.comb(2 * n + 1, m - k) * math.comb(k * (k + 1) // 2 + n - 1, n)
        total += -term if (m - k) & 1 else term
    return total
