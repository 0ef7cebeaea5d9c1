"""Exact descent-count polynomials from the generating function.

The coefficient c_m counts matchings of S_{2n} with exactly m descents.
Multiplying the series sum_k C(k(k+1)/2 + n - 1, n) t^k by (1 - t)^(2n+1),
one first difference at a time, produces every c_m in exact integer
arithmetic, for n far beyond what enumeration can reach; for small n the
two routes must agree coefficient for coefficient.
"""

from matchstat import (
    double_factorial,
    exact_distribution,
    polynomial_by_enumeration,
    polynomial_by_gf,
)
from matchstat.cli import main

# ---------------------------------------------------------------------
# Both routes, side by side, for n = 3.
# ---------------------------------------------------------------------
n = 3
gf = polynomial_by_gf(n)
enum = polynomial_by_enumeration(n)
print(f"n={n}  ({double_factorial(2*n - 1)} matchings)")
print("m | generating function | enumeration")
for m, (a, b) in enumerate(zip(gf.coeffs, enum.coeffs)):
    print(f"{m} | {a:19d} | {b}")
assert gf.coeffs == enum.coeffs
print()

# ---------------------------------------------------------------------
# The coefficients are palindromic: c_m = c_{2n-m}.  That is the
# conjugation involution at work (it sends m descents to 2n - m).
# ---------------------------------------------------------------------
n = 12
coeffs = polynomial_by_gf(n).coeffs
print(f"n={n}: c_1..c_5 = {coeffs[1:6]}")
print(f"       mirrored  = {tuple(coeffs[2*n - m] for m in range(1, 6))}")
assert all(coeffs[m] == coeffs[2 * n - m] for m in range(1, 2 * n))
print(f"sum of coefficients = {sum(coeffs)} = (2n-1)!! = "
      f"{double_factorial(2*n - 1)}")
print()

# ---------------------------------------------------------------------
# Exact probabilities for a modest n; the mode sits at m = n.
# ---------------------------------------------------------------------
n = 8
dist = exact_distribution(n)
mode = max(dist, key=lambda mp: mp[1])
print(f"n={n}: support {dist[0][0]}..{dist[-1][0]}, mode at m={mode[0]} "
      f"with probability {float(mode[1]):.4f}")
print("CSV emission of the polynomial (matchstat poly --n 2 --format csv):")
assert main(["poly", "--n", "2", "--format", "csv"]) == 0
