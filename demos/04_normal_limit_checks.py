"""Convergence of the normalized descent count to N(0, 1/6).

With D the descent count of a uniform matching of S_{2n}, the normalized
variable W = (D - n)/sqrt(n) converges in distribution to a centered
normal with variance 1/6.  Three complementary checks:

  1. pointwise MGF values against the limit exp(s^2/12),
  2. the exact Kolmogorov-Smirnov distance of the lattice law of W,
  3. a seeded Monte Carlo experiment,

plus the series factor of the MGF, whose limit is 1.
"""

import math

from matchstat import (
    clt_experiment,
    exact_ks_distance,
    mgf_convergence_report,
    mgf_series_factor,
    mgf_Wn,
)
from matchstat.cli import main

# ---------------------------------------------------------------------
# MGF convergence: the error at s = 1 shrinks roughly like 1/n.
# ---------------------------------------------------------------------
entries = mgf_convergence_report([10, 50, 200, 400], [1.0])
print(f"target exp(1/12) = {math.exp(1/12):.9f}")
for e in entries:
    print(f"  n={e.n:4d}: MGF(1) = {e.mgf_value:.9f}   error {e.abs_error:.2e}")
print(f"evenness: MGF(1) - MGF(-1) = {mgf_Wn(400, 1.0) - mgf_Wn(400, -1.0):.1e}")
print()

# ---------------------------------------------------------------------
# Exact KS distance: no sampling, just the lattice law vs the normal CDF.
# The residual distance is dominated by the lattice spacing 1/sqrt(n).
# ---------------------------------------------------------------------
for n in (10, 50, 200):
    print(f"  n={n:4d}: exact KS distance to N(0, 1/6) = {exact_ks_distance(n):.4f}")
print()

# ---------------------------------------------------------------------
# The series factor of the MGF tends to 1 (from above, roughly like
# exp(s/(2 sqrt(n)))), and never falls below exp(-s/sqrt(n)).
# ---------------------------------------------------------------------
s = 1.0
for n in (25, 100, 400):
    value = mgf_series_factor(n, s)
    print(f"  n={n:4d}: series factor {value:.6f}   "
          f"lower bound {math.exp(-s/math.sqrt(n)):.6f}")
print()

# ---------------------------------------------------------------------
# Monte Carlo: sample matchings, normalize the descent counts, compare.
# Fixed seed, so this prints the same numbers every run.
# ---------------------------------------------------------------------
rep = clt_experiment(n=500, num_samples=20000, seed=42)
print(f"n={rep.n}, {rep.num_samples} samples (seed {rep.seed}):")
print(f"  sample mean of W  = {rep.sample_mean_W:+.5f}  (limit 0)")
print(f"  sample var of W   = {rep.sample_var_W:.5f}  (limit 1/6 = {1/6:.5f})")
print(f"  KS vs N(0, 1/6)   = {rep.ks_distance:.5f}")
# The same check from the command line, on fewer samples, as JSON; exit
# code 1 would mean a failed threshold, 2 or 3 an error.
argv = ["clt", "--n", "500", "--samples", "2000", "--seed", "42", "--format", "json"]
print(f"JSON report (matchstat {' '.join(argv)}):")
assert main(argv) in (0, 1)
