"""One-off cross-check of per-call times against the Baseline in ROADMAP.md.

    python3 perfbench/baseline.py

Times, with the benchmark's own tracer and in one fresh process,
sample_uniform at n = 1000, conjugate_matching at 2n = 100 and
polynomial_by_gf with a cold cache at n = 200 and n = 500, and prints
each median beside the range the Baseline quotes.  n = 1000 (about 33 s
in the Baseline) is left out on purpose, as it is from every workload.
"""

from __future__ import annotations

import sys
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import matchstat as ms  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import rng, shuffle_pair  # noqa: E402

#: (low, high) seconds per call, from the Baseline section of ROADMAP.md
BASELINE = {
    "sample_uniform n=1000": (0.5e-3, 0.6e-3),
    "conjugate_matching 2n=100": (3.0e-3, 4.6e-3),
    "polynomial_by_gf n=200 cold": (60e-3, 80e-3),
    "polynomial_by_gf n=500 cold": (2.0, 2.0),
}


def main() -> int:
    tr = Tracer()
    for stream in range(100):
        tr.call("sample_uniform n=1000", ms.sample_uniform, 1000, 1, stream)
    r = rng(1, "baseline")
    for _ in range(100):
        tr.call("conjugate_matching 2n=100", ms.conjugate_matching, shuffle_pair(50, r))
    for n in (200, 500):
        tr.call(f"polynomial_by_gf n={n} cold", ms.polynomial_by_gf, n)
    print(f"{'call':<30} {'median':>10} {'baseline':>17} {'ratio':>6}")
    for name, (lo, hi) in BASELINE.items():
        t = median(s.end - s.start for s in tr.spans if s.name == name)
        ref = f"{lo * 1e3:g}-{hi * 1e3:g} ms" if lo != hi else f"{lo * 1e3:g} ms"
        ratio = t / ((lo + hi) / 2)
        print(f"{name:<30} {t * 1e3:>7.3f} ms {ref:>17} {ratio:>6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
