"""Descent statistics of matchings (fixed-point-free involutions).

Exact moment formulas with a brute-force oracle, the bijection to
oscillating tableaux with its conjugation symmetry, exact
descent-generating polynomials, and numerical verification that the
normalized descent count converges to N(0, 1/6).

The package exports each module's ``__all__``, in module order.
"""

from . import bijection, distribution, matchings, tableaux
from .bijection import *  # noqa: F403
from .distribution import *  # noqa: F403
from .matchings import *  # noqa: F403
from .tableaux import *  # noqa: F403

__version__ = "0.1.0"

__all__ = list(
    dict.fromkeys(
        name
        for module in (matchings, tableaux, bijection, distribution)
        for name in module.__all__
    )
)
