"""Shared fixtures."""

import pytest

from matchstat import polynomial_by_gf


@pytest.fixture(scope="session")
def coeffs_1000():
    """The exact descent coefficients at n = 1000, built once per session.

    A cold build takes about a second, and the 16-entry cache behind
    polynomial_by_gf is emptied between the tests that need it.
    """
    return polynomial_by_gf(1000).coeffs
