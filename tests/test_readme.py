"""The README's library quickstart, run as a doctest."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted >= 8
    assert result.failed == 0
