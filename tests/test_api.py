"""The public surface: one ``__all__`` per module, re-exported whole."""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import matchstat
from matchstat import bijection, distribution, matchings, tableaux

MODULES = (matchings, tableaux, bijection, distribution)


def test_package_exports_exactly_the_module_exports():
    union = set().union(*(module.__all__ for module in MODULES))
    assert set(matchstat.__all__) == union
    assert len(matchstat.__all__) == len(set(matchstat.__all__))


def test_every_exported_name_resolves():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(matchstat, name) is getattr(module, name), name


def test_one_unchecked_constructor():
    # a value built from parts just checked skips its check in one place only
    src = Path(matchstat.__file__).parent
    sites = [
        path.name
        for path in sorted(src.glob("*.py"))
        for line in path.read_text().splitlines()
        if "object.__new__" in line
    ]
    assert sites == ["matchings.py"]
    assert "object.__new__" in inspect.getsource(matchings._unchecked)


def test_removed_names_stay_removed():
    for name in ("MgfReport", "removed_box"):
        assert not hasattr(matchstat, name)
        assert all(not hasattr(module, name) for module in MODULES)
    assert not hasattr(matchstat.CltReport, "to_json")


#: Modules that only the commands building arrays, or a worker pool, need.
HEAVY_MODULES = (
    "numpy",
    "numpy.random",
    "concurrent.futures.process",
    "multiprocessing",
)


def heavy_modules_after(statement):
    """Which of HEAVY_MODULES a fresh interpreter has loaded after running
    ``statement``."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        f"import sys\n{statement}\n"
        f"print([m for m in {HEAVY_MODULES!r} if m in sys.modules], file=sys.stderr)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.strip().splitlines()[-1]


def test_import_leaves_numpy_random_unloaded():
    # numpy costs most of the package's import time, and np.random about
    # 6 MB more; only the commands that build arrays need either, and only
    # clt with more than one worker needs the process pool
    assert heavy_modules_after("import matchstat") == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["stats", "--n", "6"],
        ["conjugate", "--matching", "1-4,2-3,5-6"],
        ["tableau", "--matching", "1-4,2-3,5-6"],
    ],
)
def test_commands_without_arrays_leave_numpy_unloaded(argv):
    statement = f"from matchstat.cli import main\nassert main({argv!r}) == 0"
    assert heavy_modules_after(statement) == "[]"


def test_arrays_load_numpy_on_first_use():
    statement = "import matchstat\nassert matchstat.polynomial_by_gf(3).total() == 15"
    assert heavy_modules_after(statement) == "['numpy']"


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: matchstat.Matching((2, 1, 2, 1)), "element 2 repeated"),
        (
            lambda: matchstat.Matching((2, 1)).partner_of(3),
            "element 3 out of range 1..2",
        ),
        (lambda: matchstat.Tableau(((1,), ())), "tableau rows must be nonempty"),
        (lambda: matchstat.Tableau(((0,),)), "entries must be positive, got 0"),
        (
            lambda: matchstat.closed_form_moments(4).value("nope"),
            "unknown field 'nope'",
        ),
    ],
    ids=["repeated", "partner_of", "empty_row", "zero_entry", "unknown_field"],
)
def test_refusal_names_its_fault(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_one_pair_walk_parses():
    assert matchstat.parse_oscillating("();(1);()").n == 1
