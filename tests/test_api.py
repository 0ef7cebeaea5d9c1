"""The public surface: one ``__all__`` per module, re-exported whole."""

import os
import subprocess
import sys
from pathlib import Path

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


def test_removed_names_stay_removed():
    for name in ("MgfReport", "removed_box"):
        assert not hasattr(matchstat, name)
        assert all(not hasattr(module, name) for module in MODULES)
    assert not hasattr(matchstat.CltReport, "to_json")


def test_import_leaves_numpy_random_unloaded():
    # numpy loads np.random on first access, at about 6 MB; only a draw
    # needs it, so importing the package must not
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, matchstat; print('numpy.random' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
