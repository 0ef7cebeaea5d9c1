"""Tests of the mutation tool on a toy package.

    python3 -m pytest mutation -q
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "mutation_run", Path(__file__).resolve().parent / "run.py"
)
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

SOURCE = '''\
def f(x: int, xs: list[int]) -> dict[int, int]:
    if x < 3 and xs[x] == 0:
        raise ValueError("small")
    return xs[x - 1]
'''


def test_sites_in_source_order_and_each_mutant_differs():
    found = run.sites(SOURCE)
    assert [(s["line"], s["col"], s["op"]) for s in found] == [
        (2, 7, "cmp"),  # x < 3 ends before the "and" that holds it
        (2, 7, "and/or"),
        (2, 11, "const+1"),
        (2, 11, "const-1"),
        (2, 17, "index+1"),
        (2, 17, "index-1"),
        (2, 17, "cmp"),
        (2, 26, "const+1"),
        (2, 26, "const-1"),
        (3, 8, "raise->pass"),
        (4, 11, "index+1"),
        (4, 11, "index-1"),
        (4, 18, "const+1"),
        (4, 18, "const-1"),
    ]
    assert run.sites(SOURCE, {"g"}) == []
    mutants = {run.mutate(SOURCE, s) for s in found}
    assert len(mutants) == len(found)
    assert not any("x <= 3 or" in m for m in mutants)  # one change per mutant
    assert any("x <= 3 and" in m for m in mutants)
    assert any("x < 3 or" in m for m in mutants)
    assert any("xs[x + 1] == 0" in m for m in mutants)
    assert any("pass" in m and "raise" not in m for m in mutants)


def test_scores_a_toy_package(tmp_path):
    (tmp_path / "src" / "toy").mkdir(parents=True)
    (tmp_path / "src" / "toy" / "__init__.py").write_text("")
    (tmp_path / "src" / "toy" / "mod.py").write_text("def f(x):\n    return x < 3\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from toy.mod import f\n\ndef test_f():\n    assert f(2) and not f(3)\n"
    )
    (tmp_path / "tests" / "test_other.py").write_text("def test_nothing():\n    pass\n")
    (tmp_path / "demos").mkdir()
    (tmp_path / "pyproject.toml").write_text("")
    assert run.tests_of(tmp_path, tmp_path / "src" / "toy" / "mod.py") == [
        tmp_path / "tests" / "test_mod.py"
    ]
    out = tmp_path / "summary.json"
    code = run.main(["src/toy/mod.py", "--root", str(tmp_path), "--out", str(out)])
    summary = json.loads(out.read_text())
    assert code == 0
    assert (summary["sites"], summary["sampled"], summary["killed"]) == (3, 3, 3)
    assert summary["survived"] == [] and summary["score"] == 1.0
