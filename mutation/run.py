"""Mutation score of the test suite for one module of the package.

    python3 mutation/run.py src/matchstat/tableaux.py --sample 60 --seed 1
    python3 mutation/run.py src/matchstat/bijection.py --functions _walk,_unwalk

Each mutant changes one site of the module's syntax tree:

- ``cmp``: a comparison flipped, ``<`` <-> ``<=``, ``>`` <-> ``>=``,
  ``==`` <-> ``!=``;
- ``const+1`` / ``const-1``: an integer constant moved by one;
- ``index+1`` / ``index-1``: a subscript's index moved by one (an index
  that is an integer constant is left to the constant operators);
- ``and/or``: ``and`` <-> ``or``;
- ``raise->pass``: a ``raise`` statement replaced by ``pass``.

Type annotations hold no sites.  Sites are listed in source order, by
where each node starts and then where it ends, so their numbering is
fixed for a given file; ``--sample`` draws that many of them with
``--seed``.  Every mutant is written into a copy of the source tree and
run against the test files under ``tests/`` that import the module,
``pytest -x``, with a timeout of three times the unmutated run plus
5 s.  A mutant is killed when the tests fail, survives when
they pass, and times out past the limit.  The JSON summary (``--out``)
names every survivor by file, line and operator.  Uses the standard
library only.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}


def _scopes(tree: ast.Module, functions: set[str] | None) -> list[ast.AST]:
    """The whole module, or the named functions and methods in it."""
    if functions is None:
        return [tree]
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in functions
    ]


def _is_int(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is int


def _site_ops(node: ast.AST) -> list[tuple[str, int]]:
    """The mutations of one node: (operator, argument) pairs."""
    if isinstance(node, ast.Compare):
        return [("cmp", k) for k, op in enumerate(node.ops) if type(op) in FLIPS]
    if _is_int(node):
        return [("const+1", 1), ("const-1", -1)]
    if isinstance(node, ast.Subscript):
        if not isinstance(node.slice, ast.Slice) and not _is_int(node.slice):
            return [("index+1", 1), ("index-1", -1)]
        return []
    if isinstance(node, ast.BoolOp):
        return [("and/or", 0)]
    if isinstance(node, ast.Raise):
        return [("raise->pass", 0)]
    return []


def sites(source: str, functions: set[str] | None = None) -> list[dict]:
    """Every mutation site of ``source``, in source order."""
    tree = ast.parse(source)
    # annotations are never evaluated under ``from __future__ import annotations``
    skip = {
        id(sub)
        for node in ast.walk(tree)
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None))
        if note is not None
        for sub in ast.walk(note)
    }
    found = {}
    for scope in _scopes(tree, functions):
        for node in ast.walk(scope):
            if id(node) in skip:
                continue
            for op, arg in _site_ops(node):
                key = (*_span(node), op, arg)
                found[key] = {"line": node.lineno, "col": node.col_offset,
                              "end": [node.end_lineno, node.end_col_offset],
                              "op": op, "arg": arg, "node": type(node).__name__}
    return [found[key] for key in sorted(found)]


def _span(node: ast.AST) -> tuple[int, int, int, int]:
    """Where a node starts and ends; nested nodes of one type can share a start."""
    return node.lineno, node.col_offset, node.end_lineno, node.end_col_offset


class _Mutator(ast.NodeTransformer):
    def __init__(self, site: dict) -> None:
        self.site = site

    def _here(self, node: ast.AST) -> bool:
        s = self.site
        return (
            type(node).__name__ == s["node"]
            and _span(node) == (s["line"], s["col"], *s["end"])
        )

    def generic_visit(self, node: ast.AST) -> ast.AST:
        node = super().generic_visit(node)
        if not self._here(node):
            return node
        op, arg = self.site["op"], self.site["arg"]
        if op == "cmp":
            node.ops[arg] = FLIPS[type(node.ops[arg])]()
        elif op.startswith("const"):
            return ast.copy_location(ast.Constant(node.value + arg), node)
        elif op.startswith("index"):
            shift = ast.Add() if arg > 0 else ast.Sub()
            node.slice = ast.BinOp(node.slice, shift, ast.Constant(1))
        elif op == "and/or":
            node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
        elif op == "raise->pass":
            return ast.copy_location(ast.Pass(), node)
        return node


def mutate(source: str, site: dict) -> str:
    """``source`` with the one change that ``site`` names."""
    tree = _Mutator(site).visit(ast.parse(source))
    return ast.unparse(ast.fix_missing_locations(tree))


def tests_of(root: Path, module: Path) -> list[Path]:
    """Test files under root/tests that import the module or a name it defines."""
    package = module.parent.name
    name = module.stem
    defined = set()
    for node in ast.parse(module.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
    found = []
    for path in sorted((root / "tests").glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                hit = any(a.name == f"{package}.{name}" for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                hit = node.module == f"{package}.{name}" or (
                    node.module == package
                    and any(a.name == name or a.name in defined for a in node.names)
                )
            else:
                continue
            if hit:
                found.append(path)
                break
    # the module's own test file first: with -x it stops most mutants soonest
    return sorted(found, key=lambda path: path.name != f"test_{name}.py")


def _run(work: Path, tests: list[Path], timeout: float | None) -> tuple[str, float]:
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "-o", "addopts=", *map(str, tests)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=work, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    outcome = "survived" if proc.returncode == 0 else "killed"
    return outcome, time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="path of the module, relative to --root")
    parser.add_argument("--root", default=str(Path(__file__).resolve().parent.parent),
                        help="source tree holding src/ and tests/ (default: this one)")
    parser.add_argument("--functions", default=None,
                        help="comma-separated functions to mutate (default: all)")
    parser.add_argument("--sample", type=int, default=None,
                        help="number of sites to draw (default: every site)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="write the JSON summary here")
    args = parser.parse_args(argv)

    root = Path(args.root).resolve()
    module = root / args.module
    source = module.read_text()
    functions = set(args.functions.split(",")) if args.functions else None
    all_sites = sites(source, functions)
    chosen = sorted(range(len(all_sites)))
    if args.sample is not None and args.sample < len(all_sites):
        chosen = sorted(random.Random(args.seed).sample(chosen, args.sample))
    tests = tests_of(root, module)

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for part in ("src", "tests", "demos"):
            shutil.copytree(root / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(root / "pyproject.toml", work)
        tests = [work / p.relative_to(root) for p in tests]
        target = work / args.module
        # the unmutated tree, unparsed as the mutants are, must pass
        target.write_text(ast.unparse(ast.parse(source)))
        outcome, base = _run(work, tests, None)
        if outcome != "survived":
            print("the unmutated tests fail; no score", file=sys.stderr)
            return 2
        timeout = 3 * base + 5
        results = []
        for k in chosen:
            site = all_sites[k]
            target.write_text(mutate(source, site))
            outcome, seconds = _run(work, tests, timeout)
            results.append({"site": k, **site, "outcome": outcome,
                            "seconds": round(seconds, 2)})
            print(f"site {k} line {site['line']} {site['op']}: {outcome} "
                  f"({seconds:.1f} s)", flush=True)

    killed = sum(r["outcome"] != "survived" for r in results)
    summary = {
        "module": args.module,
        "functions": sorted(functions) if functions else None,
        "sites": len(all_sites),
        "sampled": len(results),
        "seed": args.seed,
        "tests": [str(p.relative_to(work)) for p in tests],
        "unmutated_s": round(base, 2),
        "killed": sum(r["outcome"] == "killed" for r in results),
        "timed_out": sum(r["outcome"] == "timeout" for r in results),
        "survived": [
            {"file": args.module, "line": r["line"], "op": r["op"], "site": r["site"]}
            for r in results if r["outcome"] == "survived"
        ],
        "score": round(killed / len(results), 3) if results else None,
        "mutants": results,
    }
    text = json.dumps(summary, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(f"score {killed}/{len(results)} killed or timed out; "
          f"{len(summary['survived'])} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
