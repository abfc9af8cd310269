"""The package holds only what a subcommand runs, function by function.

Every run of ``tests/golden/regen.py``, plus ``check`` and ``card`` on a
valid and an invalid groupoid file and ``hecke --q 2``, runs in-process
under ``sys.setprofile``.  Each function defined under ``src/spancalc``
that none of them calls must be listed in ALLOWED, with the reason it is
kept; a function that only the tests call belongs with the tests.
"""

import ast
import contextlib
import io
import json
import os
import sys
from pathlib import Path

import spancalc
from spancalc import cli

from golden.regen import RUNS, render
from oracles import connected, cyclic_table

PACKAGE = Path(spancalc.__file__).resolve().parent

RECORD = "record dunder: equality, hashing, immutability or repr of a value"
# "module:qualname" -> why it is kept though no run calls it
ALLOWED = {
    "exact:SizeCapError.__init__": "error path: a size-cap breach",
    **{name: RECORD for name in (
        "exact:QSqrt.__eq__", "exact:QSqrt.__hash__",
        "groupoid:FiniteGroupoid.__repr__", "hall:Quiver.__eq__",
        "hall:Quiver.__hash__", "hall:Quiver.__setattr__",
        "spans:RationalMatrix.__eq__", "spans:RationalMatrix.__repr__")},
    # each degroupoidified entry is weighed once, so only Fock's sums of
    # weights add QSqrt values, and no subcommand passes them a
    # half-integer alpha
    **{f"exact:QSqrt.{name}": "fock.entries and fock.generating_function "
       "at half-integer alpha" for name in ("__add__", "of")},
    # the Wick block waits for a `fock --wick` subcommand (ROADMAP item 5)
    **{f"fock:{name}": "fock's Wick block"
       for name in ("span_power", "matrix", "normal_ordered_power")},
}


def _functions() -> dict[tuple[str, int], str]:
    """Each function and method defined under the package, by (file, first
    line of its code object), as "module:qualname"."""
    found = {}

    def visit(node, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno
                                              for d in child.decorator_list])
                found[str(path), first] = f"{path.stem}:{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.<locals>.")

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return found


def _runs(tmp_path: Path) -> None:
    """Every golden run, then check and card on a valid and an invalid
    groupoid file and hecke --q 2, each with the exit status it must have."""
    for name in RUNS:
        render(name)
    valid = connected(2, cyclic_table(2)).to_json()
    files = {"valid": valid, "invalid": dict(valid, identity=[5, 0])}
    for label, data in files.items():
        (tmp_path / f"{label}.json").write_text(json.dumps(data))
    for argv, status in [
            (["check", "{tmp}/valid.json"], 0),
            (["check", "{tmp}/invalid.json"], 1),
            (["card", "{tmp}/valid.json"], 0),
            (["card", "{tmp}/invalid.json"], 2),
            (["hecke", "--q", "2"], 0)]:
        argv = [a.format(tmp=tmp_path) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == status, argv


def test_every_package_function_runs_in_some_subcommand(tmp_path):
    called: set[tuple[str, int]] = set()

    def profile(frame, event, _arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        _runs(tmp_path)
    finally:
        sys.setprofile(None)
    reached = {(os.path.realpath(f), line) for f, line in called}
    defined = _functions()
    unreached = {name for key, name in defined.items() if key not in reached}
    missing = sorted(unreached - set(ALLOWED))
    assert not missing, f"no run calls {missing}"
    # an entry for a function that runs, or that is gone, is stale
    stale = sorted(set(ALLOWED) - unreached)
    assert not stale, f"ALLOWED lists {stale}, which a run calls or which " \
        "is gone"
