"""Golden outputs of ``spancalc``: the stdout of each run in RUNS, and each
file it writes through ``--table`` or ``--constants``, kept beside this
script and compared byte for byte by ``tests/test_golden.py``.

    PYTHONPATH=src python tests/golden/regen.py           # list what differs
    PYTHONPATH=src python tests/golden/regen.py --write   # rewrite the files

Without ``--write`` nothing is written, and the exit status is 1 when a
file differs from what the code prints now.

The span files ``spans<seed>.first.json`` and ``spans<seed>.second.json``
are inputs, not outputs: ``span_pair_json(seed)`` in ``tests/helpers.py``
wrote them, and ``--write`` leaves them alone.  The ``degroupoidify`` runs
read the composite that the ``compose`` run of the same seed prints.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent

# the value after one of these flags names the golden file <run>.<value>
OUTPUT_FLAGS = ("--table", "--constants")


def _hall(quiver: str, q: int, dmax: str) -> list[str]:
    return ["hall", "--quiver", quiver, "--q", str(q), "--dmax", dmax,
            "--table", "table.json", "--json"]


def _span_runs(seed: int) -> dict[str, list[str]]:
    composite = str(HERE / f"compose_{seed}.stdout")
    runs = {f"compose_{seed}": [
        "compose", "--first", str(HERE / f"spans{seed}.first.json"),
        "--second", str(HERE / f"spans{seed}.second.json")]}
    for alpha in ("0", "1", "1/2"):
        name = f"degroupoidify_{seed}_alpha{alpha.replace('/', '-')}"
        argv = ["degroupoidify", "--span", composite, "--alpha", alpha]
        runs[name] = argv
        runs[name + "_csv"] = argv + ["--csv"]
    return runs


RUNS = {
    "a2_q5_dmax2,1": _hall("a2", 5, "2,1"),
    "a2_q3_dmax2,2": _hall("a2", 3, "2,2"),
    "a2_q7_dmax2,2": _hall("a2", 7, "2,2"),
    "d4_q2_dmax2,1,1,1": _hall("d4", 2, "2,1,1,1"),
    "a3-gt-lt_q2_dmax1,1,1": _hall("a3:><", 2, "1,1,1"),
    **{f"fock_N{n}": ["fock", "--truncate", str(n), "--check-ccr", "--json"]
       for n in range(2, 9)},
    "fock_N6_two-colored_psi2": ["fock", "--truncate", "6", "--check-ccr",
                                 "--series", "two-colored", "--psi", "2",
                                 "--json"],
    **_span_runs(777),
    **_span_runs(778),
    **{f"hecke_q{q}": ["hecke", "--q", str(q), "--verify", "--constants",
                       "constants.json", "--json"] for q in (2, 3, 5, 7)},
}


def render(name: str) -> dict[str, bytes]:
    """The files of run ``name`` as the code prints them now: its stdout,
    and each file named after one of OUTPUT_FLAGS."""
    from spancalc import cli

    argv = list(RUNS[name])
    with tempfile.TemporaryDirectory() as tmp:
        written = {}
        for i in range(len(argv) - 1):
            if argv[i] in OUTPUT_FLAGS:
                written[f"{name}.{argv[i + 1]}"] = Path(tmp) / argv[i + 1]
                argv[i + 1] = str(written[f"{name}.{argv[i + 1]}"])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(argv)
        if status != 0:
            raise RuntimeError(f"spancalc {' '.join(RUNS[name])} exited "
                               f"{status}")
        files = {f"{name}.stdout": out.getvalue().encode()}
        files.update((fname, path.read_bytes())
                     for fname, path in written.items())
        return files


def differences(files: dict[str, bytes]) -> list[str]:
    """The names among ``files`` whose golden copy is missing or differs."""
    return [fname for fname, data in files.items()
            if not (HERE / fname).is_file()
            or (HERE / fname).read_bytes() != data]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite the golden files from the current code")
    args = parser.parse_args(argv)
    stale = []
    for name in RUNS:
        files = render(name)
        for fname in differences(files):
            stale.append(fname)
            if args.write:
                (HERE / fname).write_bytes(files[fname])
    for fname in stale:
        print(f"{'rewrote' if args.write else 'differs'}: {fname}")
    return 1 if stale and not args.write else 0


if __name__ == "__main__":
    sys.exit(main())
