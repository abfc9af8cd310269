"""Golden outputs of ``spancalc hall``: the stdout and the ``--table`` file
of each run in RUNS, kept beside this script and compared byte for byte by
``tests/test_golden.py``.

    PYTHONPATH=src python tests/golden/regen.py           # list what differs
    PYTHONPATH=src python tests/golden/regen.py --write   # rewrite the files

Without ``--write`` nothing is written, and the exit status is 1 when a
file differs from what the code prints now.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent

RUNS = {
    "a2_q5_dmax2,1": ["--quiver", "a2", "--q", "5", "--dmax", "2,1"],
    "a2_q3_dmax2,2": ["--quiver", "a2", "--q", "3", "--dmax", "2,2"],
    "d4_q2_dmax2,1,1,1": ["--quiver", "d4", "--q", "2", "--dmax", "2,1,1,1"],
    "a3-gt-lt_q2_dmax1,1,1": ["--quiver", "a3:><", "--q", "2",
                              "--dmax", "1,1,1"],
}


def render(name: str) -> dict[str, bytes]:
    """The files of run ``name`` as the code prints them now: its stdout
    with ``--json``, and its ``--table``."""
    from spancalc import cli

    with tempfile.TemporaryDirectory() as tmp:
        table = Path(tmp) / "table.json"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(["hall", *RUNS[name], "--table", str(table),
                               "--json"])
        if status != 0:
            raise RuntimeError(f"hall {' '.join(RUNS[name])} exited {status}")
        return {f"{name}.stdout": out.getvalue().encode(),
                f"{name}.table.json": table.read_bytes()}


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
