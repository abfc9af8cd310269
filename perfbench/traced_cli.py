"""Run the spancalc CLI under the benchmark's tracer.

    python3 perfbench/traced_cli.py <timed|count> <trace.json> <spancalc args>

``timed`` times the public functions of every module; ``count`` only
counts the hottest calls.  The trace is written as JSON whatever the
exit status, which is the CLI's own.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import tracer as tr


def main() -> int:
    mode, out, argv = sys.argv[1], Path(sys.argv[2]), sys.argv[3:]
    import spancalc.cli

    tracer = tr.Tracer()
    targets = tr.timed_targets(tracer) if mode == "timed" else tr.COUNT_TARGETS
    for name, target, kind, post in targets:
        tracer.install(name, target, kind, post)
    try:
        return spancalc.cli.main(argv)
    finally:
        report = tracer.report()
        report["table_entries"] = tr.table_entries(tracer.kept)
        out.write_text(json.dumps(report))


if __name__ == "__main__":
    sys.exit(main())
