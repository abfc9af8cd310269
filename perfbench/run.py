"""The spancalc benchmark: replay verification jobs through the CLI.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src/``.  A single client runs one op at a time (a closed loop), each
spancalc invocation in a fresh interpreter, until ``--seconds`` have
passed.  Every op is checked against an independent reference
outside its timed interval.  With ``--trace 0`` the last line of stdout
carries the end-to-end metrics; with ``--trace 1`` the ops alternate
between untraced, timed (``traced_cli.py timed``) and counted
(``traced_cli.py count``) runs, and the line carries the per-layer
metrics.  See README.md for the workloads and what each metric predicts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Workload  # noqa: E402

SETUP_IMPORTS = 7       # fresh interpreters timed importing spancalc.cli
CHILD_TIMEOUT_S = 45    # an invocation running longer is killed and failed

@dataclass
class Op:
    kind: str                    # "plain", "timed" or "count"
    latency_s: float = 0.0       # wall time of the op's invocations
    peak_rss_mb: float = 0.0
    failure: str | None = None
    bytes_read: int = 0
    bytes_written: int = 0
    traces: list[dict] = field(default_factory=list)


def child_env(extra: dict[str, str] | None = None) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update(extra or {})
    return env


def run_child(argv: list[str], env: dict[str, str], stdout: Path,
              stderr: Path) -> tuple[int, float, float]:
    """Run to completion; (exit status, wall seconds, peak RSS in MB)."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def run_op(workload: Workload, opdir: Path, kind: str,
           env: dict[str, str]) -> Op:
    """Run one op's invocations in order, then check them; ``opdir`` is
    fresh, so no output can be left over from an earlier op."""
    opdir.mkdir(parents=True)
    op = Op(kind)
    stdouts = []
    try:
        for i, inv in enumerate(workload.op(opdir)):
            if kind == "plain":
                argv = [sys.executable, "-m", "spancalc.cli", *inv.args]
            else:
                argv = [sys.executable, str(HERE / "traced_cli.py"), kind,
                        str(opdir / f"trace{i}.json"), *inv.args]
            op.bytes_read += sum(p.stat().st_size for p in inv.inputs)
            rc, wall, rss = run_child(argv, env, opdir / f"out{i}",
                                      opdir / f"err{i}")
            op.latency_s += wall
            op.peak_rss_mb = max(op.peak_rss_mb, rss)
            stdouts.append((opdir / f"out{i}").read_text())
            stderr = (opdir / f"err{i}").read_text()
            if kind != "plain" and (opdir / f"trace{i}.json").exists():
                op.traces.append(json.loads(
                    (opdir / f"trace{i}.json").read_text()))
            if rc != 0 or "Traceback" in stderr:
                op.failure = f"{' '.join(inv.args)}: exit {rc}: " \
                             f"{stderr.strip()[-300:]}"
                return op
            op.bytes_written += sum(p.stat().st_size for p in inv.outputs
                                    if p.exists())
        try:
            op.failure = workload.check(stdouts, opdir)
        except (OSError, ValueError, LookupError, TypeError,
                AttributeError) as exc:
            op.failure = f"unreadable output: {exc!r}"
        return op
    finally:
        shutil.rmtree(opdir, ignore_errors=True)


def measure_setup(env: dict[str, str], work: Path) -> float:
    """Median wall time of a fresh interpreter importing spancalc.cli, after
    one untimed import that fills the bytecode cache."""
    argv = [sys.executable, "-c", "import spancalc.cli"]
    times = []
    for i in range(SETUP_IMPORTS + 1):
        rc, wall, _rss = run_child(argv, env, work / "setup.out",
                                   work / "setup.err")
        if rc != 0:
            raise RuntimeError("importing spancalc.cli failed: "
                               + (work / "setup.err").read_text()[-500:])
        if i:
            times.append(wall)
    return statistics.median(times)


def run_loop(workload: Workload, seconds: float, trace: bool, work: Path,
             env: dict[str, str]) -> list[Op]:
    """Ops, one at a time, until ``seconds`` have passed."""
    kinds = ["plain", "timed", "count"] if trace else ["plain"]
    ops: list[Op] = []
    start = time.monotonic()
    while len(ops) < len(kinds) or time.monotonic() - start < seconds:
        ops.append(run_op(workload, work / f"op{len(ops)}",
                          kinds[len(ops) % len(kinds)], env))
    return ops


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it): the highest percentile with
    ten samples beyond it once that is at least p90 (100 samples); with
    fewer samples, the maximum."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 100:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(ops: list[Op], setup_s: float) -> dict[str, tuple[float, str]]:
    good = [op.latency_s for op in ops if op.failure is None] or \
        [op.latency_s for op in ops]
    value, pct, beyond = tail(good)
    print(f"latency: {len(good)} samples, mean {statistics.fmean(good):.4f} s, "
          f"p50 {statistics.median(good):.4f} s, tail p{pct:.1f} ({beyond} "
          f"beyond) {value:.4f} s")
    return {
        "latency_mean_s": (statistics.fmean(good), "s"),
        "latency_tail_s": (value, "s"),
        "throughput_ops_s": (sum(op.failure is None for op in ops)
                             / sum(op.latency_s for op in ops), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (statistics.median(op.peak_rss_mb for op in ops), "MB"),
    }


# per-layer metrics read straight from the timed pass, as means per op
TIMED_METRICS = [
    "groupoid.to_json.self_s", "groupoid.to_json.pairs",
    "groupoid.from_json.self_s", "groupoid.from_json.pairs",
    "groupoid.iso_classes.calls", "groupoid.iso_classes.self_s",
    "groupoid.iso_classes.morphisms_scanned",
    "groupoid.validate_groupoid.self_s",
    "spans.weak_pullback.calls", "spans.weak_pullback.self_s",
    "spans.weak_pullback.objects_built", "spans.weak_pullback.morphisms_built",
    "spans.weak_pullback.morphisms_projected",
    "spans.compose_spans.self_s", "spans.degroupoidify_span.calls",
    "spans.degroupoidify_span.self_s", "spans.span_to_json.self_s",
    "spans.span_from_json.self_s",
    "fock.build_E.self_s", "fock.verify_ccr.self_s",
    "hecke.flag_geometry.calls", "hecke.build_group.self_s",
    "hecke.build_group.group_order", "hecke.bruhat_orbits.self_s",
    "hecke.hecke_structure_constants.self_s",
    "hecke.verify_hecke_relations.self_s",
    "actions.weak_quotient.calls", "actions.weak_quotient.self_s",
    "actions.weak_quotient.points", "actions.GroupAction.orbits.self_s",
    "hall.classes.calls", "hall.classes.self_s", "hall.product.calls",
    "hall.ses_pairs.self_s", "hall.hom_tuples.calls",
    "hall.product_via_span.self_s", "hall.subrep_spaces.self_s",
    "hall.aut_elements.self_s", "hall.check_associativity.self_s",
]


def per_layer(ops: list[Op]) -> dict[str, tuple[float, str]]:
    """Means per op of the traced counters; ratios are of summed counts."""
    def totals(kind: str) -> tuple[dict[str, float], int]:
        sums: dict[str, float] = {}
        runs = [op for op in ops if op.kind == kind]
        for op in runs:
            for trace in op.traces:
                for name, fields in trace["stats"].items():
                    for key, v in fields.items():
                        sums[f"{name}.{key}"] = sums.get(f"{name}.{key}", 0) + v
                sums["table_entries"] = sums.get("table_entries", 0) + \
                    trace.get("table_entries", 0)
        return sums, max(len(runs), 1)

    timed, n_timed = totals("timed")
    counted, n_counted = totals("count")

    def mean(key, sums=timed, n=n_timed):
        return sums.get(key, 0) / n

    def ratio(num, den):
        return timed.get(num, 0) / timed[den] if timed.get(den) else 0.0

    def median_latency(kind):
        return statistics.median(op.latency_s for op in ops if op.kind == kind)

    absent = {a for op in ops for t in op.traces for a in t["absent"]}
    if absent:
        print("absent from the program:", ", ".join(sorted(absent)))
    metrics = {
        "cli.main.calls": (mean("cli.main.calls"), "count"),
        "cli.main.self_s": (mean("cli.main.self_s"), "s"),
        "cli.bytes_read": (statistics.mean(op.bytes_read for op in ops),
                           "bytes"),
        "cli.bytes_written": (statistics.mean(op.bytes_written for op in ops),
                              "bytes"),
        "groupoid.compose.calls": (mean("groupoid.compose.calls", counted,
                                        n_counted), "count"),
        "spans.weak_pullback.literal_calls": (
            mean("spans.weak_pullback_literal.calls"), "count"),
        "spans.weak_pullback.skeletal_calls": (
            mean("spans.weak_pullback_skeletal.calls"), "count"),
        "spans.weak_pullback.reduction_ratio": (ratio(
            "spans.weak_pullback.morphisms_built",
            "spans.weak_pullback.morphisms_projected"), "ratio"),
        "fock.table_entries": (mean("table_entries"), "count"),
        "hall.classes.cache_hit_ratio": (ratio("hall.classes.hits",
                                               "hall.classes.calls"), "ratio"),
        "hall.product.cache_hit_ratio": (ratio("hall.product.hits",
                                               "hall.product.calls"), "ratio"),
        "hall.hom_tuples.yield_ratio": (ratio("hall.hom_tuples.yields",
                                              "hall.hom_tuples.candidates"),
                                        "ratio"),
        "hall.mat_mul.calls": (mean("hall.mat_mul.calls", counted, n_counted),
                               "count"),
        "trace.timed_overhead": (median_latency("timed")
                                 / median_latency("plain"), "ratio"),
        "trace.count_overhead": (median_latency("count")
                                 / median_latency("plain"), "ratio"),
        "trace.absent_names": (len(absent), "count"),
    }
    for key in TIMED_METRICS:
        unit = "s" if key.endswith("self_s") else "count"
        metrics[key] = (mean(key), unit)
    return metrics


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        env_extra: dict[str, str] | None = None) -> dict:
    """Set up, run the loop and return the result object."""
    if not (ROOT / "src" / "spancalc" / "cli.py").is_file():
        raise RuntimeError(f"no spancalc sources under {ROOT / 'src'}")
    work = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        env = child_env(env_extra)
        setup_s = measure_setup(child_env(), work)
        workload.prepare(work, seed)
        ops = run_loop(workload, seconds, trace, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass    # another run is still using it
    failed = [op for op in ops if op.failure is not None]
    for op in failed[:5]:
        print("FAILED:", op.failure)
    metrics = per_layer(ops) if trace else end_to_end(ops, setup_s)
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through Python on SIGTERM, so that a running child is killed too
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    try:
        result = run(WORKLOADS[args.workload](), args.seed, args.seconds,
                     bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
