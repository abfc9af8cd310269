"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import reference as ref  # noqa: E402
import run as bench  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import FockCcr, Hall, Hecke, SpanFiles  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

TINY = {
    "fock-ccr": lambda: FockCcr(3),
    "span-files": lambda: SpanFiles(k=2, points=3, pullback_objects=6,
                                    tolerance=0.5),
    "hecke": lambda: Hecke(2),
    "hall": lambda: Hall(2, (1, 1)),
}


def test_tiny_workloads_cover_the_spec():
    assert sorted(TINY) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_emits_every_metric(name, trace):
    result = bench.run(TINY[name](), seed=3, seconds=0, trace=bool(trace))
    expected = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= (3 if trace else 1)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


PREDICTED = {
    # workload: {metric: predicate}, from the design's predictions
    "fock-ccr": {"spans.weak_pullback.calls": lambda v: v == 2,
                 "fock.table_entries": lambda v: v > 0,
                 "groupoid.compose.calls": lambda v: v > 0,
                 "hall.mat_mul.calls": lambda v: v == 0},
    "span-files": {"cli.main.calls": lambda v: v == 4,
                   "spans.weak_pullback.literal_calls": lambda v: v == 1,
                   "spans.weak_pullback.reduction_ratio": lambda v: v == 1,
                   "groupoid.to_json.pairs": lambda v: v > 0,
                   "spans.degroupoidify_span.calls": lambda v: v == 3},
    "hecke": {"spans.weak_pullback.calls": lambda v: v == 0,
              "hecke.build_group.group_order": lambda v: v == 168,
              "groupoid.compose.calls": lambda v: v == 0},
    "hall": {"spans.weak_pullback.calls": lambda v: v == 0,
             "hall.mat_mul.calls": lambda v: v > 0,
             "actions.weak_quotient.calls": lambda v: v > 0,
             "hall.hom_tuples.yield_ratio": lambda v: 0 < v <= 1},
}


@pytest.mark.parametrize("name", sorted(PREDICTED))
def test_traced_run_reports_the_predicted_layers(name):
    metrics = bench.run(TINY[name](), seed=5, seconds=0, trace=True)["metrics"]
    for metric, holds in PREDICTED[name].items():
        assert holds(metrics[metric]["value"]), metric
    assert metrics["trace.absent_names"]["value"] == 0


class CorruptedHecke(Hecke):
    def check(self, stdouts, opdir):
        path = opdir / "constants.json"
        path.write_text(path.read_text().replace('"2/1"', '"3/1"', 1))
        return super().check(stdouts, opdir)


def test_corrupted_output_fraction_fails_the_op():
    result = bench.run(CorruptedHecke(2), seed=1, seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_op_breaching_a_lowered_size_cap_fails():
    result = bench.run(TINY["span-files"](), seed=1, seconds=0, trace=False,
                       env_extra={"SPANCALC_SIZE_CAP": "10"})
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_absent_names_are_reported_not_fatal():
    tracer = tr.Tracer()
    tracer.install("gone", "spancalc.spans:no_such_function", "timed")
    tracer.install("gone2", "spancalc.no_such_module:f", "count")
    assert tracer.report()["absent"] == ["spancalc.spans:no_such_function",
                                         "spancalc.no_such_module:f"]


def test_self_time_excludes_timed_children():
    tracer = tr.Tracer()
    inner = tracer.timed("inner", lambda: sum(range(200_000)))
    outer = tracer.timed("outer", lambda: inner())
    outer()
    stats = tracer.report()["stats"]
    assert stats["inner"]["calls"] == stats["outer"]["calls"] == 1
    assert stats["outer"]["self_s"] < stats["inner"]["self_s"]


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert bench.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert bench.tail([float(i) for i in range(40)]) == (39.0, 100.0, 0)
    assert bench.tail([float(i) for i in range(200)]) == (189.0, 95.0, 10)


def test_references_satisfy_their_defining_identities():
    c = ref.hecke_s3_constants(3)["tensor"]
    assert c["P"]["P"] == {"e": "3/1", "P": "2/1"}
    assert c["P"]["L"] == {"PL": "1/1"} and c["PL"]["P"] == {"PLP": "1/1"}
    assert ref.fock_ccr_report(4)["ccr"]["boundary"] == [[4, 4, "-5/1"]]
    # [S1][S1] = (q + 1) [S1 + S1] at the second vertex of A2
    products = ref.hall_a2_products(3, (0, 2))
    assert products["d0,1#0*d0,1#0"] == {"d0,2#0": "4/1"}
    assert ref.parse_radical("3/2*sqrt(2) + 1") == {1: 1, 2: Fraction(3, 2)}


def test_no_sources_means_no_result():
    bare = BENCH.parent / ".bench_work" / "no-sources"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "hecke",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass    # a benchmark run is using it
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
