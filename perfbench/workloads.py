"""The benchmark's workloads: their inputs, CLI invocations and checks.

One op is one user job: the spancalc invocations listed by ``op``, run one
after another in fresh interpreters.  ``check`` compares what they printed
and wrote with a reference from ``reference``, computed in ``prepare``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import reference as ref


@dataclass
class Invocation:
    """One ``spancalc`` command line with the files it reads and writes."""

    args: list[str]
    inputs: list[Path] = field(default_factory=list)
    outputs: list[Path] = field(default_factory=list)


class Workload:
    name = ""

    def prepare(self, work: Path, seed: int) -> None:
        """Write the inputs under ``work`` and compute the reference."""

    def op(self, opdir: Path) -> list[Invocation]:
        raise NotImplementedError

    def check(self, stdouts: list[str], opdir: Path) -> str | None:
        """None when what the op printed and wrote under ``opdir`` matches
        the reference, else what differs."""
        raise NotImplementedError


def _differs(what: str, got, expected) -> str | None:
    return None if got == expected else f"{what}: got {got!r}"


class FockCcr(Workload):
    """Few objects with huge automorphism groups: the skeletal pullback and
    the S_n composition table."""

    name = "fock-ccr"

    def __init__(self, n: int = 6):
        self.n = n

    def prepare(self, work: Path, seed: int) -> None:
        self.expected = ref.fock_ccr_report(self.n)

    def op(self, opdir: Path) -> list[Invocation]:
        return [Invocation(["fock", "--truncate", str(self.n), "--check-ccr",
                            "--json"])]

    def check(self, stdouts, opdir):
        return _differs("fock report", json.loads(stdouts[0]), self.expected)


class SpanFiles(Workload):
    """Many small iso classes through the JSON interchange: a literal
    ``compose`` of two random equivariant spans, then ``degroupoidify`` of
    the composite at three normalizations."""

    name = "span-files"
    ALPHAS = ("0", "1", "1/2")

    def __init__(self, k: int = 6, points: int = 10, pullback_objects: int = 250,
                 tolerance: float = 0.01):
        # the composite's size, and so the op's cost, is fixed by k and the
        # number of pullback objects; draws outside the band are redrawn
        self.k = k
        self.points = points
        self.target = pullback_objects
        self.tolerance = tolerance

    def draw(self, rng: random.Random):
        """Random actions and inner span; the outer span takes random pair
        orbits until the composite's pullback lands in the size band."""
        low = self.target * (1 - self.tolerance)
        high = self.target * (1 + self.tolerance)
        while True:
            x, y, z = (ref.CyclicAction.random(rng, self.k, self.points)
                       for _ in range(3))
            s = ref.EquivariantSpan.random(rng, y, x)
            weights = ref.pullback_weights(s)
            orbits = ref.EquivariantSpan.pair_orbits(z, y)
            for _attempt in range(100):
                rng.shuffle(orbits)
                chosen, size = [], 0
                for orbit in orbits:
                    if size >= low:
                        break
                    chosen.extend(orbit)
                    size += sum(weights[y] for _z, y in orbit)
                if low <= size <= high:
                    return ref.EquivariantSpan(z, y, sorted(chosen)), s

    def prepare(self, work: Path, seed: int) -> None:
        t, s = self.draw(random.Random(seed))
        self.first = work / "first.json"
        self.second = work / "second.json"
        self.first.write_text(json.dumps(t.span_json()))
        self.second.write_text(json.dumps(s.span_json()))
        target, source = t.left, s.right
        m0 = ref.mat_mul(t.matrix(), s.matrix())
        self.rows = target.orbit_reps()
        self.cols = source.orbit_reps()
        aut_rows = [target.stabilizer(r) for r in self.rows]
        aut_cols = [source.stabilizer(c) for c in self.cols]
        self.expected = {a: ref.rescale(m0, aut_rows, aut_cols, Fraction(a))
                         for a in self.ALPHAS}

    def op(self, opdir: Path) -> list[Invocation]:
        composed = opdir / "composed.json"
        invs = [Invocation(["compose", "--first", str(self.first), "--second",
                            str(self.second), "-o", str(composed)],
                           [self.first, self.second], [composed])]
        for i, alpha in enumerate(self.ALPHAS):
            out = opdir / f"matrix{i}.json"
            invs.append(Invocation(["degroupoidify", "--span", str(composed),
                                    "--alpha", alpha, "-o", str(out)],
                                   [composed], [out]))
        return invs

    def check(self, stdouts, opdir):
        for i, alpha in enumerate(self.ALPHAS):
            got = json.loads((opdir / f"matrix{i}.json").read_text())
            entries = [[ref.parse_radical(e) for e in row]
                       for row in got["entries"]]
            problem = (_differs("rows", got["rows"], self.rows)
                       or _differs("cols", got["cols"], self.cols)
                       or _differs(f"matrix at alpha {alpha}", entries,
                                   self.expected[alpha]))
            if problem:
                return problem
        return None


class Hecke(Workload):
    """SL(3, F_q) on the flags of the projective plane: the hecke layer alone."""

    name = "hecke"

    def __init__(self, q: int = 3):
        self.q = q

    def prepare(self, work: Path, seed: int) -> None:
        self.expected = ref.hecke_s3_constants(self.q)

    def op(self, opdir: Path) -> list[Invocation]:
        out = opdir / "constants.json"
        return [Invocation(["hecke", "--q", str(self.q), "--verify",
                            "--constants", str(out), "--json"], [], [out])]

    def check(self, stdouts, opdir):
        report = json.loads(stdouts[0])
        relations = list(report.get("relations", {}).values())
        if report.get("q") != self.q or len(relations) != 3 or \
                not all(v is True for v in relations):
            return f"relations: got {report!r}"
        return _differs("structure constants", json.loads(
            (opdir / "constants.json").read_text()), self.expected)


class Hall(Workload):
    """Brute-force F_q kernels, both product routes and associativity."""

    name = "hall"

    def __init__(self, q: int = 5, dmax: tuple[int, int] = (2, 1)):
        self.q = q
        self.dmax = dmax

    def prepare(self, work: Path, seed: int) -> None:
        self.expected = ref.hall_a2_products(self.q, self.dmax)

    def op(self, opdir: Path) -> list[Invocation]:
        out = opdir / "table.json"
        return [Invocation(["hall", "--quiver", "a2", "--q", str(self.q),
                            "--dmax", ",".join(map(str, self.dmax)),
                            "--table", str(out), "--json"], [], [out])]

    def check(self, stdouts, opdir):
        report = json.loads(stdouts[0])
        verdict = {"q": self.q, "quiver": "a2", "dmax": list(self.dmax),
                   "span_agrees": True, "associative": True}
        table = json.loads((opdir / "table.json").read_text())
        return (_differs("hall report", report, verdict)
                or _differs("hall products", table.get("products"),
                            self.expected))


WORKLOADS = {w.name: w for w in (FockCcr, SpanFiles, Hecke, Hall)}
