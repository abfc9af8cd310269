"""The A2 Hecke algebra over a prime field, groupoidified.

Flags are incident (point, line) pairs in the projective plane over F_q.
The relations P ("same line, different point") and L ("same point,
different line") satisfy P^2 = (q-1)P + qI, L^2 = (q-1)L + qI and the
Yang-Baxter identity PLP = LPL as integer matrices over the flag set.

SL(3, F_q) acts on flags; its orbits on flag pairs realize the six-element
Weyl group (Bruhat decomposition), and the triple space degroupoidifies to
the structure constants of the Hecke algebra.  Orbit labels follow the
shortest relation word reaching the orbit: e, P, L, PL, LP, PLP; this
labeling is a documented choice, emitted with every output.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .actions import (EquivariantSpan, FiniteGroup, GroupAction, is_prime,
                      orbit_table)
from .groupoid import IsoClassTable
from .spans import aut_weight

ORBIT_LABELS = ("e", "P", "L", "PL", "LP", "PLP")


def _normalize(vec: tuple[int, int, int], q: int) -> tuple[int, int, int] | None:
    """Scale so the first nonzero coordinate is 1; None for the zero vector."""
    for x in vec:
        if x % q:
            inv = pow(x, q - 2, q)
            return tuple(v * inv % q for v in vec)  # type: ignore[return-value]
    return None


@dataclass(frozen=True)
class FlagGeometry:
    """Points, lines and incident flags of the projective plane over F_q."""

    q: int
    points: tuple[tuple[int, int, int], ...]
    lines: tuple[tuple[int, int, int], ...]
    flags: tuple[tuple[int, int], ...]       # (point index, line index)
    flag_index: dict

    @property
    def n_flags(self) -> int:
        return len(self.flags)


def flag_geometry(q: int) -> FlagGeometry:
    if not is_prime(q):
        raise ValueError(f"q={q} is not prime")
    seen = set()
    for vec in itertools.product(range(q), repeat=3):
        norm = _normalize(vec, q)
        if norm is not None:
            seen.add(norm)
    points = tuple(sorted(seen))
    lines = points  # lines are normalized annihilator covectors
    flags = []
    for pi, p in enumerate(points):
        for li, c in enumerate(lines):
            if sum(a * b for a, b in zip(p, c)) % q == 0:
                flags.append((pi, li))
    flags.sort()
    index = {f: i for i, f in enumerate(flags)}
    return FlagGeometry(q, points, lines, tuple(flags), index)


def enumerate_flags(q: int) -> list[tuple[tuple[int, int, int], tuple[int, int, int]]]:
    """All (point, line) incident pairs, canonically ordered."""
    geo = flag_geometry(q)
    return [(geo.points[p], geo.lines[l]) for p, l in geo.flags]


def _relation(q: int, same_component: int) -> np.ndarray:
    """0/1 matrix over flags: 1 where two flags agree in component
    ``same_component`` (0 the point, 1 the line) and differ in the other."""
    flags = np.array(flag_geometry(q).flags)
    same = flags[:, same_component]
    other = flags[:, 1 - same_component]
    return ((same[:, None] == same[None, :]) &
            (other[:, None] != other[None, :])).astype(np.int64)


def build_P(q: int) -> np.ndarray:
    """Relation "same line, different point" as a 0/1 matrix over flags."""
    return _relation(q, 1)


def build_L(q: int) -> np.ndarray:
    """Relation "same point, different line" as a 0/1 matrix over flags."""
    return _relation(q, 0)


@dataclass(frozen=True)
class RelationReport:
    q: int
    checks: tuple[tuple[str, bool], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _name, passed in self.checks)

    def __str__(self) -> str:
        return "\n".join(
            f"{'PASS' if passed else 'FAIL'}: {name}"
            for name, passed in self.checks)


def verify_hecke_relations(q: int) -> RelationReport:
    """Check P^2, L^2 and Yang-Baxter as exact integer matrix identities."""
    P = build_P(q)
    L = build_L(q)
    eye = np.eye(P.shape[0], dtype=np.int64)
    checks = (
        (f"P^2 = ({q}-1)P + {q}I", bool(np.array_equal(P @ P, (q - 1) * P + q * eye))),
        (f"L^2 = ({q}-1)L + {q}I", bool(np.array_equal(L @ L, (q - 1) * L + q * eye))),
        ("PLP = LPL (Yang-Baxter)", bool(np.array_equal(P @ L @ P, L @ P @ L))),
    )
    return RelationReport(q, checks)


# -- the special linear group and its flag action ---------------------------

def _det3(m: tuple, q: int) -> int:
    a, b, c, d, e, f, g, h, i = m
    return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % q


def _adjugate3(m: tuple, q: int) -> tuple:
    a, b, c, d, e, f, g, h, i = m
    return (
        (e * i - f * h) % q, (c * h - b * i) % q, (b * f - c * e) % q,
        (f * g - d * i) % q, (a * i - c * g) % q, (c * d - a * f) % q,
        (d * h - e * g) % q, (b * g - a * h) % q, (a * e - b * d) % q,
    )


def _matmul3(m1: tuple, m2: tuple, q: int) -> tuple:
    out = []
    for r in range(3):
        for c in range(3):
            out.append(sum(m1[3 * r + k] * m2[3 * k + c] for k in range(3)) % q)
    return tuple(out)


@dataclass
class HeckeGroup:
    """SL(3, F_q) with its action on the flag set."""

    q: int
    geometry: FlagGeometry
    group: FiniteGroup
    elements: tuple  # 3x3 matrices as flat 9-tuples, lexicographically sorted
    action: GroupAction


def build_group(q: int) -> HeckeGroup:
    """Enumerate SL(3, F_q) and its flag action; supported for q in {2, 3}."""
    if q not in (2, 3):
        raise ValueError(f"full group computations support q in {{2, 3}}, not {q}")
    geo = flag_geometry(q)
    elements = tuple(sorted(
        m for m in itertools.product(range(q), repeat=9) if _det3(m, q) == 1))
    index = {m: i for i, m in enumerate(elements)}
    identity = index[(1, 0, 0, 0, 1, 0, 0, 0, 1)]
    inverse = [index[_adjugate3(m, q)] for m in elements]

    def mul(a: int, b: int) -> int:
        # "b first, then a": matrices act on column vectors from the left
        return index[_matmul3(elements[a], elements[b], q)]

    group = FiniteGroup(len(elements), mul, identity, inverse)

    point_index = {p: i for i, p in enumerate(geo.points)}
    act = np.empty((len(elements), geo.n_flags), dtype=np.int64)
    for gi, m in enumerate(elements):
        inv = _adjugate3(m, q)
        pperm = []
        for p in geo.points:
            img = tuple(sum(m[3 * r + c] * p[c] for c in range(3)) % q
                        for r in range(3))
            pperm.append(point_index[_normalize(img, q)])
        lperm = []
        for cvec in geo.lines:
            img = tuple(sum(cvec[r] * inv[3 * r + c] for r in range(3)) % q
                        for c in range(3))
            lperm.append(point_index[_normalize(img, q)])
        for fi, (pi, li) in enumerate(geo.flags):
            act[gi, fi] = geo.flag_index[(pperm[pi], lperm[li])]
    return HeckeGroup(q, geo, group, elements, GroupAction(group, act))


# -- Bruhat orbits on flag pairs ---------------------------------------------

def _pair_label(geo: FlagGeometry, x: tuple[int, int], y: tuple[int, int],
                q: int) -> str:
    px, lx = x
    py, ly = y
    if x == y:
        return "e"
    if lx == ly:
        return "P"
    if px == py:
        return "L"
    on = lambda p, l: sum(a * b for a, b in zip(geo.points[p], geo.lines[l])) % q == 0
    if on(py, lx):
        return "PL"   # reachable by a P step then an L step
    if on(px, ly):
        return "LP"
    return "PLP"


def bruhat_orbits(hg: HeckeGroup | int
                  ) -> tuple[IsoClassTable, tuple[str, ...]]:
    """G-orbits on flag pairs, the pair (i, j) being point i * n_flags + j,
    with the label of each orbit (one of ORBIT_LABELS)."""
    if isinstance(hg, int):
        hg = build_group(hg)
    geo = hg.geometry
    n = geo.n_flags
    act = hg.action.act
    pair_images = act[:, :, None] * n + act[:, None, :]
    # a view of the fresh array: the pair table is never copied
    table = orbit_table(pair_images.reshape(len(act), n * n))
    labels = tuple(_pair_label(geo, geo.flags[r // n], geo.flags[r % n], hg.q)
                   for r in table.representative)
    return table, labels


# -- structure constants of the groupoidified multiplication ----------------

@dataclass(frozen=True)
class HeckeTensor:
    """Structure constants c[u][v][w]: psi_u * psi_v = sum_w c[u][v][w] psi_w."""

    q: int
    labels: tuple[str, ...]
    tensor: tuple   # 6x6x6 nested tuples of Fractions

    def product(self, x: list[Fraction], y: list[Fraction]) -> list[Fraction]:
        n = len(self.labels)
        out = [Fraction(0)] * n
        for u in range(n):
            if x[u] == 0:
                continue
            for v in range(n):
                if y[v] == 0:
                    continue
                coeff = x[u] * y[v]
                for w in range(n):
                    out[w] += coeff * self.tensor[u][v][w]
        return out

    def basis_vector(self, label: str) -> list[Fraction]:
        out = [Fraction(0)] * len(self.labels)
        out[self.labels.index(label)] = Fraction(1)
        return out


def hecke_structure_constants(hg: HeckeGroup | int, alpha: int = 0) -> HeckeTensor:
    """Degroupoidify the triple space (X x X x X) // G to the 6x6x6 tensor.

    Each triple orbit contributes |Stab(pair13)|^(1-alpha) *
    (|Stab(pair12)| |Stab(pair23)|)^alpha / |Stab(triple)| at position
    (u, v, w) = (orbit of pair12, orbit of pair23, orbit of pair13).
    Triple orbits over a fixed w are enumerated as orbits of the pair
    stabilizer acting on the middle flag, which keeps q = 3 fast.
    """
    if isinstance(hg, int):
        hg = build_group(hg)
    geo = hg.geometry
    n = geo.n_flags
    act = hg.action.act
    orbits, labels = bruhat_orbits(hg)
    k = orbits.n_classes
    tensor = [[[Fraction(0) for _w in range(k)] for _v in range(k)]
              for _u in range(k)]
    orbit_of = orbits.class_of
    stab = orbits.aut_order
    for w in range(k):
        x1, x3 = divmod(orbits.representative[w], n)
        h_elems = np.nonzero((act[:, x1] == x1) & (act[:, x3] == x3))[0]
        middle = orbit_table(act[h_elems])     # H_w acting on the middle flag
        for rep, stab_triple in zip(middle.representative, middle.aut_order):
            u = orbit_of[x1 * n + rep]
            v = orbit_of[rep * n + x3]
            # x foot: the pair13 orbit; y foot: the (pair12, pair23) orbits
            tensor[u][v][w] += aut_weight(stab[w], stab[u] * stab[v],
                                          stab_triple, alpha)
    # reorder to the documented label order
    perm = [labels.index(lbl) for lbl in ORBIT_LABELS]
    reordered = tuple(
        tuple(tuple(tensor[pu][pv][pw] for pw in perm) for pv in perm)
        for pu in perm)
    return HeckeTensor(hg.q, ORBIT_LABELS, reordered)


def relation_count_tensor(q: int) -> HeckeTensor:
    """Independent oracle: c[u][v][w] counts middle flags completing a chain.

    For a fixed pair (x1, x3) in orbit w, the entry counts flags x2 with
    (x1, x2) in orbit u and (x2, x3) in orbit v; G-invariance makes the
    count independent of the representative.  No stabilizers involved.
    """
    geo = flag_geometry(q)
    n = geo.n_flags
    label_of = {}
    for i in range(n):
        for j in range(n):
            label_of[(i, j)] = _pair_label(geo, geo.flags[i], geo.flags[j], q)
    k = len(ORBIT_LABELS)
    pos = {lbl: i for i, lbl in enumerate(ORBIT_LABELS)}
    reps: dict[str, tuple[int, int]] = {}
    for i in range(n):
        for j in range(n):
            reps.setdefault(label_of[(i, j)], (i, j))
    tensor = [[[Fraction(0)] * k for _ in range(k)] for _ in range(k)]
    for wlbl, (x1, x3) in reps.items():
        w = pos[wlbl]
        for x2 in range(n):
            u = pos[label_of[(x1, x2)]]
            v = pos[label_of[(x2, x3)]]
            tensor[u][v][w] += 1
    return HeckeTensor(q, ORBIT_LABELS,
                       tuple(tuple(tuple(row) for row in plane)
                             for plane in tensor))


def triple_block_span(hg: HeckeGroup, u: str, v: str, w: str
                      ) -> EquivariantSpan | None:
    """The (u, v, w) sub-block of the triple space as an equivariant span.

    Apex: G acting on triples with the given pair labels; right foot: the
    w-orbit of pairs; left foot: a point.  Its alpha = 0 matrix is the
    single tensor entry c[u][v][w].  Returns None when the block is empty.
    """
    geo = hg.geometry
    n = geo.n_flags
    orbits, labels = bruhat_orbits(hg)
    pos = {lbl: i for i, lbl in enumerate(labels)}
    orbit_of = orbits.class_of
    w_points = [p for p, o in enumerate(orbit_of) if o == pos[w]]
    triples = []
    for pair13 in w_points:
        x1, x3 = divmod(pair13, n)
        for x2 in range(n):
            if orbit_of[x1 * n + x2] == pos[u] and \
                    orbit_of[x2 * n + x3] == pos[v]:
                triples.append((x1, x2, x3))
    if not triples:
        return None
    triples.sort()
    t_index = {t: i for i, t in enumerate(triples)}
    act = hg.action.act
    n_g = hg.group.order
    apex_act = np.empty((n_g, len(triples)), dtype=np.int64)
    for gi in range(n_g):
        row = act[gi]
        for ti, (a, b, c) in enumerate(triples):
            apex_act[gi, ti] = t_index[(int(row[a]), int(row[b]), int(row[c]))]
    pair_pos = {p: i for i, p in enumerate(w_points)}
    right_act = np.empty((n_g, len(w_points)), dtype=np.int64)
    for gi in range(n_g):
        row = act[gi]
        for pi, p in enumerate(w_points):
            x1, x3 = divmod(p, n)
            right_act[gi, pi] = pair_pos[int(row[x1]) * n + int(row[x3])]
    left_act = np.zeros((n_g, 1), dtype=np.int64)
    return EquivariantSpan(
        hg.group,
        GroupAction(hg.group, apex_act),
        GroupAction(hg.group, left_act),
        GroupAction(hg.group, right_act),
        tuple(0 for _ in triples),
        tuple(pair_pos[x1 * n + x3] for x1, _x2, x3 in triples),
    )
