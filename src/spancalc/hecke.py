"""The A2 Hecke algebra over a prime field, groupoidified.

Flags are incident (point, line) pairs in the projective plane over F_q.
The relations P ("same line, different point") and L ("same point,
different line") satisfy P^2 = (q-1)P + qI, L^2 = (q-1)L + qI and the
Yang-Baxter identity PLP = LPL as integer matrices over the flag set.

G = SL(3, F_q) acts transitively on flags, and its orbits on flag pairs
are the six relative positions of two flags (Bruhat decomposition), which
incidence alone tells apart.  So (X x X) // G is equivalent to the
disjoint union of the B Stab_w, with |Stab_w| = |G| / |orbit w| and
|G| = q^3 (q^2 - 1)(q^3 - 1), and the triple space degroupoidifies to the
structure constants of the Hecke algebra by counting middle flags, which
the kernel ``exact.degroupoidify`` weighs: no group element is ever
listed.  Orbit labels follow the shortest relation word reaching the
orbit: e, P, L, PL, LP, PLP; this labeling is a documented choice,
emitted with every output.  The orbits P and L are the relations, so
the three identities are checked on these constants.

The route through the group itself, which enumerates SL(3, F_q) for
q in {2, 3} and finds its orbits on flag pairs, is a test oracle and lives
with the tests.  This module imports only ``spancalc.exact`` and
``spancalc.fq``, and its records are named tuples, as across the package.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exact import _check_cap, degroupoidify
from .fq import echelon, is_prime, nullspace

ORBIT_LABELS = ("e", "P", "L", "PL", "LP", "PLP")
_POSITION = {lbl: i for i, lbl in enumerate(ORBIT_LABELS)}


def _check_flags(q: int) -> int:
    """The number of flags at q, once the flag list and its index, which
    hold that many entries each, pass the size cap."""
    n_flags = (q * q + q + 1) * (q + 1)
    _check_cap(f"flag geometry at q={q}", 2 * n_flags)
    return n_flags


def check_caps(q: int) -> None:
    """Project the work at q against the size cap before doing any of it:
    the flag list with its index, then the structure constants' positions
    relative to one flag and six middle-flag scans."""
    _check_cap(f"Hecke structure constants at q={q}", 7 * _check_flags(q))


class FlagGeometry(NamedTuple):
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
    """The points, in sorted order, are the normalized vectors (0, 0, 1),
    (0, 1, c) and (1, a, b); the lines are the same covectors.  The q + 1
    points of each line are the vectors s b1 + t b2 over the points (s, t)
    of the projective line, with b1, b2 a basis of the covector's
    nullspace, each normalized as its one-row echelon form, so the flags
    are listed without an incidence scan."""
    _check_flags(q)
    if not is_prime(q):
        raise ValueError(f"q={q} is not prime")
    field = range(q)
    points = (((0, 0, 1),) + tuple((0, 1, c) for c in field)
              + tuple((1, a, b) for a in field for b in field))
    lines = points  # lines are normalized annihilator covectors
    point_index = {p: i for i, p in enumerate(points)}
    projective_line = [(1, t) for t in field] + [(0, 1)]
    flags = []
    for li, c in enumerate(lines):
        b1, b2 = nullspace((c,), q, 3)
        for s, t in projective_line:
            v = tuple((s * x + t * y) % q for x, y in zip(b1, b2))
            flags.append((point_index[echelon((v,), q)[0]], li))
    flags.sort()
    index = {f: i for i, f in enumerate(flags)}
    return FlagGeometry(q, points, lines, tuple(flags), index)


class RelationReport(NamedTuple):
    q: int
    checks: tuple[tuple[str, bool], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _name, passed in self.checks)

    def __str__(self) -> str:
        return "\n".join(
            f"{'PASS' if passed else 'FAIL'}: {name}"
            for name, passed in self.checks)


# -- relative positions and the structure constants, group-free -------------

def _pair_label(geo: FlagGeometry, x: tuple[int, int], y: tuple[int, int]
                ) -> str:
    px, lx = x
    py, ly = y
    if x == y:
        return "e"
    if lx == ly:
        return "P"
    if px == py:
        return "L"
    if (py, lx) in geo.flag_index:
        return "PL"   # reachable by a P step then an L step
    if (px, ly) in geo.flag_index:
        return "LP"
    return "PLP"


def sl3_order(q: int) -> int:
    """|SL(3, F_q)| = q^3 (q^2 - 1)(q^3 - 1)."""
    return q ** 3 * (q * q - 1) * (q ** 3 - 1)


def relative_positions(geo: FlagGeometry
                       ) -> tuple[list[int], tuple[int, ...]]:
    """The position of each flag relative to flag 0, as an index into
    ORBIT_LABELS, and the size of each G-orbit on flag pairs.

    G is transitive on flags, so an orbit holds n_flags times as many
    pairs as there are flags in that position relative to flag 0.
    """
    x0 = geo.flags[0]
    position = [_POSITION[_pair_label(geo, x0, y)] for y in geo.flags]
    return position, tuple(geo.n_flags * position.count(w)
                           for w in range(len(ORBIT_LABELS)))


class HeckeTensor(NamedTuple):
    """Structure constants c[u][v][w]: psi_u * psi_v = sum_w c[u][v][w] psi_w."""

    q: int
    labels: tuple[str, ...]
    tensor: tuple   # 6x6x6 nested tuples of Fractions


def hecke_structure_constants(q: int, alpha: int = 0) -> HeckeTensor:
    """Degroupoidify the triple space (X x X x X) // G to the 6x6x6 tensor
    from flag incidence and |G| alone.

    Fix a pair (x1, x3) in orbit w.  The triples over it with (x1, x2) in
    orbit u and (x2, x3) in orbit v are ``count`` middle flags x2, acted
    on by Stab_w, and the sum over their orbits of 1/|Stab triple| is
    count / |Stab_w|.  So they enter ``exact.degroupoidify`` as one class
    with |Stab_w| automorphisms counted ``count`` times, over the x foot w
    and the y foot (u, v), |Stab_u| |Stab_v| automorphisms: c[u][v][w] is
    the count itself at alpha = 0.
    """
    check_caps(q)
    geo = flag_geometry(q)
    first, sizes = relative_positions(geo)
    order = sl3_order(q)
    if any(order % size for size in sizes):
        raise AssertionError(f"orbit-stabilizer bookkeeping broke: orbits "
                             f"of {sizes} pairs in a group of order {order}")
    stab = [order // size for size in sizes]
    k = len(ORBIT_LABELS)
    classes = []
    for w in range(k):
        x3 = geo.flags[first.index(w)]     # (flag 0, x3) lies in orbit w
        counts = [[0] * k for _u in range(k)]
        for u, x2 in zip(first, geo.flags):
            counts[u][_POSITION[_pair_label(geo, x2, x3)]] += 1
        # x foot: the pair13 orbit; y foot: the pair12, pair23 orbits
        classes += [((u, v, w), stab[w], stab[u] * stab[v], stab[w], count)
                    for u, row in enumerate(counts)
                    for v, count in enumerate(row) if count]
    c = degroupoidify(classes, alpha, f"hecke structure constants at q={q}, "
                      f"alpha {alpha}", k ** 3)
    return HeckeTensor(q, ORBIT_LABELS, tuple(
        tuple(tuple(c.get((u, v, w), Fraction(0)) for w in range(k))
              for v in range(k)) for u in range(k)))


def verify_hecke_relations(tensor: HeckeTensor) -> RelationReport:
    """Check P^2 = (q-1)P + qI, L^2 = (q-1)L + qI and PLP = LPL on the
    alpha = 0 structure constants: coefficient vectors over the six orbit
    matrices, multiplied through c[u][v][w].  Those matrices have disjoint
    nonempty supports, so they are linearly independent, and each matrix
    identity holds exactly when its coefficient vectors agree."""
    q, c, k = tensor.q, tensor.tensor, range(len(tensor.labels))

    def times(x: list, y: list) -> list:
        terms = [(xu * yv, c[u][v]) for u, xu in enumerate(x) if xu
                 for v, yv in enumerate(y) if yv]
        return [sum(a * row[w] for a, row in terms) for w in k]

    e, P, L = ([int(w == i) for w in k] for i in range(3))   # orbits 0-2

    def quadratic(R: list) -> bool:
        return times(R, R) == [(q - 1) * r + q * i for r, i in zip(R, e)]

    return RelationReport(q, (
        (f"P^2 = ({q}-1)P + {q}I", quadratic(P)),
        (f"L^2 = ({q}-1)L + {q}I", quadratic(L)),
        ("PLP = LPL (Yang-Baxter)",
         times(times(P, L), P) == times(times(L, P), L)),
    ))
