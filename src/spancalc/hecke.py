"""The A2 Hecke algebra over a prime field, groupoidified.

Flags are incident (point, line) pairs in the projective plane over F_q.
The relations P ("same line, different point") and L ("same point,
different line") satisfy P^2 = (q-1)P + qI, L^2 = (q-1)L + qI and the
Yang-Baxter identity PLP = LPL as integer matrices over the flag set.
Each row of P and L has q entries, so the identities are checked by
multiplying sparse rows exactly.

G = SL(3, F_q) acts transitively on flags, and its orbits on flag pairs
are the six relative positions of two flags (Bruhat decomposition), which
incidence alone tells apart.  So (X x X) // G is equivalent to the
disjoint union of the B Stab_w, with |Stab_w| = |G| / |orbit w| and
|G| = q^3 (q^2 - 1)(q^3 - 1), and the triple space degroupoidifies to the
structure constants of the Hecke algebra by counting middle flags, which
the kernel ``exact.degroupoidify`` weighs: no group element is ever
listed.  Orbit labels follow the shortest relation
word reaching the orbit: e, P, L, PL, LP, PLP; this labeling is a
documented choice, emitted with every output.

The route through the group itself, which enumerates SL(3, F_q) for
q in {2, 3} and finds its orbits on flag pairs, is a test oracle and lives
with the tests.  This module imports only ``spancalc.exact`` and
``spancalc.fq``, and its records are named tuples, as across the package.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .exact import SizeCapError, _check_cap, degroupoidify
from .fq import echelon, is_prime, nullspace

ORBIT_LABELS = ("e", "P", "L", "PL", "LP", "PLP")
_POSITION = {lbl: i for i, lbl in enumerate(ORBIT_LABELS)}

# arithmetic terms of the relation products, 2 n_flags q^3: 1.1e7 at
# q = 13 passes, 5.4e7 at q = 17 does not
MAX_RELATION_TERMS = 2 * 10 ** 7

Rows = tuple[tuple[int, ...], ...]   # a sparse 0/1 matrix: row f lists its 1s


def check_caps(q: int, relations: bool = True, constants: bool = True
               ) -> None:
    """Project the work at q against the caps before doing any of it: the
    flag list with its index, the sparse relation rows and the middle-flag
    counts of the structure constants are allocations, checked against the
    size cap; the terms of the relation products are time, checked against
    MAX_RELATION_TERMS, since ``verify_hecke_relations`` holds one product
    row at a time."""
    n_flags = (q * q + q + 1) * (q + 1)
    # the flag list and its index hold n_flags entries each
    _check_cap(f"flag geometry at q={q}", 2 * n_flags)
    if relations:
        # the rows of P and L hold q entries each
        _check_cap(f"Hecke relation rows at q={q}", 2 * n_flags * q)
        # each of the two triple products spends about q^3 terms per row
        terms = 2 * n_flags * q ** 3
        if terms > MAX_RELATION_TERMS:
            raise SizeCapError(f"Hecke relation product terms at q={q}",
                               terms, MAX_RELATION_TERMS)
    if constants:
        # positions relative to one flag, then six middle-flag scans
        _check_cap(f"Hecke structure constants at q={q}", 7 * n_flags)


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
    check_caps(q, relations=False, constants=False)
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


# -- the relations P and L as sparse rows ------------------------------------

def relation_rows(geo: FlagGeometry) -> tuple[Rows, Rows]:
    """P and L as sparse rows: row f of P lists the flags on the line of
    flag f other than f, row f of L those through its point, q each."""
    def rows(same_component: int) -> Rows:
        by_value: dict[int, list[int]] = {}
        for f, flag in enumerate(geo.flags):
            by_value.setdefault(flag[same_component], []).append(f)
        return tuple(tuple(g for g in by_value[flag[same_component]] if g != f)
                     for f, flag in enumerate(geo.flags))
    return rows(1), rows(0)


def row_product(factors: Sequence[Rows], f: int) -> dict[int, int]:
    """Row f of the integer matrix product of sparse 0/1 matrices, taken
    left to right, as {column: nonzero entry}."""
    row = {f: 1}
    for rows in factors:
        nxt: dict[int, int] = {}
        for g, c in row.items():
            for h in rows[g]:
                nxt[h] = nxt.get(h, 0) + c
        row = nxt
    return row


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


def verify_hecke_relations(q: int) -> RelationReport:
    """Check P^2, L^2 and Yang-Baxter as exact integer matrix identities,
    one sparse row at a time."""
    check_caps(q, constants=False)
    geo = flag_geometry(q)
    P, L = relation_rows(geo)
    flags = range(geo.n_flags)

    def quadratic(R: Rows) -> bool:
        # R^2 = (q-1)R + qI, row by row
        return all(row_product((R, R), f) ==
                   {**dict.fromkeys(R[f], q - 1), f: q} for f in flags)

    checks = (
        (f"P^2 = ({q}-1)P + {q}I", quadratic(P)),
        (f"L^2 = ({q}-1)L + {q}I", quadratic(L)),
        ("PLP = LPL (Yang-Baxter)",
         all(row_product((P, L, P), f) == row_product((L, P, L), f)
             for f in flags)),
    )
    return RelationReport(q, checks)


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
    check_caps(q, relations=False)
    geo = flag_geometry(q)
    first, sizes = relative_positions(geo)
    order = sl3_order(q)
    stab = [order // size for size in sizes]
    for size, s in zip(sizes, stab):
        if size * s != order:
            raise AssertionError(
                f"orbit-stabilizer bookkeeping broke: orbit of {size} "
                f"pairs in a group of order {order}")
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
