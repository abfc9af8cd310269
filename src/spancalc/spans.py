"""Spans of finite groupoids, weak pullbacks, and exact degroupoidification.

A span from X to Y is an apex groupoid with functors to Y (left leg) and X
(right leg); it degroupoidifies to a matrix over the isomorphism classes,
with entry at (class of y, class of x) equal to

    sum over apex classes [s] lying over ([x], [y]) of
        |Aut(x)|^(1-alpha) * |Aut(y)|^alpha / |Aut(s)|

computed in exact rational arithmetic.  A vector on X is a span from the
terminal groupoid to X (BHW section 2): applying a span to it and pairing
two of them are both composites.  Weak pullbacks implement span
composition; since equivalent spans induce equal matrices, the one weak
pullback is blockwise-skeletal (one object per isomorphism class), and that
is also the composite ``spancalc compose`` writes.  Its objects are
orbits of automorphism groups on hom-sets, grown by ``exact.orbits`` from
``FiniteGroupoid.aut_generators``.  It counts its objects and morphisms
against the size cap before it lists them.  The literal pullback, one
object per triple (t, s, alpha), and the rest of the span calculus (sums,
scalars, adjoints, tensor products, traces) are test oracles only.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import NamedTuple, Sequence

from .exact import _check_cap, aut_weight, format_rational, orbits
from .groupoid import (
    FiniteGroupoid,
    GroupoidFunctor,
    IsoClassTable,
    iso_classes,
    same_groupoid as _same_groupoid,
)

# -- matrices ----------------------------------------------------------------

class RationalMatrix:
    """Dense exact matrix indexed by iso classes (rows: Y, cols: X)."""

    def __init__(self, n_rows: int, n_cols: int, data=None):
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.data = data if data is not None else \
            [[Fraction(0)] * n_cols for _ in range(n_rows)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (self.n_rows, self.n_cols) == (other.n_rows, other.n_cols) \
            and self.data == other.data

    def __repr__(self) -> str:
        return f"RationalMatrix({self.n_rows}x{self.n_cols})"


# -- spans -------------------------------------------------------------------

class SpanOfGroupoids(NamedTuple):
    """Apex groupoid with left leg into Y and right leg into X (a span X -> Y)."""

    apex: FiniteGroupoid
    left: GroupoidFunctor
    right: GroupoidFunctor

    @property
    def source(self) -> FiniteGroupoid:
        return self.right.codomain

    @property
    def target(self) -> FiniteGroupoid:
        return self.left.codomain


# -- weak pullback -----------------------------------------------------------

class _PullbackGroupoid(FiniteGroupoid):
    """Objects are (t, s, alpha) with alpha: f(t) -> g(s) in the base, one
    per isomorphism class; morphisms are automorphisms (u, v) of an object.

    Composition works componentwise through the two parent groupoids, so
    no composition table is materialized.
    """

    __slots__ = ("obj_data", "mor_data", "_mor_index", "T", "S")

    def __init__(self, T: FiniteGroupoid, S: FiniteGroupoid,
                 obj_data: list[tuple[int, int, int]],
                 mor_data: list[tuple[int, int, int]]):
        self.T = T
        self.S = S
        self.obj_data = obj_data
        self.mor_data = mor_data
        self._mor_index = {m: i for i, m in enumerate(mor_data)}
        src = tuple(o for o, _u, _v in mor_data)
        identity = tuple(self._mor_index[(o, T.identity[t], S.identity[s])]
                         for o, (t, s, _a) in enumerate(obj_data))
        inverse = tuple(self._mor_index[(o, T.inverse[u], S.inverse[v])]
                        for o, u, v in mor_data)
        super().__init__(len(obj_data), src, src, identity, inverse,
                         self._compose_pairs)

    def _compose_pairs(self, f: int, g: int) -> int:
        o, u1, v1 = self.mor_data[f]
        _o2, u2, v2 = self.mor_data[g]
        return self._mor_index[(o, self.T.compose(u1, u2),
                                self.S.compose(v1, v2))]

    def with_projections(self) -> tuple[FiniteGroupoid, GroupoidFunctor,
                                        GroupoidFunctor]:
        """(P, P -> T, P -> S)."""
        proj_t = GroupoidFunctor(self, self.T,
                                 tuple(t for t, _s, _a in self.obj_data),
                                 tuple(u for _o, u, _v in self.mor_data))
        proj_s = GroupoidFunctor(self, self.S,
                                 tuple(s for _t, s, _a in self.obj_data),
                                 tuple(v for _o, _u, v in self.mor_data))
        return self, proj_t, proj_s


def _right_move(B: FiniteGroupoid, r: int):
    """The move alpha -> alpha;r on a hom-set of B."""
    return lambda alpha: B.compose(alpha, r)


def weak_pullback(f: GroupoidFunctor, g: GroupoidFunctor
                  ) -> tuple[FiniteGroupoid, GroupoidFunctor, GroupoidFunctor]:
    """Weak pullback of the cospan f: T -> B <- S :g, up to equivalence.

    Returns (P, P -> T, P -> S).  The literal pullback has an object
    (t, s, alpha) for each isomorphism alpha: f(t) -> g(s) in B.  P keeps,
    for class representatives t0 and s0 with f t0 and g s0 isomorphic in
    B, one object (t0, s0, alpha0) per orbit of Aut(t0) x Aut(s0) on
    B(f t0, g s0), alpha0 its least element, with the stabilizer of alpha0
    as automorphisms; pairs whose images are not isomorphic are never
    visited.  Projections commute on the nose, so every degroupoidification
    agrees exactly with the literal one.  The objects, bounded by the
    hom-sets scanned, and the morphisms, counted exactly by
    orbit-stabilizer, are checked against the size cap before they are
    listed.  A ValueError says the spans are not composable unless f and
    g share their codomain, the middle foot: this is the one such check
    of ``compose_spans``.
    """
    if not _same_groupoid(f.codomain, g.codomain):
        raise ValueError("spans are not composable: middle feet differ")
    T, S, B = f.domain, g.domain, f.codomain
    b_classes = iso_classes(B)
    # S's representatives by the class of their image: B(f t0, g s0) is
    # empty unless f t0 and g s0 are isomorphic, and else has |Aut f t0|
    # elements
    s_reps_in: dict[int, list[int]] = {}
    for s0 in iso_classes(S).representative:
        s_reps_in.setdefault(b_classes.class_of[g.obj_map[s0]], []).append(s0)
    t_reps = iso_classes(T).representative
    t_class = [b_classes.class_of[f.obj_map[t0]] for t0 in t_reps]
    _check_cap("weak pullback objects",
               sum(len(s_reps_in.get(c, ())) * b_classes.aut_order[c]
                   for c in t_class))

    obj_data: list[tuple[int, int, int]] = []   # (t0, s0, alpha0)
    obj_auts: list[tuple[list[int], list[int]]] = []   # (Aut t0, Aut s0)
    n_mor = 0
    for t0, c in zip(t_reps, t_class):
        if c not in s_reps_in:
            continue
        aut_t = T.aut(t0)
        left_moves = [functools.partial(B.compose, B.inverse[f.mor_map[u]])
                      for u in T.aut_generators(t0)]
        for s0 in s_reps_in[c]:
            aut_s = S.aut(s0)
            order = len(aut_t) * len(aut_s)
            moves = left_moves + [_right_move(B, g.mor_map[v])
                                  for v in S.aut_generators(s0)]
            for orbit in orbits(B.hom(f.obj_map[t0], g.obj_map[s0]), moves,
                                {}):
                obj_data.append((t0, s0, orbit[0]))
                obj_auts.append((aut_t, aut_s))
                n_mor += order // len(orbit)
    _check_cap("weak pullback morphisms", n_mor)

    mor_data: list[tuple[int, int, int]] = []   # (obj, u, v)
    g_lookups: dict[int, dict[int, list[int]]] = {}
    for o, ((_t0, s0, alpha0), (aut_t, aut_s)) in enumerate(
            zip(obj_data, obj_auts)):
        g_lookup = g_lookups.get(s0)
        if g_lookup is None:
            g_lookup = g_lookups[s0] = {}
            for v in aut_s:
                g_lookup.setdefault(g.mor_map[v], []).append(v)
        inv_a0 = B.inverse[alpha0]
        for u in aut_t:
            beta = B.compose(B.compose(inv_a0, f.mor_map[u]), alpha0)
            for v in g_lookup.get(beta, ()):
                mor_data.append((o, u, v))

    return _PullbackGroupoid(T, S, obj_data, mor_data).with_projections()


# -- composition and degroupoidification -------------------------------------

def compose_spans(t: SpanOfGroupoids, s: SpanOfGroupoids) -> SpanOfGroupoids:
    """Composite span "s then t": the spans' shared foot is t's source."""
    P, proj_t, proj_s = weak_pullback(t.right, s.left)
    return SpanOfGroupoids(P, proj_t.then(t.left), proj_s.then(s.right))


def degroupoidify_classes(apex: IsoClassTable, left: Sequence[int],
                          right: Sequence[int], y: IsoClassTable,
                          x: IsoClassTable, alpha: Fraction | int = 0
                          ) -> RationalMatrix:
    """The one degroupoidification kernel: the entry at ([y], [x]) sums
    ``aut_weight`` over the apex classes whose representatives the leg
    object maps ``left`` and ``right`` send into [y] and [x]."""
    alpha = Fraction(alpha)
    out = RationalMatrix(y.n_classes, x.n_classes)
    for rep, s_aut in zip(apex.representative, apex.aut_order):
        cy = y.class_of[left[rep]]
        cx = x.class_of[right[rep]]
        out.data[cy][cx] += aut_weight(x.aut_order[cx], y.aut_order[cy],
                                       s_aut, alpha)
    return out


def degroupoidify_span(s: SpanOfGroupoids, alpha: Fraction | int = 0
                       ) -> RationalMatrix:
    """Exact matrix of the span at the given normalization convention."""
    return degroupoidify_classes(iso_classes(s.apex), s.left.obj_map,
                                 s.right.obj_map, iso_classes(s.target),
                                 iso_classes(s.source), alpha)


# -- JSON / CSV interchange --------------------------------------------------

def matrix_to_json(m: RationalMatrix,
                   row_table: IsoClassTable | None = None,
                   col_table: IsoClassTable | None = None) -> dict:
    rows = list(row_table.representative) if row_table else list(range(m.n_rows))
    cols = list(col_table.representative) if col_table else list(range(m.n_cols))
    return {
        "rows": rows,
        "cols": cols,
        "entries": [[format_rational(x) for x in row] for row in m.data],
    }


def matrix_to_csv(m: RationalMatrix) -> str:
    return "\n".join(",".join(format_rational(x) for x in row)
                     for row in m.data) + "\n"


def span_to_json(s: SpanOfGroupoids) -> dict:
    return {
        "apex": s.apex.to_json(),
        "left": s.left.to_json(),
        "right": s.right.to_json(),
        "left_codomain": s.target.to_json(),
        "right_codomain": s.source.to_json(),
    }


def span_from_json(data: dict) -> SpanOfGroupoids:
    apex = FiniteGroupoid.from_json(data["apex"])
    target = FiniteGroupoid.from_json(data["left_codomain"])
    source = FiniteGroupoid.from_json(data["right_codomain"])
    left = GroupoidFunctor.from_json(data["left"], apex, target)
    right = GroupoidFunctor.from_json(data["right"], apex, source)
    return SpanOfGroupoids(apex, left, right)
