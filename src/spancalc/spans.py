"""Spans of finite groupoids, weak pullbacks, and exact degroupoidification.

A span from X to Y is an apex groupoid with functors to Y (left leg) and X
(right leg); it degroupoidifies to a matrix over the isomorphism classes,
with entry at (class of y, class of x) equal to

    sum over apex classes [s] lying over ([x], [y]) of
        |Aut(x)|^(1-alpha) * |Aut(y)|^alpha / |Aut(s)|

computed in exact rational arithmetic from one join of the apex classes
per entry, which also bounds the entry's digits before any power is
formed.  A vector on X is a span from the terminal groupoid to X (BHW
section 2): applying a span to it and pairing two of them are both
composites.  Weak pullbacks implement span composition; since equivalent
spans induce equal matrices, the one weak pullback is blockwise-skeletal
(one object per isomorphism class), and that is also the composite
``spancalc compose`` writes.  Its objects are orbits of automorphism
groups on hom-sets, grown by ``exact.orbits`` from
``FiniteGroupoid.aut_generators``, counted with its morphisms against the
size cap before they are listed.  It is a plain ``FiniteGroupoid`` whose
morphisms compose componentwise.  The literal pullback, one object per
triple (t, s, alpha), and the rest of the span calculus (sums, scalars,
adjoints, tensor products, traces) are test oracles only.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .exact import (_check_cap, aut_weight, check_digits, format_rational,
                    orbits)
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

def _pullback_objects(f: GroupoidFunctor, g: GroupoidFunctor
                      ) -> list[tuple[int, int, int]]:
    """The objects of ``weak_pullback``: for class representatives t0 and
    s0 with f t0 and g s0 isomorphic in B, one object (t0, s0, alpha0) per
    orbit of Aut(t0) x Aut(s0) on B(f t0, g s0), alpha0 its least element.
    The objects, bounded by the hom-sets scanned, and their morphisms,
    counted by orbit-stabilizer, are checked against the size cap."""
    T, S, B = f.domain, g.domain, f.codomain
    b_classes = iso_classes(B)
    # S's representatives by the class of their image: B(f t0, g s0) is
    # empty unless f t0 and g s0 are isomorphic, and else has |Aut f t0|
    # elements
    s_classes, t_classes = iso_classes(S), iso_classes(T)
    s_reps_in: dict[int, list[tuple[int, int]]] = {}   # (s0, |Aut s0|)
    for s0, s_aut in zip(s_classes.representative, s_classes.aut_order):
        s_reps_in.setdefault(b_classes.class_of[g.obj_map[s0]],
                             []).append((s0, s_aut))
    t_class = [b_classes.class_of[f.obj_map[t0]]
               for t0 in t_classes.representative]
    _check_cap("weak pullback objects",
               sum(len(s_reps_in.get(c, ())) * b_classes.aut_order[c]
                   for c in t_class))

    objects: list[tuple[int, int, int]] = []
    n_mor = 0
    for t0, t_aut, c in zip(t_classes.representative, t_classes.aut_order,
                            t_class):
        if c not in s_reps_in:
            continue
        left_moves = [functools.partial(B.compose, B.inverse[f.mor_map[u]])
                      for u in T.aut_generators(t0)]
        for s0, s_aut in s_reps_in[c]:
            moves = left_moves + [lambda a, r=g.mor_map[v]: B.compose(a, r)
                                  for v in S.aut_generators(s0)]
            for orbit in orbits(B.hom(f.obj_map[t0], g.obj_map[s0]), moves,
                                {}):
                objects.append((t0, s0, orbit[0]))
                n_mor += t_aut * s_aut // len(orbit)
    _check_cap("weak pullback morphisms", n_mor)
    return objects


def weak_pullback(f: GroupoidFunctor, g: GroupoidFunctor
                  ) -> tuple[FiniteGroupoid, GroupoidFunctor, GroupoidFunctor]:
    """Weak pullback of the cospan f: T -> B <- S :g, up to equivalence.

    Returns (P, P -> T, P -> S).  The literal pullback has an object
    (t, s, alpha) for each isomorphism alpha: f(t) -> g(s) in B.  P keeps
    one per isomorphism class (``_pullback_objects``), and as its
    automorphisms the stabilizer of alpha0: the (o, u, v) with f(u);alpha0
    = alpha0;g(v), composed componentwise through T and S, so no table is
    materialized.  Projections commute on the nose, so every
    degroupoidification agrees exactly with the literal one.  A ValueError
    says the spans are not composable unless f and g share their codomain,
    the middle foot: the one such check of ``compose_spans``.
    """
    if not _same_groupoid(f.codomain, g.codomain):
        raise ValueError("spans are not composable: middle feet differ")
    T, S, B = f.domain, g.domain, f.codomain
    objects = _pullback_objects(f, g)

    mor_data: list[tuple[int, int, int]] = []   # (object, u, v)
    g_lookups: dict[int, dict[int, list[int]]] = {}
    for o, (t0, s0, alpha0) in enumerate(objects):
        g_lookup = g_lookups.get(s0)
        if g_lookup is None:
            g_lookup = g_lookups[s0] = {}
            for v in S.aut(s0):
                g_lookup.setdefault(g.mor_map[v], []).append(v)
        inv_a0 = B.inverse[alpha0]
        for u in T.aut(t0):
            beta = B.compose(B.compose(inv_a0, f.mor_map[u]), alpha0)
            for v in g_lookup.get(beta, ()):
                mor_data.append((o, u, v))
    index = {m: i for i, m in enumerate(mor_data)}

    def compose(m1: int, m2: int) -> int:
        o, u1, v1 = mor_data[m1]
        _o, u2, v2 = mor_data[m2]
        return index[(o, T.compose(u1, u2), S.compose(v1, v2))]

    src = tuple(o for o, _u, _v in mor_data)
    P = FiniteGroupoid(
        len(objects), src, src,
        [index[(o, T.identity[t], S.identity[s])]
         for o, (t, s, _a) in enumerate(objects)],
        [index[(o, T.inverse[u], S.inverse[v])] for o, u, v in mor_data],
        compose)
    return (P,
            GroupoidFunctor(P, T, tuple(t for t, _s, _a in objects),
                            tuple(u for _o, u, _v in mor_data)),
            GroupoidFunctor(P, S, tuple(s for _t, s, _a in objects),
                            tuple(v for _o, _u, v in mor_data)))


# -- composition and degroupoidification -------------------------------------

def compose_spans(t: SpanOfGroupoids, s: SpanOfGroupoids) -> SpanOfGroupoids:
    """Composite span "s then t": the spans' shared foot is t's source."""
    P, proj_t, proj_s = weak_pullback(t.right, s.left)
    return SpanOfGroupoids(P, proj_t.then(t.left), proj_s.then(s.right))


def _entry_digits(joined: dict, y: IsoClassTable, x: IsoClassTable,
                  alpha: Fraction) -> tuple[int, int]:
    """The most decimal digits of a numerator or denominator in one entry
    of the matrix at ``alpha``, and those of all entries together, bounded
    before any power is computed; ``joined`` lists the |Aut s| of the apex
    classes over each pair ([y], [x]).  The entry that n apex classes join
    is a (b'/a')^alpha times a sum of n terms 1/|Aut s|, with a = |Aut x|,
    b = |Aut y| and a'/b' = a/b in lowest terms, so it has at most
    ceil|alpha| log10 max(a', b') + log10(a b L n) + 1 digits, L the lcm
    of those |Aut s|.  |alpha| past 10^300 is taken as 10^300, so that the
    count prints."""
    power = math.ceil(min(abs(alpha), 10 ** 300))
    # an entry over no apex class prints as 0/1
    unjoined = y.n_classes * x.n_classes - len(joined)
    longest, total = min(unjoined, 1), unjoined
    for (cy, cx), auts in joined.items():
        a, b = x.aut_order[cx], y.aut_order[cy]
        ratio = max(a, b) // math.gcd(a, b)
        rest = a * b * math.lcm(*auts) * len(auts)
        digits = math.ceil(power * Fraction(math.log10(ratio))
                           + Fraction(math.log10(rest)) + 1)
        longest, total = max(longest, digits), total + digits
    return longest, total


def degroupoidify_classes(apex: IsoClassTable, left: Sequence[int],
                          right: Sequence[int], y: IsoClassTable,
                          x: IsoClassTable, alpha: Fraction | int = 0,
                          label: str = "alpha") -> RationalMatrix:
    """The one degroupoidification kernel.  It joins the apex classes that
    the leg object maps ``left`` and ``right`` send into ([y], [x]), bounds
    the digits of each entry (``_entry_digits`` through
    ``exact.check_digits``; a refusal names alpha by ``label``), and
    weighs the entry once: ``aut_weight`` at |Aut s| = 1 times the sum of
    the 1/|Aut s|."""
    alpha = Fraction(alpha)
    joined: dict[tuple[int, int], list[int]] = {}
    for rep, s_aut in zip(apex.representative, apex.aut_order):
        joined.setdefault((y.class_of[left[rep]], x.class_of[right[rep]]),
                          []).append(s_aut)
    check_digits(f"degroupoidify at {label}",
                 *_entry_digits(joined, y, x, alpha))
    out = RationalMatrix(y.n_classes, x.n_classes)
    for (cy, cx), auts in joined.items():
        weight = aut_weight(x.aut_order[cx], y.aut_order[cy], 1, alpha)
        out.data[cy][cx] = weight * sum(Fraction(1, s_aut) for s_aut in auts)
    return out


def degroupoidify_span(s: SpanOfGroupoids, alpha: Fraction | int = 0,
                       label: str = "alpha") -> RationalMatrix:
    """Exact matrix of the span at the given normalization convention."""
    return degroupoidify_classes(iso_classes(s.apex), s.left.obj_map,
                                 s.right.obj_map, iso_classes(s.target),
                                 iso_classes(s.source), alpha, label)


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
