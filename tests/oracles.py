"""Oracles and fixtures that only the tests call.

``from_group_table``, ``terminal``, ``discrete``, ``empty``, ``connected``
and ``table_product`` build groupoids, from group tables where they have
automorphisms, with ``cyclic_table`` and ``symmetric_table`` as the
tables; ``coproduct``, ``product`` and ``product_functor`` combine them.
``cardinality_alt``, ``full_inverse_image``, ``check_equivalence_certificate``
and ``skeleton`` are the groupoid constructions that the package's own
routines are checked against.  ``GroupAction`` is a group acting by a table
with one row per element; ``orbit_table`` gives the iso classes of S//G
from such a table, ``materialize`` the action groupoid itself, and
``degroupoidify_equivariant`` degroupoidifies an ``EquivariantSpan``
straight from orbits and stabilizers, against ``materialize_span`` run
through the generic span machinery.  ``degroupoidify_per_class`` weighs
apex classes one by one, the oracle of the kernel that joins them.

The span calculus of BHW section 2 beyond composition: ``Matrix`` is a
``RationalMatrix`` with the arithmetic that the identities are stated in,
and ``span_matrix`` degroupoidifies a span to one.  ``identity_span``,
``add_spans``, ``scalar_mul``, ``adjoint``, ``tensor_spans`` and
``alpha_change_of_basis`` are the rest of the calculus.  A vector on X is
the span 1 <- Psi -> X from the terminal groupoid (``vector_span``):
applying a span to it is ``compose_spans``, its entries are the matrix's
one column (``vector_entries``), and ``pairing`` is the cardinality of the
apex of ``compose_spans(adjoint(phi), psi)``.

The SL(3, F_q) route to the A2 Hecke algebra: ``build_group`` enumerates
SL(3, F_q) for q in {2, 3} as a one-object groupoid with a callable
composite, with its action on flags as a table of tuples.
``bruhat_orbits`` finds its orbits on flag pairs with ``orbit_table``,
and ``triple_block_span`` gives one tensor entry as an equivariant span.  Both tabulate the action on pairs,
|G| n^2 entries, which is 74k at q = 2 but 15.2M at q = 3, so tests run
them at q = 2 only.  ``build_P`` and ``build_L`` are the relations as dense
numpy matrices, ``enumerate_flags`` lists the flags as vector pairs,
``basis_vector`` is a basis element of a ``HeckeTensor`` and
``hecke_product`` multiplies two elements through its structure constants.
``spancalc.hecke`` reaches the same numbers from flag incidence alone,
without listing a group element.

``enumerate_reps`` and ``zero_class`` are the Hall counterparts that only
tests call: the class table of one dimension vector from a fresh algebra,
and the unit of an algebra.  ``euler_form`` is a quiver's Euler form,
whose symmetrization is the Tits form ``spancalc.hall.Quiver`` tests;
``positive_roots`` finds the roots of its Dynkin diagram by simple
reflections, and ``kostant_partitions`` counts the ways to split a
dimension vector into them, which by Gabriel's theorem is the number of
its isomorphism classes.

``weak_pullback_literal``, ``compose_literal`` and ``trace_literal`` build
the literal weak pullback and trace groupoid, one object per triple
(t, s, alpha), as plain groupoids with a callable composite.  They share no
construction code with the skeletal ``spancalc.spans.weak_pullback`` they
check; ``trace_literal`` is the one trace the tests take.

``build_E`` materializes E, the groupoid of finite sets, truncated at N <= 8:
one object per cardinality n with the permutations of {0..n-1} as
automorphisms, composed directly.  ``annihilation_span``,
``creation_span``, ``psi_n`` and ``two_colored_stuff`` are the Fock spans
and stuff types over it as groupoids and functors, so that
``spancalc.spans.weak_pullback`` on them checks the closed form of
``spancalc.fock``.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from spancalc.exact import SizeCapError, _check_cap, aut_weight
from spancalc.fq import echelon
from spancalc.groupoid import (FiniteGroupoid, GroupoidFunctor, IsoClassTable,
                               Rational, cardinality, iso_classes,
                               same_groupoid)
from spancalc.hall import HallAlgebra, Quiver, RepClass
from spancalc.hecke import (FlagGeometry, HeckeTensor, _pair_label,
                            flag_geometry)
from spancalc.spans import (RationalMatrix, SpanOfGroupoids, compose_spans,
                            degroupoidify_classes, degroupoidify_span)


# -- groupoids from group tables ------------------------------------------------

def from_group_table(table: Sequence[Sequence[int]]) -> FiniteGroupoid:
    """One-object groupoid from a group multiplication table.

    ``table[a][b]`` is the product "a then b"; row/column 0 need not be
    the identity, it is located by inspection.
    """
    n = len(table)
    e = next((a for a in range(n)
              if all(table[a][b] == b and table[b][a] == b
                     for b in range(n))), None)
    if e is None:
        raise ValueError("multiplication table has no identity")
    inv = [next(b for b in range(n) if table[a][b] == e) for a in range(n)]
    compose = {(a, b): table[a][b] for a in range(n) for b in range(n)}
    return FiniteGroupoid(1, (0,) * n, (0,) * n, (e,), tuple(inv), compose)


def empty() -> FiniteGroupoid:
    return FiniteGroupoid(0, (), (), (), (), {})


def terminal() -> FiniteGroupoid:
    return FiniteGroupoid(1, (0,), (0,), (0,), (0,), {(0, 0): 0})


def discrete(n: int) -> FiniteGroupoid:
    rng = tuple(range(n))
    return FiniteGroupoid(n, rng, rng, rng, rng, {(i, i): i for i in range(n)})


def identity_functor(g: FiniteGroupoid) -> GroupoidFunctor:
    return GroupoidFunctor(g, g, tuple(range(g.n_objects)),
                           tuple(range(g.n_morphisms)))


def cyclic_table(n: int) -> list[list[int]]:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def symmetric_table(n: int) -> list[list[int]]:
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    # entry [a][b] = "a then b" = b after a
    return [[index[tuple(perms[b][perms[a][i]] for i in range(n))]
             for b in range(len(perms))] for a in range(len(perms))]


def connected(class_size: int, group_table: Sequence[Sequence[int]]
              ) -> FiniteGroupoid:
    """Connected groupoid with ``class_size`` objects, all isomorphic,
    each with automorphism group given by ``group_table``."""
    n, m = len(group_table), class_size
    one = from_group_table(group_table)
    # morphism (i * m + j) * n + a is (i, j, a): i -> j, and (i, j, a)
    # then (j, k, b) is (i, k, table[a][b])
    triples = list(itertools.product(range(m), range(m), range(n)))

    def comp(f: int, g: int) -> int:
        (i, _j, a), (_j, k, b) = triples[f], triples[g]
        return (i * m + k) * n + group_table[a][b]

    return FiniteGroupoid(
        m, [i for i, _j, _a in triples], [j for _i, j, _a in triples],
        [(i * m + i) * n + one.identity[0] for i in range(m)],
        [(j * m + i) * n + one.inverse[a] for i, j, a in triples], comp)


def table_product(t1: Sequence[Sequence[int]],
                  t2: Sequence[Sequence[int]]) -> list[list[int]]:
    n1, n2 = len(t1), len(t2)
    return [[t1[a1][b1] * n2 + t2[a2][b2]
             for b1 in range(n1) for b2 in range(n2)]
            for a1 in range(n1) for a2 in range(n2)]


# -- groupoid constructions ------------------------------------------------------

def coproduct(g: FiniteGroupoid, h: FiniteGroupoid
              ) -> tuple[FiniteGroupoid, GroupoidFunctor, GroupoidFunctor]:
    """Disjoint union, with the two injection functors."""
    no, nm = g.n_objects, g.n_morphisms
    src = g.src + tuple(s + no for s in h.src)
    tgt = g.tgt + tuple(t + no for t in h.tgt)
    identity = g.identity + tuple(i + nm for i in h.identity)
    inverse = g.inverse + tuple(i + nm for i in h.inverse)

    def comp(f: int, k: int) -> int:
        if f < nm:
            return g.compose(f, k)
        return h.compose(f - nm, k - nm) + nm

    total = FiniteGroupoid(no + h.n_objects, src, tgt, identity, inverse, comp)
    inj_g = GroupoidFunctor(g, total, tuple(range(no)), tuple(range(nm)))
    inj_h = GroupoidFunctor(h, total,
                            tuple(range(no, no + h.n_objects)),
                            tuple(range(nm, nm + h.n_morphisms)))
    return total, inj_g, inj_h


def product(g: FiniteGroupoid, h: FiniteGroupoid
            ) -> tuple[FiniteGroupoid, GroupoidFunctor, GroupoidFunctor]:
    """Cartesian product, with the two projection functors.

    Object (i, j) is i * |h objects| + j and morphism (f, k) is
    f * |h morphisms| + k; composition is componentwise, and cardinality
    multiplies.
    """
    _check_cap("product groupoid morphisms", g.n_morphisms * h.n_morphisms)
    nho, nhm = h.n_objects, h.n_morphisms
    pairs = list(itertools.product(range(g.n_morphisms), range(nhm)))
    src = [g.src[f] * nho + h.src[k] for f, k in pairs]
    tgt = [g.tgt[f] * nho + h.tgt[k] for f, k in pairs]
    identity = tuple(g.identity[i] * nhm + h.identity[j]
                     for i in range(g.n_objects) for j in range(nho))
    inverse = tuple(g.inverse[f] * nhm + h.inverse[k] for f, k in pairs)

    def comp(a: int, b: int) -> int:
        return (g.compose(a // nhm, b // nhm) * nhm
                + h.compose(a % nhm, b % nhm))

    total = FiniteGroupoid(g.n_objects * nho, src, tgt, identity, inverse,
                           comp)
    objects, morphisms = range(total.n_objects), range(total.n_morphisms)
    proj_g = GroupoidFunctor(total, g, tuple(i // nho for i in objects),
                             tuple(m // nhm for m in morphisms))
    proj_h = GroupoidFunctor(total, h, tuple(i % nho for i in objects),
                             tuple(m % nhm for m in morphisms))
    return total, proj_g, proj_h


def product_functor(f: GroupoidFunctor, g: GroupoidFunctor,
                    dom: FiniteGroupoid, cod: FiniteGroupoid
                    ) -> GroupoidFunctor:
    """The functor f x g between the product groupoids dom and cod, each
    built by ``product``."""
    ndo, ndm = g.domain.n_objects, g.domain.n_morphisms
    nco, ncm = g.codomain.n_objects, g.codomain.n_morphisms
    obj = tuple(f.obj_map[i // ndo] * nco + g.obj_map[i % ndo]
                for i in range(dom.n_objects))
    mor = tuple(f.mor_map[m // ndm] * ncm + g.mor_map[m % ndm]
                for m in range(dom.n_morphisms))
    return GroupoidFunctor(dom, cod, obj, mor)


def cardinality_alt(g: FiniteGroupoid) -> Rational:
    """Sum over objects of 1/(number of morphisms out of the object).

    Agrees with ``cardinality`` on every valid groupoid; the two formulas
    serve as mutual oracles.
    """
    out_count = [0] * g.n_objects
    for m in range(g.n_morphisms):
        out_count[g.src[m]] += 1
    total = Fraction(0)
    for x in range(g.n_objects):
        if out_count[x] == 0:
            raise ValueError(f"object {x} has no morphisms, not even identity")
        total += Fraction(1, out_count[x])
    return total


def full_inverse_image(v: GroupoidFunctor, x: int) -> FiniteGroupoid:
    """Full subgroupoid of the domain on objects mapping into the class of x."""
    cod = v.codomain
    if not (0 <= x < cod.n_objects):
        raise ValueError(f"object {x} is not in the codomain")
    cod_classes = iso_classes(cod)
    cls = cod_classes.class_of[x]
    objs = [a for a in range(v.domain.n_objects)
            if cod_classes.class_of[v.obj_map[a]] == cls]
    return _full_subgroupoid(v.domain, objs).domain


def _full_subgroupoid(g: FiniteGroupoid, objs: Sequence[int]
                      ) -> GroupoidFunctor:
    """The full subgroupoid of g on ``objs``, as its inclusion into g."""
    keep = set(objs)
    obj_index = {o: i for i, o in enumerate(objs)}
    mors = [m for m in range(g.n_morphisms)
            if g.src[m] in keep and g.tgt[m] in keep]
    mor_index = {m: i for i, m in enumerate(mors)}
    compose = {}
    for f in mors:
        for h in g.mor_from(g.tgt[f]):
            if h in mor_index:
                compose[(mor_index[f], mor_index[h])] = mor_index[g.compose(f, h)]
    sub = FiniteGroupoid(
        len(objs),
        tuple(obj_index[g.src[m]] for m in mors),
        tuple(obj_index[g.tgt[m]] for m in mors),
        tuple(mor_index[g.identity[o]] for o in objs),
        tuple(mor_index[g.inverse[m]] for m in mors),
        compose,
    )
    return GroupoidFunctor(sub, g, tuple(objs), tuple(mors))


def check_equivalence_certificate(f: GroupoidFunctor) -> bool:
    """True iff the functor is full, faithful and essentially surjective."""
    dom, cod = f.domain, f.codomain
    for x in range(dom.n_objects):
        for y in range(dom.n_objects):
            hom = dom.hom(x, y)
            images = {f.mor_map[m] for m in hom}
            if len(images) != len(hom):
                return False  # not faithful
            if len(images) != len(cod.hom(f.obj_map[x], f.obj_map[y])):
                return False  # not full
    cod_classes = iso_classes(cod)
    hit = {cod_classes.class_of[f.obj_map[x]] for x in range(dom.n_objects)}
    return len(hit) == cod_classes.n_classes


def transport_to_representatives(g: FiniteGroupoid, table: IsoClassTable
                                 ) -> list[int]:
    """For each object x, a morphism representative(class(x)) -> x.

    Found by breadth-first search along morphisms, composing as we go.
    """
    gamma: list[int | None] = [None] * g.n_objects
    for rep in table.representative:
        gamma[rep] = g.identity[rep]
        frontier = [rep]
        while frontier:
            nxt = []
            for x in frontier:
                for m in g.mor_from(x):
                    y = g.tgt[m]
                    if gamma[y] is None:
                        gamma[y] = g.compose(gamma[x], m)
                        nxt.append(y)
            frontier = nxt
    if any(v is None for v in gamma):
        raise ValueError("groupoid has objects unreachable from their class "
                         "representative; is it valid?")
    return gamma  # type: ignore[return-value]


def skeleton(g: FiniteGroupoid) -> tuple[FiniteGroupoid, GroupoidFunctor]:
    """The full subgroupoid on the class representatives, one object per
    iso class, with the equivalence functor from ``g`` onto it:
    x -> its representative, (f: x -> y) -> gamma_x ; f ; gamma_y^-1."""
    table = iso_classes(g)
    gamma = transport_to_representatives(g, table)
    inclusion = _full_subgroupoid(g, table.representative)
    index = {m: i for i, m in enumerate(inclusion.mor_map)}
    mor_map = tuple(
        index[g.compose(g.compose(gamma[g.src[m]], m),
                        g.inverse[gamma[g.tgt[m]]])]
        for m in range(g.n_morphisms))
    return inclusion.domain, GroupoidFunctor(g, inclusion.domain,
                                             table.class_of, mor_map)


# -- the span calculus --------------------------------------------------------

class Matrix(RationalMatrix):
    """A ``RationalMatrix`` with the arithmetic that the tests state
    identities in."""

    @staticmethod
    def of(m: RationalMatrix) -> "Matrix":
        return Matrix(m.n_rows, m.n_cols, m.data)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, [[Fraction(int(i == j)) for j in range(n)]
                             for i in range(n)])

    def __add__(self, other: RationalMatrix) -> "Matrix":
        assert (self.n_rows, self.n_cols) == (other.n_rows, other.n_cols)
        return Matrix(self.n_rows, self.n_cols,
                      [[a + b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.data, other.data)])

    def scale(self, k) -> "Matrix":
        return Matrix(self.n_rows, self.n_cols,
                      [[a * k for a in row] for row in self.data])

    def __matmul__(self, other: RationalMatrix) -> "Matrix":
        assert self.n_cols == other.n_rows
        return Matrix(self.n_rows, other.n_cols, [
            [sum((row[k] * other.data[k][j] for k in range(self.n_cols)
                  if row[k] != 0), Fraction(0))
             for j in range(other.n_cols)] for row in self.data])

    def transpose(self) -> "Matrix":
        return Matrix(self.n_cols, self.n_rows,
                      [list(col) for col in zip(*self.data)])

    def trace(self):
        assert self.n_rows == self.n_cols
        return sum((self.data[i][i] for i in range(self.n_rows)), Fraction(0))

    @staticmethod
    def kronecker(a: RationalMatrix, b: RationalMatrix) -> "Matrix":
        return Matrix(a.n_rows * b.n_rows, a.n_cols * b.n_cols, [
            [x * y for x in ra for y in rb] for ra in a.data for rb in b.data])


def span_matrix(s: SpanOfGroupoids, alpha: Fraction | int = 0) -> Matrix:
    return Matrix.of(degroupoidify_span(s, alpha))


def identity_span(x: FiniteGroupoid) -> SpanOfGroupoids:
    ident = identity_functor(x)
    return SpanOfGroupoids(x, ident, ident)


def add_spans(s: SpanOfGroupoids, t: SpanOfGroupoids) -> SpanOfGroupoids:
    """The span whose apex is the coproduct of the two apexes, over their
    shared feet: the matrices add."""
    if not same_groupoid(s.source, t.source) or \
            not same_groupoid(s.target, t.target):
        raise ValueError("spans have different endpoints")
    total = coproduct(s.apex, t.apex)[0]
    left = GroupoidFunctor(total, s.target, s.left.obj_map + t.left.obj_map,
                           s.left.mor_map + t.left.mor_map)
    right = GroupoidFunctor(total, s.source,
                            s.right.obj_map + t.right.obj_map,
                            s.right.mor_map + t.right.mor_map)
    return SpanOfGroupoids(total, left, right)


def scalar_mul(lam: FiniteGroupoid, s: SpanOfGroupoids) -> SpanOfGroupoids:
    """The apex times the groupoid ``lam``: the matrix times |lam|."""
    total, _proj_lam, proj_apex = product(lam, s.apex)
    return SpanOfGroupoids(total, proj_apex.then(s.left),
                           proj_apex.then(s.right))


def adjoint(s: SpanOfGroupoids) -> SpanOfGroupoids:
    return SpanOfGroupoids(s.apex, s.right, s.left)


def tensor_spans(s: SpanOfGroupoids, s2: SpanOfGroupoids) -> SpanOfGroupoids:
    apex = product(s.apex, s2.apex)[0]
    left = product_functor(s.left, s2.left, apex,
                           product(s.target, s2.target)[0])
    right = product_functor(s.right, s2.right, apex,
                            product(s.source, s2.source)[0])
    return SpanOfGroupoids(apex, left, right)


def alpha_change_of_basis(g: FiniteGroupoid, exponent: int) -> Matrix:
    """Diagonal matrix with entries |Aut(x)|^exponent over the classes of g."""
    auts = iso_classes(g).aut_order
    return Matrix(len(auts), len(auts),
                  [[Fraction(a) ** exponent if i == j else Fraction(0)
                    for j in range(len(auts))] for i, a in enumerate(auts)])


def vector_span(projection: GroupoidFunctor) -> SpanOfGroupoids:
    """The groupoid Psi over X as a vector on X: the span 1 <- Psi -> X."""
    psi = projection.domain
    to_point = GroupoidFunctor(psi, terminal(), (0,) * psi.n_objects,
                               (0,) * psi.n_morphisms)
    return SpanOfGroupoids(psi, projection, to_point)


def vector_entries(psi: SpanOfGroupoids, alpha: Fraction | int = 0) -> tuple:
    """The vector of a span from the point: its matrix's one column, with
    entry |Aut x|^alpha |full inverse image of x| per class [x]."""
    return tuple(row[0] for row in degroupoidify_span(psi, alpha).data)


def pairing(phi: SpanOfGroupoids, psi: SpanOfGroupoids) -> Rational:
    """<phi, psi>: the cardinality of the weak pullback of two vectors on
    one groupoid, the apex of the composite of psi and phi's adjoint."""
    return cardinality(compose_spans(adjoint(phi), psi).apex)


# -- group actions and equivariant spans ---------------------------------------

class GroupAction:
    """A finite group acting on an indexed finite set, as a full table:
    ``act[g][s]`` is the image of point s under element g.

    The group is a one-object ``FiniteGroupoid`` whose morphisms are its
    elements; since ``compose(g, h)`` reads "g, then h",
    ``act[compose(g, h)][s] == act[h][act[g][s]]``.
    """

    def __init__(self, group: FiniteGroupoid, act: Sequence[Sequence[int]]):
        if group.n_objects != 1:
            raise ValueError(f"a group is a one-object groupoid, not one "
                             f"with {group.n_objects} objects")
        self.group = group
        self.act = tuple(tuple(row) for row in act)
        if len(self.act) != group.n_morphisms:
            raise ValueError(f"{len(self.act)} action rows for a group of "
                             f"order {group.n_morphisms}")
        widths = sorted({len(row) for row in self.act})
        if len(widths) > 1:
            raise ValueError(f"action rows of unequal lengths {widths}")
        self.n_points = widths[0]
        self._orbits: IsoClassTable | None = None

    def validate(self) -> list[str]:
        n = self.n_points
        errors = [f"act({g}, {s})={x} is not a point"
                  for g, row in enumerate(self.act)
                  for s, x in enumerate(row) if not 0 <= x < n]
        if errors:
            return errors[:10]
        if self.act[self.group.identity[0]] != tuple(range(n)):
            errors.append("identity does not act trivially")
        for g, row_g in enumerate(self.act):
            for h, row_h in enumerate(self.act):
                gh = self.group.compose(g, h)
                if tuple(row_h[x] for x in row_g) != self.act[gh]:
                    errors.append(f"act({h}, act({g}, -)) != "
                                  f"act(compose({g}, {h})={gh}, -)")
                    if len(errors) > 10:
                        return errors
        return errors

    def orbits(self) -> IsoClassTable:
        """The iso classes of S//G, cached; see ``orbit_table``."""
        if self._orbits is None:
            self._orbits = orbit_table(self.act)
        return self._orbits

    def restrict(self, points: Sequence[int]) -> "GroupAction":
        """Action on an invariant subset, reindexed to 0..len(points)-1."""
        points = sorted(points)
        pos = {p: i for i, p in enumerate(points)}
        try:
            sub = [[pos[row[p]] for p in points] for row in self.act]
        except KeyError as exc:
            raise ValueError(f"subset is not invariant: it lacks the image "
                             f"{exc.args[0]}") from None
        return GroupAction(self.group, sub)


def orbit_table(rows: Sequence[Sequence[int]]) -> IsoClassTable:
    """The iso classes of S//G from an action table with one row per group
    element: the orbits, ordered by their least point, with the
    stabilizer orders as automorphism orders.

    The table lists every group element, so the orbit of s is exactly the
    column of s and its minimum is the canonical representative.
    Raises AssertionError unless orbit-stabilizer holds, i.e. the sum of
    1/|Stab| over the orbits is n_points / n_rows; a table that is not a
    group action can break it.
    """
    least = [min(column) for column in zip(*rows)]
    sizes = Counter(least)
    reps = sorted(sizes)
    number = {r: i for i, r in enumerate(reps)}
    stabs = tuple(sum(row[r] == r for row in rows) for r in reps)
    table = IsoClassTable(tuple(number[m] for m in least), tuple(reps),
                          stabs, tuple(sizes[r] for r in reps))
    expected = Fraction(len(least), len(rows))
    if table.cardinality != expected:
        raise AssertionError(
            f"orbit-stabilizer bookkeeping broke: {table.cardinality} != "
            f"{expected}")
    return table


def materialize(action: GroupAction) -> FiniteGroupoid:
    """The action groupoid: objects are points, and morphism
    g * n_points + s is (g, s): s -> gs."""
    group = action.group
    n_g = group.n_morphisms
    n_s = action.n_points
    _check_cap("action groupoid morphisms", n_g * n_s)
    src = tuple(range(n_s)) * n_g
    tgt = tuple(x for row in action.act for x in row)
    identity = tuple(group.identity[0] * n_s + s for s in range(n_s))
    inverse = tuple(group.inverse[g] * n_s + x
                    for g, row in enumerate(action.act) for x in row)

    def comp(f: int, k: int) -> int:
        # (g, s): s -> gs, then (h, gs): gs -> (g then h)s
        return group.compose(f // n_s, k // n_s) * n_s + f % n_s

    return FiniteGroupoid(n_s, src, tgt, identity, inverse, comp)


class EquivariantSpan(NamedTuple):
    """Three actions of one group with equivariant maps apex -> left, right."""

    group: FiniteGroupoid
    apex: GroupAction
    left: GroupAction
    right: GroupAction
    left_map: tuple[int, ...]
    right_map: tuple[int, ...]

    def validate(self) -> list[str]:
        errors = []
        for g, row in enumerate(self.apex.act):
            for side, foot, leg in (("left", self.left, self.left_map),
                                    ("right", self.right, self.right_map)):
                if [leg[s] for s in row] != [foot.act[g][x] for x in leg]:
                    errors.append(f"{side} map is not equivariant at "
                                  f"element {g}")
            if len(errors) > 10:
                break
        return errors


def degroupoidify_per_class(classes, alpha: Fraction | int) -> dict:
    """The oracle of the kernel ``spancalc.exact.degroupoidify``: each apex
    class (key, |Aut x|, |Aut y|, |Aut s|, c) adds c times its own
    ``aut_weight`` to the entry at its key, with no join and no bound."""
    out: dict = {}
    for key, x_aut, y_aut, s_aut, c in classes:
        out[key] = out.get(key, Fraction(0)) + \
            c * aut_weight(x_aut, y_aut, s_aut, alpha)
    return out


def degroupoidify_equivariant(span: EquivariantSpan,
                              alpha: Fraction | int = 0) -> RationalMatrix:
    """Matrix of an equivariant span straight from orbits and stabilizers.

    Rows are orbits of the left action, columns orbits of the right action;
    the entry collects |Stab(x)|^(1-alpha) |Stab(y)|^alpha / |Stab(s)| over
    apex orbits s lying over (x, y).  Agrees entry-by-entry with
    degroupoidifying the materialized action groupoids.
    """
    return degroupoidify_classes(span.apex.orbits(), span.left_map,
                                 span.right_map, span.left.orbits(),
                                 span.right.orbits(), alpha)


def materialize_span(span: EquivariantSpan) -> SpanOfGroupoids:
    """Materialize all three action groupoids and the leg functors."""
    apex = materialize(span.apex)
    left = materialize(span.left)
    right = materialize(span.right)
    n_s = span.apex.n_points
    n_l = span.left.n_points
    n_r = span.right.n_points

    left_mor = tuple((m // n_s) * n_l + span.left_map[m % n_s]
                     for m in range(apex.n_morphisms))
    right_mor = tuple((m // n_s) * n_r + span.right_map[m % n_s]
                      for m in range(apex.n_morphisms))
    return SpanOfGroupoids(
        apex,
        GroupoidFunctor(apex, left, tuple(span.left_map), left_mor),
        GroupoidFunctor(apex, right, tuple(span.right_map), right_mor),
    )


# -- the A2 Hecke algebra: flags, relations and SL(3, F_q) ---------------------

def enumerate_flags(q: int) -> list[tuple[tuple[int, int, int],
                                          tuple[int, int, int]]]:
    """All (point, line) incident pairs, canonically ordered."""
    geo = flag_geometry(q)
    return [(geo.points[p], geo.lines[l]) for p, l in geo.flags]


def basis_vector(tensor: HeckeTensor, label: str) -> list[Fraction]:
    """The basis element psi_label of the algebra ``tensor`` describes."""
    out = [Fraction(0)] * len(tensor.labels)
    out[tensor.labels.index(label)] = Fraction(1)
    return out


def hecke_product(tensor: HeckeTensor, x: list[Fraction],
                  y: list[Fraction]) -> list[Fraction]:
    """x * y in the algebra ``tensor`` describes:
    sum over u, v of x_u y_v sum_w c[u][v][w] psi_w."""
    n = len(tensor.labels)
    out = [Fraction(0)] * n
    for u in range(n):
        for v in range(n):
            if x[u] != 0 and y[v] != 0:
                coeff = x[u] * y[v]
                for w in range(n):
                    out[w] += coeff * tensor.tensor[u][v][w]
    return out


def incidence_scan(q: int) -> tuple[list, list[tuple[int, int]]]:
    """The points and flags of the projective plane over F_q by an
    incidence scan: every normalized nonzero vector of F_q^3 is a point
    and a line, in sorted order, and every (point, line) pair with zero
    dot product is a flag, by index."""
    points = sorted({tuple(x * pow(next(filter(None, v)), q - 2, q) % q
                           for x in v)
                     for v in itertools.product(range(q), repeat=3)
                     if any(v)})
    return points, [(pi, li) for pi, p in enumerate(points)
                    for li, c in enumerate(points)
                    if sum(a * b for a, b in zip(p, c)) % q == 0]


def _relation(q: int, same: int) -> np.ndarray:
    """The 0/1 matrix over flags of "same component ``same`` (0 the point,
    1 the line), other flag", from the incidence scan."""
    _points, flags = incidence_scan(q)
    return np.array([[int(f != g and f[same] == g[same]) for g in flags]
                     for f in flags], dtype=np.int64)


def build_P(q: int) -> np.ndarray:
    """Relation "same line, different point" as a 0/1 matrix over flags."""
    return _relation(q, 1)


def build_L(q: int) -> np.ndarray:
    """Relation "same point, different line" as a 0/1 matrix over flags."""
    return _relation(q, 0)


def orbit_matrices(q: int) -> dict[str, np.ndarray]:
    """The six orbit matrices psi_w of the A2 Hecke algebra as products of
    P and L: psi_e = I, psi_P = P, psi_L = L, psi_PL = PL, psi_LP = LP and
    psi_PLP = PLP, each word reduced, so each product is 0/1."""
    P, L = build_P(q), build_L(q)
    return {"e": np.eye(len(P), dtype=np.int64), "P": P, "L": L,
            "PL": P @ L, "LP": L @ P, "PLP": P @ L @ P}


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
    """SL(3, F_q), a one-object groupoid, with its action on the flag set."""

    q: int
    geometry: FlagGeometry
    group: FiniteGroupoid
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

    def compose(a: int, b: int) -> int:
        # "a, then b": matrices act on column vectors from the left
        return index[_matmul3(elements[b], elements[a], q)]

    n = len(elements)
    group = FiniteGroupoid(1, (0,) * n, (0,) * n, (identity,), inverse,
                           compose)

    point_index = {p: i for i, p in enumerate(geo.points)}
    act = []
    for m in elements:
        inv = _adjugate3(m, q)
        pperm = []
        for p in geo.points:
            img = tuple(sum(m[3 * r + c] * p[c] for c in range(3)) % q
                        for r in range(3))
            pperm.append(point_index[echelon((img,), q)[0]])
        lperm = []
        for cvec in geo.lines:
            img = tuple(sum(cvec[r] * inv[3 * r + c] for r in range(3)) % q
                        for c in range(3))
            lperm.append(point_index[echelon((img,), q)[0]])
        act.append([geo.flag_index[(pperm[pi], lperm[li])]
                    for pi, li in geo.flags])
    return HeckeGroup(q, geo, group, elements, GroupAction(group, act))


def bruhat_orbits(hg: HeckeGroup | int
                  ) -> tuple[IsoClassTable, tuple[str, ...]]:
    """G-orbits on flag pairs, the pair (i, j) being point i * n_flags + j,
    with the label of each orbit (one of ORBIT_LABELS)."""
    if isinstance(hg, int):
        hg = build_group(hg)
    geo = hg.geometry
    n = geo.n_flags
    table = orbit_table([[a * n + b for a in row for b in row]
                         for row in hg.action.act])
    labels = tuple(_pair_label(geo, geo.flags[r // n], geo.flags[r % n])
                   for r in table.representative)
    return table, labels


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
    apex_act = [[t_index[(row[a], row[b], row[c])] for a, b, c in triples]
                for row in act]
    pair_pos = {p: i for i, p in enumerate(w_points)}
    right_act = [[pair_pos[row[p // n] * n + row[p % n]] for p in w_points]
                 for row in act]
    left_act = [[0]] * len(act)
    return EquivariantSpan(
        hg.group,
        GroupAction(hg.group, apex_act),
        GroupAction(hg.group, left_act),
        GroupAction(hg.group, right_act),
        tuple(0 for _ in triples),
        tuple(pair_pos[x1 * n + x3] for x1, _x2, x3 in triples),
    )


# -- Hall algebras -----------------------------------------------------------

def enumerate_reps(quiver: Quiver, dimvec: tuple[int, ...], q: int
                   ) -> list[RepClass]:
    """Iso classes of representations with the given dimension vector."""
    return HallAlgebra(quiver, q).classes(dimvec)


def zero_class(h: HallAlgebra) -> RepClass:
    """The class of the zero representation, the unit of the algebra."""
    return h.classes((0,) * h.quiver.n_vertices)[0]


def euler_form(quiver: Quiver, d: Sequence[int], e: Sequence[int]) -> int:
    """<d, e> = d^T (I - A) e, A the adjacency matrix: the sum of d_v e_v
    over the vertices less the sum of d_s e_t over the edges s -> t.
    <d, e> + <e, d> is the symmetric form of C = 2I - (A + A^T)."""
    return (sum(x * y for x, y in zip(d, e))
            - sum(d[s] * e[t] for s, t in quiver.edges))


def positive_roots(quiver: Quiver) -> set[tuple[int, ...]]:
    """The positive roots of a Dynkin quiver, closed up from the simple
    roots e_i by the reflections s_i(x) = x - (x, e_i) e_i, where (x, y) =
    <x, y> + <y, x>.  s_i permutes the positive roots other than e_i, and
    a positive root past height 1 has an i with (x, e_i) > 0, so that s_i
    lowers its height: the closure reaches every positive root."""
    n = quiver.n_vertices
    simple = [tuple(int(v == i) for v in range(n)) for i in range(n)]
    roots = set(simple)
    todo = list(simple)
    while todo:
        x = todo.pop()
        for i, e in enumerate(simple):
            k = euler_form(quiver, x, e) + euler_form(quiver, e, x)
            y = tuple(c - k * (v == i) for v, c in enumerate(x))
            if min(y) >= 0 and y not in roots:
                roots.add(y)
                todo.append(y)
    return roots


def kostant_partitions(roots: set[tuple[int, ...]], d: tuple[int, ...]
                       ) -> int:
    """The number of multisets of the roots that sum to d."""
    ordered = sorted(roots)
    ways: dict[tuple, int] = {}

    def count(i: int, rest: tuple[int, ...]) -> int:
        if not any(rest):
            return 1
        if i == len(ordered):
            return 0
        if (i, rest) not in ways:
            less = tuple(a - b for a, b in zip(rest, ordered[i]))
            ways[i, rest] = count(i + 1, rest) + (
                count(i, less) if min(less) >= 0 else 0)
        return ways[i, rest]

    return count(0, tuple(d))


# -- literal weak pullbacks ---------------------------------------------------

def _groupoid_of_arrows(n_objects: int, arrows: list[tuple[int, int, int]],
                        target: list[int], ident: tuple[tuple[int, int], ...],
                        inv, compose_pair) -> FiniteGroupoid:
    """A groupoid whose morphisms are arrows (o, u, v) out of object o.

    ``ident`` is the (u, v) of an identity, ``inv`` inverts (u, v) and
    ``compose_pair`` composes two (u, v) componentwise.
    """
    index = {a: i for i, a in enumerate(arrows)}
    src = [o for o, _u, _v in arrows]
    identity = [None] * n_objects
    for i, (o, u, v) in enumerate(arrows):
        if (u, v) == ident[o]:
            identity[o] = i
    inverse = [index[(target[i], *inv(u, v))]
               for i, (_o, u, v) in enumerate(arrows)]

    def compose(f: int, g: int) -> int:
        o, u1, v1 = arrows[f]
        _o, u2, v2 = arrows[g]
        return index[(o, *compose_pair(u1, v1, u2, v2))]

    return FiniteGroupoid(n_objects, src, target, identity, inverse, compose)


def weak_pullback_literal(f: GroupoidFunctor, g: GroupoidFunctor
                          ) -> tuple[FiniteGroupoid, GroupoidFunctor,
                                     GroupoidFunctor]:
    """The literal weak pullback of f: T -> B <- S :g, with its projections.

    Objects are triples (t, s, alpha) with alpha: f(t) -> g(s) in B, and
    (u, v): (t, s, alpha) -> (t', s', f(u)^-1 alpha g(v)) for every u out of
    t and v out of s.
    """
    T, S, B = f.domain, g.domain, f.codomain
    out_t = [len(T.mor_from(t)) for t in range(T.n_objects)]
    out_s = [len(S.mor_from(s)) for s in range(S.n_objects)]
    n_obj = n_mor = 0
    for t in range(T.n_objects):
        for s in range(S.n_objects):
            h = len(B.hom(f.obj_map[t], g.obj_map[s]))
            n_obj += h
            n_mor += h * out_t[t] * out_s[s]
    _check_cap("weak pullback objects", n_obj)
    _check_cap("weak pullback morphisms", n_mor)

    objects = [(t, s, alpha) for t in range(T.n_objects)
               for s in range(S.n_objects)
               for alpha in B.hom(f.obj_map[t], g.obj_map[s])]
    obj_index = {x: i for i, x in enumerate(objects)}
    arrows, target = [], []
    for o, (t, s, alpha) in enumerate(objects):
        for u in T.mor_from(t):
            left = B.compose(B.inverse[f.mor_map[u]], alpha)
            for v in S.mor_from(s):
                arrows.append((o, u, v))
                target.append(obj_index[(T.tgt[u], S.tgt[v],
                                         B.compose(left, g.mor_map[v]))])
    P = _groupoid_of_arrows(
        len(objects), arrows, target,
        tuple((T.identity[t], S.identity[s]) for t, s, _a in objects),
        lambda u, v: (T.inverse[u], S.inverse[v]),
        lambda u1, v1, u2, v2: (T.compose(u1, u2), S.compose(v1, v2)))
    proj_t = GroupoidFunctor(P, T, tuple(t for t, _s, _a in objects),
                             tuple(u for _o, u, _v in arrows))
    proj_s = GroupoidFunctor(P, S, tuple(s for _t, s, _a in objects),
                             tuple(v for _o, _u, v in arrows))
    return P, proj_t, proj_s


def compose_literal(t: SpanOfGroupoids, s: SpanOfGroupoids
                    ) -> SpanOfGroupoids:
    """The composite span "s then t" through the literal weak pullback."""
    P, proj_t, proj_s = weak_pullback_literal(t.right, s.left)
    return SpanOfGroupoids(P, proj_t.then(t.left), proj_s.then(s.right))


def trace_literal(s: SpanOfGroupoids) -> tuple[FiniteGroupoid, Rational]:
    """The literal trace groupoid of an endo-span p: A -> B <- A :q, with its
    cardinality: objects (a, alpha) with alpha: p(a) -> q(a), and
    u: (a, alpha) -> (a', p(u)^-1 alpha q(u)) for every u out of a."""
    A, B = s.apex, s.source
    p, q = s.right, s.left
    objects = [(a, alpha) for a in range(A.n_objects)
               for alpha in B.hom(p.obj_map[a], q.obj_map[a])]
    obj_index = {x: i for i, x in enumerate(objects)}
    arrows, target = [], []
    for o, (a, alpha) in enumerate(objects):
        for u in A.mor_from(a):
            arrows.append((o, u, 0))
            target.append(obj_index[(A.tgt[u], B.compose(
                B.compose(B.inverse[p.mor_map[u]], alpha), q.mor_map[u]))])
    tr = _groupoid_of_arrows(
        len(objects), arrows, target,
        tuple((A.identity[a], 0) for a, _alpha in objects),
        lambda u, v: (A.inverse[u], 0),
        lambda u1, v1, u2, v2: (A.compose(u1, u2), 0))
    return tr, cardinality(tr)


# -- the finite-sets groupoid, materialized ------------------------------------

MAX_MATERIALIZED_N = 8


def _then(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation "p then q": i -> q[p[i]]."""
    return tuple(map(q.__getitem__, p))


def _invert(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, pi in enumerate(p):
        inv[pi] = i
    return tuple(inv)


class _PermLevels:
    """Permutations of {0..n-1} for each n <= N, in lexicographic order."""

    def __init__(self, N: int):
        self.N = N
        self.perms: list[list[tuple[int, ...]]] = [
            list(itertools.permutations(range(n))) for n in range(N + 1)
        ]
        self.index: list[dict[tuple[int, ...], int]] = [
            {p: i for i, p in enumerate(level)} for level in self.perms
        ]
        self.offset = [0] * (N + 2)
        for n in range(N + 1):
            self.offset[n + 1] = self.offset[n] + len(self.perms[n])

    def morphism(self, n: int, perm: tuple[int, ...]) -> int:
        return self.offset[n] + self.index[n][perm]

    def comp(self, m1: int, m2: int) -> int:
        """Composite "m1 then m2" within one level, composed directly."""
        n = bisect.bisect_right(self.offset, m1) - 1
        off = self.offset[n]
        perms = self.perms[n]
        return off + self.index[n][_then(perms[m1 - off], perms[m2 - off])]


class TruncatedE(NamedTuple):
    """Finite-sets groupoid truncated at cardinality N (inclusive)."""

    N: int
    groupoid: FiniteGroupoid
    levels: _PermLevels

    @property
    def cardinality(self) -> Rational:
        return cardinality(self.groupoid)


def build_E(N: int) -> TruncatedE:
    """Skeletal groupoid of sets of size <= N and bijections, limited to
    N <= 8 so that sum(n!) stays within the cap."""
    if N > MAX_MATERIALIZED_N:
        raise SizeCapError("truncation N of the materialized finite-sets "
                           "groupoid", N, cap=MAX_MATERIALIZED_N)
    levels = _PermLevels(N)
    src = []
    for n in range(N + 1):
        src.extend([n] * len(levels.perms[n]))
    identity = tuple(levels.morphism(n, tuple(range(n))) for n in range(N + 1))
    inverse = [levels.morphism(n, _invert(p))
               for n in range(N + 1) for p in levels.perms[n]]

    groupoid = FiniteGroupoid(N + 1, tuple(src), tuple(src), identity,
                              tuple(inverse), levels.comp)
    return TruncatedE(N, groupoid, levels)


class StuffType(NamedTuple):
    """A groupoid over the truncated finite-sets groupoid, as a vector."""

    vector: SpanOfGroupoids
    E: TruncatedE


def psi_n(n: int, E: TruncatedE) -> StuffType:
    """The stuff type "being an n-element set": one class with n! automorphisms."""
    if not 0 <= n <= E.N:
        raise ValueError(f"n={n} is not between 0 and the truncation "
                         f"bound {E.N}")
    perms = E.levels.perms[n]
    index = E.levels.index[n]
    e = index[tuple(range(n))]
    inv = tuple(index[_invert(p)] for p in perms)

    def comp(f: int, g: int) -> int:
        return index[_then(perms[f], perms[g])]

    total = FiniteGroupoid(1, (0,) * len(perms), (0,) * len(perms), (e,),
                           inv, comp)
    proj = GroupoidFunctor(
        total, E.groupoid, (n,),
        tuple(E.levels.morphism(n, p) for p in perms))
    return StuffType(vector_span(proj), E)


def two_colored_stuff(E: TruncatedE) -> StuffType:
    """Finite sets with a 2-coloring; generating function has entries 2^n/n!.
    Its 2^n n! morphisms per n <= N are counted against the cap first."""
    _check_cap("two-colored stuff type morphisms",
               sum(2 ** n * math.factorial(n) for n in range(E.N + 1)))
    levels = E.levels
    objects: list[tuple[int, tuple[int, ...]]] = []
    obj_index: dict[tuple[int, tuple[int, ...]], int] = {}
    for n in range(E.N + 1):
        for coloring in itertools.product((0, 1), repeat=n):
            obj_index[(n, coloring)] = len(objects)
            objects.append((n, coloring))

    src: list[int] = []
    tgt: list[int] = []
    proj_mor: list[int] = []
    mor_offset: list[int] = []
    mor_data: list[tuple[int, int]] = []  # (object, perm index at its level)
    for o, (n, coloring) in enumerate(objects):
        mor_offset.append(len(mor_data))
        for a, p in enumerate(levels.perms[n]):
            # p maps the set to itself; the target coloring pulls back along
            # the inverse so that colors are preserved
            target = tuple(coloring[i] for i in _invert(p))
            src.append(o)
            tgt.append(obj_index[(n, target)])
            proj_mor.append(levels.morphism(n, p))
            mor_data.append((o, a))
    mor_offset.append(len(mor_data))

    identity = tuple(mor_offset[o] + levels.index[objects[o][0]][
        tuple(range(objects[o][0]))] for o in range(len(objects)))
    inverse = []
    for o, a in mor_data:
        n, _coloring = objects[o]
        inverse.append(mor_offset[tgt[mor_offset[o] + a]]
                       + levels.index[n][_invert(levels.perms[n][a])])

    def comp(f: int, g: int) -> int:
        o1, a1 = mor_data[f]
        o2, a2 = mor_data[g]
        n = objects[o1][0]
        return mor_offset[o1] + levels.index[n][
            _then(levels.perms[n][a1], levels.perms[n][a2])]

    total = FiniteGroupoid(len(objects), tuple(src), tuple(tgt), identity,
                           tuple(inverse), comp)
    proj = GroupoidFunctor(total, E.groupoid,
                           tuple(n for n, _c in objects), tuple(proj_mor))
    return StuffType(vector_span(proj), E)


def _inclusion_functor(inner: TruncatedE, outer: TruncatedE) -> GroupoidFunctor:
    mor = []
    for n in range(inner.N + 1):
        for p in inner.levels.perms[n]:
            mor.append(outer.levels.morphism(n, p))
    return GroupoidFunctor(inner.groupoid, outer.groupoid,
                           tuple(range(inner.N + 1)), tuple(mor))


def _shift_functor(inner: TruncatedE, outer: TruncatedE) -> GroupoidFunctor:
    """Adds one fresh element: n -> n+1, permutations extended to fix it."""
    mor = []
    for n in range(inner.N + 1):
        for p in inner.levels.perms[n]:
            mor.append(outer.levels.morphism(n + 1, p + (n,)))
    return GroupoidFunctor(inner.groupoid, outer.groupoid,
                           tuple(range(1, inner.N + 2)), tuple(mor))


def annihilation_span(E: TruncatedE) -> SpanOfGroupoids:
    """Left leg the inclusion, right leg "add one element"; matrix d/dz."""
    inner = build_E(E.N - 1)
    return SpanOfGroupoids(inner.groupoid,
                           _inclusion_functor(inner, E),
                           _shift_functor(inner, E))


def creation_span(E: TruncatedE) -> SpanOfGroupoids:
    """The adjoint of annihilation; matrix is multiplication by z."""
    return adjoint(annihilation_span(E))
