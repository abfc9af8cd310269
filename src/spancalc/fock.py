"""The truncated groupoid of finite sets, stuff types, and oscillator spans.

``E`` is materialized skeletally: one object per cardinality n with the
permutations of {0..n-1} as automorphisms.  Stuff types are groupoids over
E; their degroupoidified vectors are exponential generating functions with
exact rational coefficients.  The annihilation span has the identity
inclusion as left leg and "disjoint union with one fresh element" as right
leg; creation is its adjoint.  Truncation effects are confined to the last
row and column and are reported, never silently dropped.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .exact import SizeCapError, _check_cap
from .groupoid import FiniteGroupoid, GroupoidFunctor, Rational
from .spans import (
    GroupoidOverX,
    SpanOfGroupoids,
    add_spans,
    adjoint,
    compose_spans,
    degroupoidify_span,
    degroupoidify_vector,
    identity_span,
    scalar_mul,
)

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
        return e_partial_sum(self.N)


def e_partial_sum(N: int) -> Rational:
    """Sum of 1/n! for n <= N, the cardinality of E truncated at N; needs
    no groupoid, so N may be any size."""
    return sum((Fraction(1, math.factorial(n)) for n in range(N + 1)),
               Fraction(0))


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
    """A groupoid over the truncated finite-sets groupoid."""

    over: GroupoidOverX
    E: TruncatedE


class PowerSeriesVector(NamedTuple):
    """Coefficients c_0 .. c_N of a truncated power series, exact."""

    coefficients: tuple[Fraction, ...]

    def __str__(self) -> str:
        parts = []
        for n, c in enumerate(self.coefficients):
            z = "" if n == 0 else (" z" if n == 1 else f" z^{n}")
            parts.append(f"{c.numerator}/{c.denominator}{z}")
        return " + ".join(parts)


def generating_function(stuff: StuffType, alpha: Fraction | int = 0
                        ) -> PowerSeriesVector:
    vec = degroupoidify_vector(stuff.over, alpha)
    return PowerSeriesVector(tuple(vec.entries))


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
    return StuffType(GroupoidOverX(total, proj), E)


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
    return StuffType(GroupoidOverX(total, proj), E)


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


class CcrReport(NamedTuple):
    ok: bool
    block: int
    discrepancies: tuple[tuple[int, int, Fraction], ...]

    def __str__(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        lines = [f"{status}: AA* - A*A = 1 on block {{0..{self.block - 1}}}^2"]
        for i, j, v in self.discrepancies:
            lines.append(f"  truncation boundary ({i},{j}): "
                         f"AA* - A*A - 1 = {v}")
        return "\n".join(lines)


def verify_ccr(E: TruncatedE) -> CcrReport:
    """Check matrix(AA*) - matrix(A*A) = identity away from the truncation.

    Both composites are built as spans (weak pullback) and degroupoidified;
    discrepancies can only sit in row/column N and are listed explicitly.
    """
    if E.N < 2:
        raise ValueError("need N >= 2 to see the commutation relation")
    A = annihilation_span(E)
    Astar = adjoint(A)
    m_aas = degroupoidify_span(compose_spans(A, Astar), 0)
    m_asa = degroupoidify_span(compose_spans(Astar, A), 0)
    diff = m_aas - m_asa
    ok = True
    discrepancies = []
    for i in range(E.N + 1):
        for j in range(E.N + 1):
            expected = Fraction(1) if i == j else Fraction(0)
            if diff.data[i][j] != expected:
                if i < E.N and j < E.N:
                    ok = False
                discrepancies.append((i, j, diff.data[i][j] - expected))
    return CcrReport(ok, E.N, tuple(discrepancies))


def _span_power(s: SpanOfGroupoids, k: int, base: FiniteGroupoid
                ) -> SpanOfGroupoids:
    if k == 0:
        return identity_span(base)
    out = s
    for _ in range(k - 1):
        out = compose_spans(s, out)
    return out


def normal_ordered_terms(n: int) -> list[tuple[int, int, int]]:
    """:(A + A*)^n: = sum_j C(n, j) A*^j A^(n-j), as (coefficient, j, n-j)."""
    return [(math.comb(n, j), j, n - j) for j in range(n + 1)]


def normal_ordered_power(n: int, E: TruncatedE) -> SpanOfGroupoids:
    """The normal-ordered n-th power of the field span A + A*.

    Built from the expansion with all creation factors moved left, using
    span composition, coproduct for sums, and a discrete groupoid as the
    integer coefficient.
    """
    if n < 0:
        raise ValueError(f"normal-ordered power {n} is negative")
    A = annihilation_span(E)
    Astar = adjoint(A)
    base = E.groupoid
    total: SpanOfGroupoids | None = None
    for coeff, j, k in normal_ordered_terms(n):
        if j and k:
            term = compose_spans(_span_power(Astar, j, base),
                                 _span_power(A, k, base))
        elif j:
            term = _span_power(Astar, j, base)
        else:
            term = _span_power(A, k, base)
        if coeff != 1:
            term = scalar_mul(FiniteGroupoid.discrete(coeff), term)
        total = term if total is None else add_spans(total, term)
    return total


def field_span(E: TruncatedE) -> SpanOfGroupoids:
    """The field span A + A*; its matrix is tridiagonal."""
    A = annihilation_span(E)
    return add_spans(A, adjoint(A))
