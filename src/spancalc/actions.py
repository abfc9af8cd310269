"""Finite group actions and implicit action groupoids.

A group action S//G never needs to be materialized to be degroupoidified:
its isomorphism classes are the orbits and the automorphism counts are the
stabilizer orders.  The materialized path (a genuine action groupoid run
through the generic span machinery) exists as a cross-check oracle.

Convention: ``mul(g, h)`` is the function composite "apply h, then g", so
``act(g, act(h, s)) == act(mul(g, h), s)``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .exact import _check_cap
from .groupoid import FiniteGroupoid, GroupoidFunctor, IsoClassTable
from .spans import RationalMatrix, SpanOfGroupoids, degroupoidify_classes


class FiniteGroup:
    """A finite group given by a full element table.

    The multiplication map may be backed by an explicit table or by a
    callable (used for matrix groups whose full table would be large);
    either way every element is materialized and indexed.
    """

    def __init__(self, order: int, mul: Sequence[Sequence[int]] | Callable[[int, int], int],
                 identity: int, inverse: Sequence[int]):
        self.order = order
        if callable(mul):
            self._mul_table = None
            self._mul_fn = mul
        else:
            self._mul_table = [tuple(row) for row in mul]
            self._mul_fn = None
        self.identity = identity
        self.inverse = tuple(inverse)

    def mul(self, g: int, h: int) -> int:
        """Product g*h, meaning "h first, then g"."""
        if self._mul_table is not None:
            return self._mul_table[g][h]
        return self._mul_fn(g, h)

    def validate(self) -> list[str]:
        """Exhaustive group-axiom check; meant for small orders."""
        n = self.order
        errors = []
        for a in range(n):
            if self.mul(self.identity, a) != a or self.mul(a, self.identity) != a:
                errors.append(f"identity fails at {a}")
            if self.mul(a, self.inverse[a]) != self.identity or \
                    self.mul(self.inverse[a], a) != self.identity:
                errors.append(f"inverse fails at {a}")
        for a in range(n):
            for b in range(n):
                ab = self.mul(a, b)
                if not (0 <= ab < n):
                    errors.append(f"product ({a},{b}) out of range")
                    continue
                for c in range(n):
                    if self.mul(ab, c) != self.mul(a, self.mul(b, c)):
                        errors.append(f"associativity fails at ({a},{b},{c})")
                        if len(errors) > 20:
                            return errors
        return errors

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"

    # -- constructors --------------------------------------------------

    @staticmethod
    def trivial() -> "FiniteGroup":
        return FiniteGroup(1, [[0]], 0, [0])

    @staticmethod
    def cyclic(n: int) -> "FiniteGroup":
        mul = [[(a + b) % n for b in range(n)] for a in range(n)]
        return FiniteGroup(n, mul, 0, [(n - a) % n for a in range(n)])

    @staticmethod
    def symmetric(n: int) -> "FiniteGroup":
        perms = list(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        mul = [[index[tuple(a[b[i]] for i in range(n))] for b in perms]
               for a in perms]
        e = index[tuple(range(n))]
        inv = [index[tuple(sorted(range(n), key=lambda i: p[i]))]
               for p in perms]
        return FiniteGroup(len(perms), mul, e, inv)


class GroupAction:
    """A finite group acting on an indexed finite set, as a full table."""

    def __init__(self, group: FiniteGroup, act: Sequence[Sequence[int]] | np.ndarray):
        self.group = group
        self.act = np.asarray(act, dtype=np.int64).reshape(group.order, -1)
        self.n_points = int(self.act.shape[1])
        self._orbits: IsoClassTable | None = None

    def __call__(self, g: int, s: int) -> int:
        return int(self.act[g, s])

    def validate(self) -> list[str]:
        errors = []
        e = self.group.identity
        if not np.array_equal(self.act[e], np.arange(self.n_points)):
            errors.append("identity does not act trivially")
        for g in range(self.group.order):
            for h in range(self.group.order):
                gh = self.group.mul(g, h)
                if not np.array_equal(self.act[g][self.act[h]], self.act[gh]):
                    errors.append(f"act({g}, act({h}, -)) != act({g}{h}, -)")
                    if len(errors) > 10:
                        return errors
        return errors

    def stabilizer_order(self, point: int) -> int:
        """Direct scan over all group elements."""
        return int(np.count_nonzero(self.act[:, point] == point))

    def orbits(self) -> IsoClassTable:
        """The iso classes of S//G, cached; see ``orbit_table``."""
        if self._orbits is None:
            self._orbits = orbit_table(self.act)
        return self._orbits

    def restrict(self, points: Sequence[int]) -> "GroupAction":
        """Action on an invariant subset, reindexed to 0..len(points)-1."""
        points = sorted(points)
        pos = {p: i for i, p in enumerate(points)}
        sub = np.empty((self.group.order, len(points)), dtype=np.int64)
        for i, p in enumerate(points):
            col = self.act[:, p]
            for g in range(self.group.order):
                q = int(col[g])
                if q not in pos:
                    raise ValueError(f"subset is not invariant: {p} -> {q}")
                sub[g, i] = pos[q]
        return GroupAction(self.group, sub)


def orbit_table(act: np.ndarray) -> IsoClassTable:
    """The iso classes of S//G from an action table with one row per group
    element: the orbits, ordered by their least point, with the
    stabilizer orders as automorphism orders.

    The table lists every group element, so the orbit of s is exactly the
    column ``act[:, s]`` and its minimum is the canonical representative.
    Raises AssertionError unless orbit-stabilizer holds, i.e. the sum of
    1/|Stab| over the orbits is n_points / n_rows; a table that is not a
    group action can break it.
    """
    n_rows, n_points = act.shape
    reps, class_of, sizes = np.unique(act.min(axis=0), return_inverse=True,
                                      return_counts=True)
    stabs = np.count_nonzero(act[:, reps] == reps, axis=0)
    table = IsoClassTable(tuple(class_of.tolist()), tuple(reps.tolist()),
                          tuple(stabs.tolist()), tuple(sizes.tolist()))
    expected = Fraction(n_points, n_rows)
    if table.cardinality != expected:
        raise AssertionError(
            f"orbit-stabilizer bookkeeping broke: {table.cardinality} != "
            f"{expected}")
    return table


def weak_quotient(action: GroupAction) -> IsoClassTable:
    """Iso-class table of S//G (orbits, stabilizer orders); its cardinality
    is |S|/|G| exactly."""
    return action.orbits()


def materialize(action: GroupAction) -> FiniteGroupoid:
    """The action groupoid: objects are points, morphisms are (g, s): s -> gs."""
    n_g = action.group.order
    n_s = action.n_points
    _check_cap("action groupoid morphisms", n_g * n_s)
    group = action.group
    act = action.act

    src = tuple(int(m % n_s) for m in range(n_g * n_s))
    tgt = tuple(int(act[m // n_s, m % n_s]) for m in range(n_g * n_s))
    identity = tuple(group.identity * n_s + s for s in range(n_s))
    inverse = tuple(group.inverse[m // n_s] * n_s + int(act[m // n_s, m % n_s])
                    for m in range(n_g * n_s))

    def comp(f: int, k: int) -> int:
        # (g, s): s -> gs, then (h, gs): gs -> (hg)s
        return group.mul(k // n_s, f // n_s) * n_s + f % n_s

    return FiniteGroupoid(n_s, src, tgt, identity, inverse, comp)


class EquivariantSpan(NamedTuple):
    """Three actions of one group with equivariant maps apex -> left, right."""

    group: FiniteGroup
    apex: GroupAction
    left: GroupAction
    right: GroupAction
    left_map: tuple[int, ...]
    right_map: tuple[int, ...]

    def validate(self) -> list[str]:
        errors = []
        lm = np.asarray(self.left_map)
        rm = np.asarray(self.right_map)
        for g in range(self.group.order):
            if not np.array_equal(lm[self.apex.act[g]], self.left.act[g][lm]):
                errors.append(f"left map is not equivariant at element {g}")
            if not np.array_equal(rm[self.apex.act[g]], self.right.act[g][rm]):
                errors.append(f"right map is not equivariant at element {g}")
            if errors and len(errors) > 10:
                break
        return errors


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
