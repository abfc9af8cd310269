"""Finite group actions and implicit action groupoids.

A group is a one-object ``FiniteGroupoid`` whose morphisms are its elements
(BHW §2), built with ``FiniteGroupoid.from_group_table`` or, for a group too
large to tabulate, with a callable composite.  An action is a table with one
row of point images per element; since ``compose(g, h)`` reads "g, then h",
``act[compose(g, h)][s] == act[h][act[g][s]]``.

A group action S//G never needs to be materialized to be degroupoidified:
its isomorphism classes are the orbits and the automorphism counts are the
stabilizer orders.  The materialized path (a genuine action groupoid run
through the generic span machinery) exists as a cross-check oracle.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import NamedTuple, Sequence

from .exact import _check_cap
from .groupoid import FiniteGroupoid, GroupoidFunctor, IsoClassTable
from .spans import RationalMatrix, SpanOfGroupoids, degroupoidify_classes


class GroupAction:
    """A finite group acting on an indexed finite set, as a full table:
    ``act[g][s]`` is the image of point s under element g."""

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

    def stabilizer_order(self, point: int) -> int:
        """Direct scan over all group elements."""
        return sum(row[point] == point for row in self.act)

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


def weak_quotient(action: GroupAction) -> IsoClassTable:
    """Iso-class table of S//G (orbits, stabilizer orders); its cardinality
    is |S|/|G| exactly."""
    return action.orbits()


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
