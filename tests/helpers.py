"""Shared generators for randomized property tests (seeded, deterministic)."""

from __future__ import annotations

import itertools
import random

from spancalc.actions import EquivariantSpan, FiniteGroup, GroupAction, materialize_span
from spancalc.groupoid import (
    FiniteGroupoid,
    GroupoidFunctor,
    cyclic_table,
    product,
    symmetric_table,
    table_product,
)
from spancalc.hall import all_matrices, mat_mul, mat_rank
from spancalc.spans import SpanOfGroupoids

# small groups with automorphism orders up to 24
GROUP_TABLES = [
    cyclic_table(1),
    cyclic_table(2),
    cyclic_table(3),
    cyclic_table(4),
    cyclic_table(6),
    table_product(cyclic_table(2), cyclic_table(2)),
    symmetric_table(3),
    symmetric_table(4),
]


def random_groupoid(rng: random.Random, max_objects: int = 8) -> FiniteGroupoid:
    """Disjoint union of connected groupoids with catalog automorphism groups."""
    from spancalc.groupoid import coproduct

    remaining = rng.randint(1, max_objects)
    total: FiniteGroupoid | None = None
    while remaining > 0:
        size = rng.randint(1, remaining)
        table = rng.choice(GROUP_TABLES)
        piece = FiniteGroupoid.connected(size, table)
        total = piece if total is None else coproduct(total, piece)[0]
        remaining -= size
    return total


def random_cyclic_action(rng: random.Random, k: int, n_points: int
                         ) -> GroupAction:
    """Z/k acting on n_points via a permutation of order dividing k."""
    group = FiniteGroup.cyclic(k)
    divisors = [d for d in range(1, k + 1) if k % d == 0]
    points = list(range(n_points))
    rng.shuffle(points)
    sigma = list(range(n_points))
    while points:
        length = rng.choice([d for d in divisors if d <= len(points)])
        cycle = [points.pop() for _ in range(length)]
        for i, p in enumerate(cycle):
            sigma[p] = cycle[(i + 1) % length]
    act = []
    row = list(range(n_points))
    for _ in range(k):
        act.append(list(row))
        row = [sigma[x] for x in row]
    return GroupAction(group, act)


def random_equivariant_span(rng: random.Random, k: int,
                            left: GroupAction, right: GroupAction
                            ) -> EquivariantSpan:
    """Apex: a random invariant set of (left, right) point pairs."""
    nl, nr = left.n_points, right.n_points
    pair_act = [
        [int(left.act[g, p // nr]) * nr + int(right.act[g, p % nr])
         for p in range(nl * nr)]
        for g in range(k)
    ]
    pair_action = GroupAction(left.group, pair_act)
    orbit_table = pair_action.orbits()
    chosen = [o for o in range(orbit_table.n_classes) if rng.random() < 0.6]
    points = [p for p in range(nl * nr)
              if orbit_table.class_of[p] in chosen]
    if not points:
        points = [0]
        points = sorted(set(
            int(pair_action.act[g, 0]) for g in range(k)))
    apex = pair_action.restrict(points)
    return EquivariantSpan(
        left.group, apex, left, right,
        tuple(p // nr for p in sorted(points)),
        tuple(p % nr for p in sorted(points)),
    )


def random_span(rng: random.Random, k: int, left: GroupAction,
                right: GroupAction) -> SpanOfGroupoids:
    return materialize_span(random_equivariant_span(rng, k, left, right))


def diagonal_functor(g: FiniteGroupoid) -> GroupoidFunctor:
    """The diagonal g -> g x g (product numbers pairs as i * size + j)."""
    total, _p1, _p2 = product(g, g)
    return GroupoidFunctor(
        g, total,
        tuple(x * g.n_objects + x for x in range(g.n_objects)),
        tuple(m * g.n_morphisms + m for m in range(g.n_morphisms)))


def all_element_orbits(B: FiniteGroupoid, isos: list[int],
                       pairs: list[tuple[int, int]]) -> list[list[int]]:
    """Orbits of alpha -> l;alpha;r with (l, r) running over every element
    of the acting group, each sorted, in order of least element.

    The brute-force oracle for the generator-based orbit scan.
    """
    orbits: list[list[int]] = []
    seen: set[int] = set()
    for alpha in isos:
        if alpha not in seen:
            orbit = sorted({B.compose(B.compose(l, alpha), r)
                            for l, r in pairs})
            seen.update(orbit)
            orbits.append(orbit)
    return orbits


def associative(g: FiniteGroupoid) -> bool:
    """Whether (f;h);k = f;(h;k) on every composable triple.

    The brute-force oracle for Light's test in ``validate_groupoid``.
    """
    return all(g.compose(g.compose(f, h), k) == g.compose(f, g.compose(h, k))
               for f in range(g.n_morphisms) for h in g.mor_from(g.tgt[f])
               for k in g.mor_from(g.tgt[h]))


def gl_matrices(n: int, q: int) -> list:
    """Every invertible n x n matrix over F_q, by rank over all matrices."""
    return [m for m in all_matrices(n, n, q) if mat_rank(m, q) == n]


def brute_force_homs(quiver, src, dst, q: int) -> set:
    """Every tuple of per-vertex matrices src -> dst that commutes with the
    edge maps, found by testing all q^(sum d_src d_dst) candidates.

    The oracle for the nullspace enumeration in ``HallAlgebra.hom_tuples``.
    """
    per_vertex = [list(all_matrices(dst.dims[v], src.dims[v], q))
                  for v in range(quiver.n_vertices)]
    return {combo for combo in itertools.product(*per_vertex)
            if all(mat_mul(dst.mats[ei], combo[a], q, cols=src.dims[a])
                   == mat_mul(combo[b], src.mats[ei], q, cols=src.dims[a])
                   for ei, (a, b) in enumerate(quiver.edges))}
