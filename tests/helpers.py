"""Shared generators for randomized property tests (seeded, deterministic)."""

from __future__ import annotations

import functools
import itertools
import json
import random
from fractions import Fraction

import numpy as np

from spancalc.groupoid import FiniteGroupoid, GroupoidFunctor
from spancalc.exact import aut_weight, greedy_generators
from spancalc.fq import all_matrices, echelon, mat_mul
from spancalc.hecke import ORBIT_LABELS, HeckeTensor
from spancalc.spans import SpanOfGroupoids, span_to_json

from oracles import (EquivariantSpan, GroupAction, bruhat_orbits, connected,
                     coproduct, cyclic_table, from_group_table,
                     materialize_span, orbit_table, product, symmetric_table,
                     table_product)

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
    remaining = rng.randint(1, max_objects)
    total: FiniteGroupoid | None = None
    while remaining > 0:
        size = rng.randint(1, remaining)
        table = rng.choice(GROUP_TABLES)
        piece = connected(size, table)
        total = piece if total is None else coproduct(total, piece)[0]
        remaining -= size
    return total


def random_cyclic_action(rng: random.Random, k: int, n_points: int
                         ) -> GroupAction:
    """Z/k acting on n_points via a permutation of order dividing k."""
    group = from_group_table(cyclic_table(k))
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
        [left.act[g][p // nr] * nr + right.act[g][p % nr]
         for p in range(nl * nr)]
        for g in range(k)
    ]
    pair_action = GroupAction(left.group, pair_act)
    orbit_table = pair_action.orbits()
    chosen = [o for o in range(orbit_table.n_classes) if rng.random() < 0.6]
    points = [p for p in range(nl * nr)
              if orbit_table.class_of[p] in chosen]
    if not points:
        points = sorted({row[0] for row in pair_action.act})
    apex = pair_action.restrict(points)
    return EquivariantSpan(
        left.group, apex, left, right,
        tuple(p // nr for p in sorted(points)),
        tuple(p % nr for p in sorted(points)),
    )


def random_span(rng: random.Random, k: int, left: GroupAction,
                right: GroupAction) -> SpanOfGroupoids:
    return materialize_span(random_equivariant_span(rng, k, left, right))


def random_composable_spans(rng: random.Random, k: int = 4, points: int = 8
                            ) -> tuple[SpanOfGroupoids, SpanOfGroupoids]:
    """(t, s): random Z/k-action spans X -> Y (s) and Y -> Z (t), so that
    ``compose_spans(t, s)`` is defined."""
    x, y, z = (random_cyclic_action(rng, k, points) for _ in range(3))
    s = random_span(rng, k, y, x)
    t = random_span(rng, k, z, y)
    return t, s


def span_pair_json(seed: int) -> tuple[str, str]:
    """The ``compose`` inputs (first, second) of ``seed`` as JSON text: the
    span files that ``tests/golden`` keeps."""
    t, s = random_composable_spans(random.Random(seed))
    return json.dumps(span_to_json(t)), json.dumps(span_to_json(s))


def z5_and_its_relabelling() -> tuple[FiniteGroupoid, FiniteGroupoid]:
    """Z/5, and Z/5 with its elements relabelled by the swaps 1 <-> 2 and
    3 <-> 4: the same identity and inverses, other composites."""
    swap = [0, 2, 1, 4, 3]
    plain = cyclic_table(5)
    relabelled = [[swap[plain[swap[a]][swap[b]]] for b in range(5)]
                  for a in range(5)]
    return from_group_table(plain), from_group_table(relabelled)


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


def identity(n: int) -> tuple:
    return tuple(tuple(int(r == c) for c in range(n)) for r in range(n))


def mat_rank(m, q: int) -> int:
    return len(echelon(m, q))


def vertexwise_product(dims: tuple[int, ...], q: int):
    """The product of tuples of matrices, one per vertex of the given
    dimensions, vertex by vertex."""
    def times(a, b):
        return tuple(mat_mul(x, y, q, cols=d) for x, y, d in zip(a, b, dims))
    return times


def generated_group(gens, dims: tuple[int, ...], q: int) -> set:
    """The group that tuples of invertible matrices generate."""
    return greedy_generators(gens, tuple(map(identity, dims)),
                             vertexwise_product(dims, q))[1]


def gl_matrices(n: int, q: int) -> list:
    """Every invertible n x n matrix over F_q, by rank over all matrices."""
    return [m for m in all_matrices(n, n, q) if mat_rank(m, q) == n]


@functools.cache
def brute_force_homs(quiver, src, dst, q: int) -> frozenset:
    """Every tuple of per-vertex matrices src -> dst that commutes with the
    edge maps, found by testing all q^(sum d_src d_dst) candidates.

    The oracle for dim Hom, the kernel of ``HallAlgebra._coboundary``.
    """
    per_vertex = [list(all_matrices(dst.dims[v], src.dims[v], q))
                  for v in range(quiver.n_vertices)]
    return frozenset(
        combo for combo in itertools.product(*per_vertex)
        if all(mat_mul(dst.mats[ei], combo[a], q, cols=src.dims[a])
               == mat_mul(combo[b], src.mats[ei], q, cols=src.dims[a])
               for ei, (a, b) in enumerate(quiver.edges)))


def brute_force_maps(h, src, dst, dims) -> list:
    """The maps src -> dst of ``brute_force_homs`` whose matrix at each
    vertex has rank ``dims[v]``: the injective ones with dims = dim src,
    the surjective ones with dims = dim dst."""
    return sorted(f for f in brute_force_homs(h.quiver, src.rep, dst.rep, h.q)
                  if all(mat_rank(m, h.q) == d for m, d in zip(f, dims)))


def brute_force_ses_count(h, M, N, E) -> int:
    """|{(f, g) : 0 -> N -f-> E -g-> M -> 0 exact}| by testing g f = 0 on
    every pair of an injective f and a surjective g, in numpy batches.

    The all-pairs oracle for Riedtmann's formula in
    ``HallAlgebra.product``, whose coefficient times |Aut M| |Aut N| it is.
    """
    if tuple(a + b for a, b in zip(M.dimvec, N.dimvec)) != E.dimvec:
        return 0
    fs = brute_force_maps(h, N, E, N.dimvec)
    gs = brute_force_maps(h, E, M, M.dimvec)
    exact = np.ones((len(fs), len(gs)), dtype=bool)
    for v, (dm, dn, de) in enumerate(zip(M.dimvec, N.dimvec, E.dimvec)):
        F = np.array([f[v] for f in fs], dtype=np.int64).reshape(len(fs), de, dn)
        G = np.array([g[v] for g in gs], dtype=np.int64).reshape(len(gs), dm, de)
        gf = np.einsum("gij,fjk->fgik", G, F) % h.q
        exact &= ~gf.reshape(len(fs), len(gs), dm * dn).any(axis=2)
    return int(exact.sum())


def ses_pairs(h, M, N, E) -> list:
    """All (f, g) with f: N -> E injective, g: E -> M surjective and g f =
    0 at every vertex, which is im f = ker g when dim E = dim M + dim N."""
    if tuple(a + b for a, b in zip(M.dimvec, N.dimvec)) != E.dimvec:
        return []
    q = h.q
    return [(f, g) for f in brute_force_maps(h, N, E, N.dimvec)
            for g in brute_force_maps(h, E, M, M.dimvec)
            if not any(any(map(any, mat_mul(gv, fv, q, cols=dn)))
                       for gv, fv, dn in zip(g, f, N.dimvec))]


def automorphisms(h, c) -> list:
    """Aut of the representative of class c, by brute force."""
    return brute_force_maps(h, c, c, c.dimvec)


def group_route_constants(hg, alpha: int = 0):
    """The Hecke tensor from the group itself: the triple orbits over each
    pair orbit w, enumerated as orbits of the pair stabilizer H_w acting on
    the middle flag, each weighted by its stabilizer.

    The stabilizer oracle for the group-free ``hecke_structure_constants``.
    """
    n = hg.geometry.n_flags
    act = hg.action.act
    orbits, labels = bruhat_orbits(hg)
    k = orbits.n_classes
    tensor = [[[Fraction(0) for _w in range(k)] for _v in range(k)]
              for _u in range(k)]
    orbit_of = orbits.class_of
    stab = orbits.aut_order
    for w in range(k):
        x1, x3 = divmod(orbits.representative[w], n)
        # H_w, the stabilizer of the pair, acting on the middle flag
        middle = orbit_table([row for row in act
                              if row[x1] == x1 and row[x3] == x3])
        for rep, stab_triple in zip(middle.representative, middle.aut_order):
            u = orbit_of[x1 * n + rep]
            v = orbit_of[rep * n + x3]
            # x foot: the pair13 orbit; y foot: the (pair12, pair23) orbits
            tensor[u][v][w] += aut_weight(stab[w], stab[u] * stab[v],
                                          stab_triple, alpha)
    perm = [labels.index(lbl) for lbl in ORBIT_LABELS]
    return HeckeTensor(hg.q, ORBIT_LABELS, tuple(
        tuple(tuple(tensor[pu][pv][pw] for pw in perm) for pv in perm)
        for pu in perm))


# reduced words of S_3 in the simple transpositions, named as the Hecke
# orbits are: the letters P and L stand for s_1 = (0 1) and s_2 = (1 2)
S3_WORDS = {"e": "", "P": "P", "L": "L", "PL": "PL", "LP": "LP",
            "PLP": "PLP"}


def iwahori_hecke_s3(q: int) -> tuple:
    """c[u][v][w] with T_u T_v = sum_w c[u][v][w] T_w in the Iwahori-Hecke
    algebra of S_3, from permutations alone: T_s T_w = T_sw when
    l(sw) > l(w), else (q - 1) T_w + q T_sw.  Indexed in S3_WORDS order."""
    simple = {"P": (1, 0, 2), "L": (0, 2, 1)}

    def times(a, b):            # the permutation "b, then a"
        return tuple(a[i] for i in b)

    def length(p):
        return sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3))

    def element(word):
        out = (0, 1, 2)
        for letter in word:
            out = times(out, simple[letter])
        return out

    names = list(S3_WORDS)
    index = {element(S3_WORDS[name]): i for i, name in enumerate(names)}
    assert len(index) == 6
    tensor = []
    for u in names:
        plane = []
        for v in names:
            vec = {element(S3_WORDS[v]): Fraction(1)}
            for letter in reversed(S3_WORDS[u]):    # T_u = T_s1 ... T_sk
                s = simple[letter]
                nxt: dict = {}
                for w, c in vec.items():
                    sw = times(s, w)
                    if length(sw) > length(w):
                        nxt[sw] = nxt.get(sw, 0) + c
                    else:
                        nxt[w] = nxt.get(w, 0) + (q - 1) * c
                        nxt[sw] = nxt.get(sw, 0) + q * c
                vec = nxt
            row = [Fraction(0)] * 6
            for w, c in vec.items():
                row[index[w]] = Fraction(c)
            plane.append(tuple(row))
        tensor.append(tuple(plane))
    return tuple(tensor)
