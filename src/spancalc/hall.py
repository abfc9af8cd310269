"""Hall algebras of simply-laced quivers over a prime field.

Representations assign an F_q vector space to each vertex and a matrix to
each edge; isomorphism classes are orbits of the base-change group
prod_v GL(d_v, F_q), grown from its generators.  Morphisms come from
linear algebra in plain Python (``spancalc.fq``, no numpy): Hom(V, W) is
the nullspace of the commuting equations D X_a = X_b S over the edges
a -> b, solved once per pair.  Its basis splits into vertex-support
components, whose matrices vary independently, so the maps are the
product of the components' maps; each component is enumerated once per
algebra, and the injective, surjective and invertible maps are picked out
by a rank memoised per matrix.  Between classes of one dimension vector
the injective maps and the surjective ones are the isomorphisms: they are
listed once per ordered pair of classes, and that one list serves as
Aut(E) and as the maps of both directions of the Hall number.  The Hall
number stays a pair count: it counts the pairs (f, g) forming a short
exact sequence 0 -> N -> E -> M -> 0, and the product

    [M] . [N] = sum_E  hall_number(M, N, E) / (|Aut M| |Aut N|)  [E]

is computed in exact rationals.  With f injective, g surjective and
dim E = dim M + dim N, the sequence is exact exactly when im f = ker g at
every vertex, so the count is a join: the injective maps N -> E grouped
by image and the surjective maps E -> M grouped by kernel, both as
reduced echelon bases, give sum_U |{f : im f = U}| |{g : ker g = U}|.

A second, span-based route goes through the groupoid of short exact
sequences: the full inverse image over ((M, N), E) is equivalent to the
groupoid of subrepresentations W of E with W isomorphic to N and E/W
isomorphic to M, acted on by Aut(E).  Subspaces are reduced row echelon
bases, the orbits are grown from a generating set of Aut(E), and the
cardinality, the sum over orbits of 1 / |stabilizer| with |stabilizer| =
|Aut E| / |orbit|, times |Aut E| recovers the same coefficient with no
pair counting involved.  Aut(E) is the product of the unit groups of the
components of End(E); each unit group gets a greedy generating set, and
its closure is grown (``fq.generated``) once per algebra, however many
classes share the component.  Guard: the closures' orders multiply to
|Aut E| as the class table counts it, by orbit and stabilizer, and the
list of automorphisms has that many elements.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple

from .exact import SizeCapError
from .fq import (
    Matrix,
    _gl_generators,
    _reduce,
    all_matrices,
    echelon,
    generated,
    identity,
    is_prime,
    mat_inv,
    mat_mul,
    mat_rank,
    mat_vec,
    nullspace,
    subspaces,
)

MAX_REP_ENUMERATION = 10 ** 6
MAX_BASE_CHANGE_GROUP = 10 ** 5


def _check_product(what: str, factors, cap: int) -> None:
    """SizeCapError once the running product of the factors passes cap."""
    product = 1
    for factor in factors:
        product *= factor
        if product > cap:
            raise SizeCapError(what, product, cap)


def check_caps(quiver: Quiver, q: int, dimvec: tuple[int, ...]) -> None:
    """SizeCapError when classifying the representations of dimension
    vector ``dimvec`` would pass a cap.  Both counts grow with every
    entry, so the check at a bound covers every vector below it.  A q
    below 2 is rejected first; above it each count is multiplied up only
    until it passes its cap, so a huge vector or a huge q is rejected as
    fast as a small one, and before q is tested for primality."""
    if q < 2:
        raise ValueError(f"q={q} is not prime")
    exponent = sum(dimvec[a] * dimvec[b] for a, b in quiver.edges)
    # q >= 2, so bit_length(cap) factors of q already pass the cap
    _check_product("representation enumeration",
                   itertools.repeat(q, min(exponent,
                                           MAX_REP_ENUMERATION.bit_length())),
                   MAX_REP_ENUMERATION)
    # |GL(d)| = prod_i (q^d - q^i); past d = 64 the first factor alone
    # passes the cap, and q^64 - 1 stands in for it
    _check_product("base-change group",
                   (q ** min(d, 64) - q ** i
                    for d in dimvec for i in range(d)),
                   MAX_BASE_CHANGE_GROUP)


def _orbit(start, moves) -> list:
    """The orbit of ``start`` under the group generated by ``moves``
    (functions point -> point), ``start`` first.  In a finite group the
    inverse moves are powers of the moves, so forward moves suffice."""
    orbit = [start]
    seen = {start}
    for point in orbit:   # grows while it is scanned
        for move in moves:
            image = move(point)
            if image not in seen:
                seen.add(image)
                orbit.append(image)
    return orbit


# -- quivers and representations ---------------------------------------------

class Quiver:
    """A directed graph whose underlying graph is a union of ADE diagrams;
    immutable, and equal to another with the same vertices and edges."""

    __slots__ = ("n_vertices", "edges")

    def __init__(self, n_vertices: int, edges: tuple[tuple[int, int], ...]):
        problems = _ade_violations(n_vertices, edges)
        if problems:
            raise ValueError("; ".join(problems))
        object.__setattr__(self, "n_vertices", n_vertices)
        object.__setattr__(self, "edges", edges)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a Quiver")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Quiver):
            return NotImplemented
        return (self.n_vertices, self.edges) == (other.n_vertices, other.edges)

    def __hash__(self) -> int:
        return hash((self.n_vertices, self.edges))


def _ade_violations(n: int, edges) -> list[str]:
    seen_pairs = set()
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for a, b in edges:
        if a == b:
            return [f"self-loop at vertex {a}"]
        pair = (min(a, b), max(a, b))
        if pair in seen_pairs:
            return [f"repeated edge between {a} and {b}"]
        seen_pairs.add(pair)
        adj[a].append(b)
        adj[b].append(a)
    # each component must be a tree shaped like A, D or E
    unvisited = set(range(n))
    while unvisited:
        start = min(unvisited)
        comp = [start]
        unvisited.discard(start)
        for v in comp:
            for w in adj[v]:
                if w in unvisited:
                    unvisited.discard(w)
                    comp.append(w)
        n_edges = sum(len(adj[v]) for v in comp) // 2
        if n_edges != len(comp) - 1:
            return ["component has a cycle, not an ADE diagram"]
        degrees = sorted(len(adj[v]) for v in comp)
        if degrees and degrees[-1] > 3:
            return ["vertex of degree > 3, not an ADE diagram"]
        branch = [v for v in comp if len(adj[v]) == 3]
        if len(branch) > 1:
            return ["two branch vertices, not an ADE diagram"]
        if branch:
            arms = sorted(_arm_lengths(branch[0], adj))
            if arms not in ([1, 1, k] for k in range(1, n)) and \
                    arms not in ([1, 2, 2], [1, 2, 3], [1, 2, 4]):
                return [f"branch arms {arms} are not of type D or E"]
    return []


def _arm_lengths(branch: int, adj) -> list[int]:
    lengths = []
    for start in adj[branch]:
        length = 1
        prev, cur = branch, start
        while True:
            nxt = [w for w in adj[cur] if w != prev]
            if len(nxt) != 1:
                break
            prev, cur = cur, nxt[0]
            length += 1
        lengths.append(length)
    return lengths


def parse_quiver(name: str) -> Quiver:
    """CLI names: a1; a2; a3:<two arrows> and a4:<three arrows>, arrow i
    being '>' for the edge i -> i + 1 or '<' for i + 1 -> i, all '>' when
    left out; d4, whose arms 1, 2 and 3 all point into the centre 0."""
    name = name.strip().lower()
    if name == "a1":
        return Quiver(1, ())
    if name == "a2":
        return Quiver(2, ((0, 1),))
    if name == "d4":
        return Quiver(4, ((1, 0), (2, 0), (3, 0)))
    kind, _, orient = name.partition(":")
    if kind in ("a3", "a4"):
        n = int(kind[1])
        orient = orient or ">" * (n - 1)
        if len(orient) != n - 1 or any(c not in "><" for c in orient):
            raise ValueError(
                f"{kind} orientation must be {n - 1} of '>' or '<'")
        return Quiver(n, tuple((i, i + 1) if c == ">" else (i + 1, i)
                               for i, c in enumerate(orient)))
    raise ValueError(f"unknown quiver name {name!r} "
                     f"(use a1, a2, a3:<dirs>, a4:<dirs>, d4)")


class QuiverRep(NamedTuple):
    """Per-vertex dimensions with a matrix over F_q per edge."""

    dims: tuple[int, ...]
    mats: tuple[Matrix, ...]


class RepClass(NamedTuple):
    """An isomorphism class of representations for one dimension vector."""

    dimvec: tuple[int, ...]
    index: int
    rep: QuiverRep
    aut_order: int
    class_size: int

    @property
    def key(self) -> tuple:
        return (self.dimvec, self.index)

    @property
    def label(self) -> str:
        return "d" + ",".join(map(str, self.dimvec)) + f"#{self.index}"


class HallElement(dict):
    """Finite rational combination of representation classes, keyed by class."""

    def __add__(self, other: "HallElement") -> "HallElement":
        out = HallElement(self)
        for k, v in other.items():
            out[k] = out.get(k, Fraction(0)) + v
        return HallElement({k: v for k, v in out.items() if v != 0})

    def scale(self, c: Fraction) -> "HallElement":
        return HallElement({k: v * c for k, v in self.items() if v * c != 0})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, dict):
            return NotImplemented
        a = {k: v for k, v in self.items() if v != 0}
        b = {k: v for k, v in other.items() if v != 0}
        return a == b

    __hash__ = None  # type: ignore[assignment]


class HallAlgebra:
    """Hall algebra of a quiver over F_q with cached class tables.

    Products follow the convention that the second factor is the
    subobject: [M] . [N] sums over extensions of M by N.
    """

    def __init__(self, quiver: Quiver, q: int):
        if not is_prime(q):
            raise ValueError(f"q={q} is not prime")
        self.quiver = quiver
        self.q = q
        self._classes: dict[tuple, list[RepClass]] = {}
        self._classify: dict[tuple, dict] = {}
        self._subspace_cache: dict[tuple, list[tuple]] = {}
        self._generator_cache: dict[tuple, list[tuple[Matrix, ...]]] = {}
        self._product_cache: dict[tuple, HallElement] = {}
        # the basis of End per representative, one list of isomorphisms
        # per ordered pair of classes, and per component of a Hom space
        # (see ``_components``) its maps and, for a component of an
        # endomorphism ring, its unit group's generators and order
        self._end_bases: dict[QuiverRep, tuple] = {}
        self._isos: dict[tuple, list[tuple[Matrix, ...]]] = {}
        self._component_cache: dict[tuple, list[tuple[Matrix, ...]]] = {}
        self._unit_cache: dict[tuple, tuple[list, int]] = {}
        # morphism tuples share one matrix object per shape and entries,
        # so cached lists hold references, not copies; the rank, image and
        # kernel memos are keyed by those matrices.  A shape holds at most
        # q^(rc) matrices, so the enumeration caps bound every memo.
        self._matrices: dict[tuple[int, int], dict[tuple, Matrix]] = {}
        self._rank: dict[Matrix, int] = {}
        self._image: dict[tuple[int, Matrix], Matrix] = {}
        self._kernel: dict[tuple[int, Matrix], Matrix] = {}
        # injective N -> E grouped by image, surjective E -> M by kernel
        self._groups: dict[tuple, dict[tuple, list]] = {}

    # -- enumeration and classification ---------------------------------

    def _subspaces(self, n: int, k: int) -> list[tuple]:
        if (n, k) not in self._subspace_cache:
            self._subspace_cache[n, k] = subspaces(n, self.q, k)
        return self._subspace_cache[n, k]

    def classes(self, dimvec: tuple[int, ...]) -> list[RepClass]:
        """All iso classes with the given dimension vector, canonically
        ordered: by least member, the representative."""
        dimvec = tuple(dimvec)
        if dimvec in self._classes:
            return self._classes[dimvec]
        check_caps(self.quiver, self.q, dimvec)
        q = self.q
        edges = self.quiver.edges
        # |GL(d, F_q)| = prod_i (q^d - q^i)
        group_size = math.prod(q ** d - q ** i
                               for d in dimvec for i in range(d))

        def base_change(v, s, s_inv, mats):
            """g . (m_e) = (g_b m_e g_a^-1) for g = s at vertex v."""
            out = []
            for m, (a, b) in zip(mats, edges):
                if b == v:
                    m = mat_mul(s, m, q, cols=dimvec[a])
                if a == v:
                    m = mat_mul(m, s_inv, q)
                out.append(m)
            return tuple(out)

        moves = [functools.partial(base_change, v, s, mat_inv(s, q))
                 for v, d in enumerate(dimvec) for s in _gl_generators(d, q)]
        all_mats = [list(all_matrices(dimvec[b], dimvec[a], q))
                    for a, b in edges]
        classes: list[RepClass] = []
        classify: dict = {}
        # edge tuples come in increasing order, so each orbit is grown from
        # its least member and the orbits come in order of least member
        for mats in itertools.product(*all_mats):
            if mats in classify:
                continue
            orbit = _orbit(mats, moves)
            cls = RepClass(dimvec, len(classes), QuiverRep(dimvec, mats),
                           group_size // len(orbit), len(orbit))
            classes.append(cls)
            for member in orbit:
                classify[member] = cls
        self._classes[dimvec] = classes
        self._classify[dimvec] = classify
        return classes

    def classify(self, rep: QuiverRep) -> RepClass:
        self.classes(rep.dims)
        return self._classify[tuple(rep.dims)][rep.mats]

    # -- morphisms -------------------------------------------------------

    def _hom_basis(self, src: QuiverRep, dst: QuiverRep) -> tuple:
        """A basis of Hom(src, dst), as vectors over the unknowns: the
        entries of each X_v, vertex by vertex, row by row.  Hom is the
        nullspace of D X_a - X_b S = 0 over the edges.  Only End is
        memoised: the list of automorphisms and the generators of Aut both
        ask for it, while every other pair is asked for once."""
        if src == dst and src in self._end_bases:
            return self._end_bases[src]
        q = self.q
        nv = self.quiver.n_vertices
        offset = list(itertools.accumulate(
            (dst.dims[v] * src.dims[v] for v in range(nv)), initial=0))
        n = offset[-1]

        def unknown(v, r, c):
            return offset[v] + r * src.dims[v] + c

        equations = []
        for (a, b), D, S in zip(self.quiver.edges, dst.mats, src.mats):
            for i in range(dst.dims[b]):
                for j in range(src.dims[a]):
                    row = [0] * n
                    for k in range(dst.dims[a]):
                        row[unknown(a, k, j)] += D[i][k]
                    for k in range(src.dims[b]):
                        row[unknown(b, i, k)] -= S[k][j]
                    equations.append([x % q for x in row])
        basis = nullspace(equations, q, n)
        if src == dst:
            self._end_bases[src] = basis
        return basis

    def _components(self, src: QuiverRep, dst: QuiverRep, mono: bool,
                    epi: bool) -> list[tuple[tuple[int, ...], tuple]]:
        """Hom(src, dst) as a product of vertex-support components: two
        vertices are in one component when a basis vector is nonzero at
        both, so each component's matrices vary independently of the
        others'.  Per component, in order of least vertex: its vertices
        and a key, (rows, columns, wanted rank or None) per vertex with
        the basis vectors cut down to its unknowns."""
        nv = self.quiver.n_vertices
        shapes = []
        for r, c in zip(dst.dims, src.dims):
            # the rank a filter asks of this vertex; every matrix of a zero
            # shape qualifies
            want = c if mono else r if epi else None
            shapes.append((r, c, want or None))
        offset = list(itertools.accumulate((r * c for r, c, _ in shapes),
                                           initial=0))
        basis = self._hom_basis(src, dst)
        label = list(range(nv))     # per vertex, its component's least vertex
        for b in basis:
            touched = {label[v] for v in range(nv)
                       if any(b[offset[v]:offset[v + 1]])}
            low = min(touched)
            label = [low if x in touched else x for x in label]
        components = []
        for least in sorted(set(label)):
            vertices = tuple(v for v in range(nv) if label[v] == least)
            cols = [i for v in vertices
                    for i in range(offset[v], offset[v + 1])]
            sub = tuple(tuple(b[i] for i in cols) for b in basis
                        if any(b[i] for i in cols))
            components.append(
                (vertices, (tuple(shapes[v] for v in vertices), sub)))
        return components

    def _component_maps(self, key: tuple) -> list[tuple[Matrix, ...]]:
        """Every combination of a component's basis, as a tuple of its
        vertices' matrices, only those of the wanted ranks.  Memoised by
        key, so a component shared by several Hom spaces is listed once.

        The q^dim vectors are enumerated from the basis, the first basis
        vector most significant; a matrix is injective when its rank is
        its column count, surjective when it is its row count."""
        if key in self._component_cache:
            return self._component_cache[key]
        q = self.q
        shapes, basis = key
        blocks = []
        n = 0   # unknowns so far: the entries of the X_v before vertex v
        for r, c, want in shapes:
            blocks.append((n, n + r * c, r, c, want,
                           self._matrices.setdefault((r, c), {})))
            n += r * c
        vectors = [(0,) * n]
        for b in reversed(basis):
            multiples = [tuple(k * x % q for x in b) for k in range(1, q)]
            vectors += [tuple([(x + y) % q for x, y in zip(m, v)])
                        for m in multiples for v in vectors]
        ranks = self._rank
        maps = []
        for flat in vectors:
            mats = []
            for lo, hi, r, c, want, shared in blocks:
                block = flat[lo:hi]
                m = shared.get(block)
                if m is None:
                    m = shared[block] = tuple(block[i * c:(i + 1) * c]
                                              for i in range(r))
                if want is not None:
                    rank = ranks.get(m)
                    if rank is None:
                        rank = ranks[m] = mat_rank(m, q)
                    if rank != want:
                        break
                mats.append(m)
            else:
                maps.append(tuple(mats))
        self._component_cache[key] = maps
        return maps

    def hom_tuples(self, src: QuiverRep, dst: QuiverRep, mono: bool = False,
                   epi: bool = False):
        """All morphism tuples src -> dst (per-vertex matrices commuting
        with the edge maps), only those injective (``mono``) or surjective
        (``epi``) at every vertex when asked: the product of the maps of
        the components of ``_components``, the one with the shortest basis
        listed first, so that one with no map of the wanted ranks ends the
        enumeration before the larger ones are listed."""
        if mono and epi and src.dims != dst.dims:
            return
        components = self._components(src, dst, mono, epi)
        maps = {}
        for vertices, key in sorted(components, key=lambda c: len(c[1][1])):
            maps[vertices] = self._component_maps(key)
            if not maps[vertices]:
                return
        if len(components) == 1:
            yield from maps[components[0][0]]
            return
        # the components' matrices, concatenated, picked in vertex order
        order = [v for vertices, _key in components for v in vertices]
        pick = operator.itemgetter(*map(order.index, range(len(order))))
        for combo in itertools.product(*(maps[vs] for vs, _ in components)):
            yield pick(sum(combo, ()))

    def _iso_list(self, src: RepClass, dst: RepClass) -> list:
        """The isomorphisms src -> dst between classes of one dimension
        vector, which are the injective maps and the surjective ones too.
        Listed once per ordered pair and shared by ``aut_elements`` and
        both directions of ``_grouped``; empty unless src is dst."""
        key = (src.key, dst.key)
        if key not in self._isos:
            self._isos[key] = list(self.hom_tuples(src.rep, dst.rep,
                                                   mono=True, epi=True))
        return self._isos[key]

    def aut_elements(self, cls: RepClass) -> list[tuple[Matrix, ...]]:
        """Invertible self-morphisms of the class representative."""
        return self._iso_list(cls, cls)

    def _unit_group(self, key: tuple) -> tuple[list, int]:
        """A greedy generating set of the units of one component of an
        endomorphism ring, with the order of the group they generate: each
        unit not in the group generated so far joins the set, and the
        group is extended by it.  Memoised by the component's key."""
        if key not in self._unit_cache:
            dims = tuple(c for _r, c, _want in key[0])
            gens: list[tuple[Matrix, ...]] = []
            group = generated(gens, dims, self.q)
            for g in self._component_maps(key):
                if g not in group:
                    gens.append(g)
                    generated(gens, dims, self.q, group)
            self._unit_cache[key] = (gens, len(group))
        return self._unit_cache[key]

    def aut_generators(self, cls: RepClass) -> list[tuple[Matrix, ...]]:
        """A generating set of Aut.  End of the representative is the
        product of its vertex-support components, so Aut is the product of
        their unit groups: each is closed on its own, and its generators
        act as the identity off their component.  Guard: the factors'
        orders multiply to exactly ``cls.aut_order``, and ``aut_elements``
        lists exactly that many automorphisms."""
        key = cls.key
        if key not in self._generator_cache:
            one = tuple(identity(d) for d in cls.dimvec)
            gens: list[tuple[Matrix, ...]] = []
            order = 1
            for vertices, factor in self._components(cls.rep, cls.rep,
                                                     mono=True, epi=True):
                factor_gens, factor_order = self._unit_group(factor)
                order *= factor_order
                for g in factor_gens:
                    full = list(one)
                    for v, m in zip(vertices, g):
                        full[v] = m
                    gens.append(tuple(full))
            listed = len(self.aut_elements(cls))
            if order != cls.aut_order or listed != cls.aut_order:
                raise AssertionError(
                    f"generators of Aut {cls.label} give {order} elements "
                    f"and {listed} automorphisms are listed, not "
                    f"{cls.aut_order}")
            self._generator_cache[key] = gens
        return self._generator_cache[key]

    # -- Hall numbers and the product ------------------------------------

    def _grouped(self, src: RepClass, dst: RepClass, epi: bool) -> dict:
        """The injective maps src -> dst grouped by image, or with ``epi``
        the surjective ones grouped by kernel: per vertex a subspace of the
        middle term, as its reduced echelon basis, memoised per matrix."""
        key = (src.key, dst.key, epi)
        if key not in self._groups:
            q = self.q
            memo = self._kernel if epi else self._image
            # a square map here is invertible: its kernel is 0, its image
            # the whole space
            whole = [() if epi else identity(d) for d in src.dimvec]
            if src.dimvec == dst.dimvec:
                # every such map is an isomorphism: one group of them all
                isos = self._iso_list(src, dst)
                groups = {tuple(whole): isos} if isos else {}
            else:
                groups = {}
                for f in self.hom_tuples(src.rep, dst.rep, mono=not epi,
                                         epi=epi):
                    spaces = []
                    for d, m, u in zip(src.dimvec, f, whole):
                        if len(m) != d:
                            u = memo.get((d, m))
                            if u is None:
                                u = memo[d, m] = (
                                    echelon(nullspace(m, q, d), q) if epi
                                    else echelon(tuple(zip(*m)), q))
                        spaces.append(u)
                    groups.setdefault(tuple(spaces), []).append(f)
            self._groups[key] = groups
        return self._groups[key]

    def _exact_blocks(self, M: RepClass, N: RepClass, E: RepClass) -> list:
        """(fs, gs) per subrepresentation U of E that is both the image of
        an injective f: N -> E and the kernel of a surjective g: E -> M.
        With dim E = dim M + dim N at every vertex, 0 -> N -f-> E -g-> M
        -> 0 is exact exactly when im f = ker g, so these blocks hold every
        short exact sequence."""
        if tuple(a + b for a, b in zip(M.dimvec, N.dimvec)) != E.dimvec:
            return []
        fs = self._grouped(N, E, epi=False)
        gs = self._grouped(E, M, epi=True) if fs else {}
        return [(group, gs[image]) for image, group in fs.items()
                if image in gs]

    def ses_pairs(self, M: RepClass, N: RepClass, E: RepClass) -> list:
        """All (f, g) with f: N -> E injective, g: E -> M surjective,
        im f = ker g at every vertex, grouped by that subrepresentation."""
        return [(f, g) for fs, gs in self._exact_blocks(M, N, E)
                for f in fs for g in gs]

    def hall_number(self, M: RepClass, N: RepClass, E: RepClass) -> int:
        """|{(f, g) : 0 -> N -f-> E -g-> M -> 0 exact}|, a pair count:
        the sum over subrepresentations U of E of the number of injective
        f with image U times the number of surjective g with kernel U."""
        return sum(len(fs) * len(gs)
                   for fs, gs in self._exact_blocks(M, N, E))

    def product(self, M: RepClass, N: RepClass) -> HallElement:
        """[M] . [N] with the automorphism correction factor, exact."""
        key = (M.key, N.key)
        if key not in self._product_cache:
            total = tuple(a + b for a, b in zip(M.dimvec, N.dimvec))
            out = HallElement()
            denom = M.aut_order * N.aut_order
            for E in self.classes(total):
                count = self.hall_number(M, N, E)
                if count:
                    out[E.key] = Fraction(count, denom)
            self._product_cache[key] = out
        return self._product_cache[key]

    # -- the span route ---------------------------------------------------

    def subrep_spaces(self, E: RepClass, dimvec: tuple[int, ...]) -> list[tuple]:
        """Edge-stable tuples of subspaces of the representative of E, of
        the given dimensions, each a reduced row echelon basis."""
        q = self.q
        per_vertex = [self._subspaces(E.dimvec[v], dimvec[v])
                      for v in range(self.quiver.n_vertices)]
        return [combo for combo in itertools.product(*per_vertex)
                if not any(any(_reduce(mat_vec(m, w, q), combo[b], q)[1])
                           for m, (a, b) in zip(E.rep.mats, self.quiver.edges)
                           for w in combo[a])]

    def sub_and_quotient(self, E: RepClass, spaces: tuple
                         ) -> tuple[QuiverRep, QuiverRep]:
        """Restrict the representative of E to the subspaces, and quotient.

        Each subspace has its echelon basis; the unit vectors off its
        pivots give a basis of the quotient.  An edge map's columns are
        then read in those bases with ``_reduce``.
        """
        q = self.q
        nv = self.quiver.n_vertices
        off_pivots = [
            [c for c in range(E.dimvec[v])
             if c not in {row.index(1) for row in spaces[v]}]
            for v in range(nv)]
        sub_mats = []
        quo_mats = []
        for m, (a, b) in zip(E.rep.mats, self.quiver.edges):
            sub_cols = []
            for w in spaces[a]:
                coords, residual = _reduce(mat_vec(m, w, q), spaces[b], q)
                if any(residual):
                    raise AssertionError("subspaces are not edge-stable")
                sub_cols.append(coords)
            quo_cols = [_reduce([row[c] for row in m], spaces[b], q)[1]
                        for c in off_pivots[a]]
            sub_mats.append(tuple(tuple(col[j] for col in sub_cols)
                                  for j in range(len(spaces[b]))))
            quo_mats.append(tuple(tuple(col[c] for col in quo_cols)
                                  for c in off_pivots[b]))
        return (QuiverRep(tuple(map(len, spaces)), tuple(sub_mats)),
                QuiverRep(tuple(map(len, off_pivots)), tuple(quo_mats)))

    def product_via_span(self, M: RepClass, N: RepClass) -> HallElement:
        """[M] . [N] through the short-exact-sequence span at alpha = 1.

        The coefficient of [E] is |Aut E| times the groupoid cardinality of
        the full inverse image over ((M, N), E), computed as the weak
        quotient of the matching subrepresentations of E under Aut(E):
        orbits grown from ``aut_generators`` and stabilizer orders
        |Aut E| / |orbit|, never a pair count.
        """
        q = self.q
        total = tuple(a + b for a, b in zip(M.dimvec, N.dimvec))
        out = HallElement()

        def image(g, spaces):
            return tuple(echelon([mat_vec(gv, w, q) for w in basis], q)
                         for gv, basis in zip(g, spaces))

        for E in self.classes(total):
            matching = []
            for spaces in self.subrep_spaces(E, N.dimvec):
                sub, quo = self.sub_and_quotient(E, spaces)
                if self.classify(sub).key == N.key and \
                        self.classify(quo).key == M.key:
                    matching.append(spaces)
            if not matching:
                continue
            moves = [functools.partial(image, g)
                     for g in self.aut_generators(E)]
            unseen = set(matching)
            cardinality = Fraction(0)
            for spaces in matching:
                if spaces not in unseen:
                    continue
                orbit = _orbit(spaces, moves)
                if not unseen.issuperset(orbit):
                    raise AssertionError(
                        f"an automorphism of {E.label} moves a matching "
                        f"subrepresentation off the matching set")
                unseen.difference_update(orbit)
                cardinality += 1 / Fraction(E.aut_order, len(orbit))
            out[E.key] = E.aut_order * cardinality
        return out

    # -- bilinear extension and associativity ------------------------------

    def class_by_key(self, key: tuple) -> RepClass:
        return self.classes(key[0])[key[1]]

    def element_product(self, x: HallElement, y: HallElement) -> HallElement:
        out = HallElement()
        for mk, mc in x.items():
            for nk, nc in y.items():
                term = self.product(self.class_by_key(mk),
                                    self.class_by_key(nk))
                out = out + term.scale(mc * nc)
        return out

    def check_associativity(self, dmax: tuple[int, ...]) -> list[tuple]:
        """([M][N])[L] = [M]([N][L]) for all class triples within the bound.

        Returns the list of failures (empty when associativity holds).
        """
        triples = []
        dimvecs = [tuple(d) for d in itertools.product(
            *[range(b + 1) for b in dmax])]
        for dm in dimvecs:
            for dn in dimvecs:
                for dl in dimvecs:
                    if all(a + b + c <= bound for a, b, c, bound
                           in zip(dm, dn, dl, dmax)):
                        triples.append((dm, dn, dl))
        failures = []
        for dm, dn, dl in triples:
            for M in self.classes(dm):
                for N in self.classes(dn):
                    for L in self.classes(dl):
                        left = self.element_product(
                            self.product(M, N), HallElement({L.key: Fraction(1)}))
                        right = self.element_product(
                            HallElement({M.key: Fraction(1)}), self.product(N, L))
                        if left != right:
                            failures.append((M.key, N.key, L.key, left, right))
        return failures
