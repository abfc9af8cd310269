"""Hall algebras of simply-laced quivers over a prime field.

A quiver is accepted when its Tits form is positive definite, which by
Gabriel's theorem makes its underlying graph a union of ADE diagrams.
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
Aut(E) and as the maps of both directions of the join below.

Every Hall number is an integer: the coefficient g^E_MN of [E] in [M] .
[N] counts the subrepresentations U of E with U isomorphic to N and E/U
to M.  The direct route finds them as a join of maps: with dim E = dim M +
dim N, a sequence 0 -> N -f-> E -g-> M -> 0 of an injective f and a
surjective g is exact exactly when im f = ker g at every vertex, so the
injective maps N -> E grouped by image and the surjective maps E -> M
grouped by kernel, both as reduced echelon bases, meet in one block per
such U.  Guard: each block holds |Aut N| maps f and |Aut M| maps g, the
isomorphisms onto U and from E/U.

A second, span-based route goes through the groupoid of short exact
sequences: the full inverse image over ((M, N), E) is equivalent to the
weak quotient X//Aut(E) of the set X of subrepresentations W of E with W
isomorphic to N and E/W isomorphic to M, and |X//G| = |X| / |G| makes the
coefficient |Aut E| |X//Aut E| = |X|.  Each edge-stable W, as reduced
row echelon bases, is classified with E/W once, into one table per E and
dim W that every pair (M, N) reads.  Guard: each class lists as many
automorphisms as its class table counts, by orbit and stabilizer.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from typing import NamedTuple

from .exact import SizeCapError, orbits
from .fq import (
    Matrix,
    _gl_generators,
    _reduce,
    all_matrices,
    echelon,
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


def dimvecs_within(dmax: tuple[int, ...], k: int):
    """The k-tuples of dimension vectors whose sum is within dmax at every
    vertex, in lexicographic order."""
    dimvecs = list(itertools.product(*(range(b + 1) for b in dmax)))
    for combo in itertools.product(dimvecs, repeat=k):
        if all(sum(entries) <= bound
               for entries, bound in zip(zip(*combo), dmax)):
            yield combo


# -- quivers and representations ---------------------------------------------

class Quiver:
    """A directed graph whose underlying graph is a union of ADE diagrams;
    immutable, and equal to another with the same vertices and edges."""

    __slots__ = ("n_vertices", "edges")

    def __init__(self, n_vertices: int, edges: tuple[tuple[int, int], ...]):
        if not all(0 <= v < n_vertices for edge in edges for v in edge):
            raise ValueError(f"an edge of {edges} leaves the vertices "
                             f"0..{n_vertices - 1}")
        if not _tits_form_is_positive_definite(n_vertices, edges):
            raise ValueError("the Tits form is not positive definite, so "
                             "the quiver is not a union of ADE diagrams")
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


def _tits_form_is_positive_definite(n: int, edges) -> bool:
    """Sylvester's criterion on C = 2I - (A + A^T), A the adjacency matrix:
    every leading principal minor is positive.  Fraction-free (Bareiss)
    elimination leaves the k-th minor as the k-th pivot.  A self-loop
    gives a 0 on the diagonal, a doubled edge a 2 x 2 minor of 0, and a
    cycle or an affine diagram a null root."""
    c = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for a, b in edges:
        c[a][b] -= 1
        c[b][a] -= 1
    previous = 1
    for k in range(n):
        if c[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                c[i][j] = (c[i][j] * c[k][k] - c[i][k] * c[k][j]) // previous
        previous = c[k][k]
    return True


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


class HallAlgebra:
    """Hall algebra of a quiver over F_q with cached class tables.

    Products follow the convention that the second factor is the
    subobject: [M] . [N] sums over extensions of M by N.  An element is a
    dict from class keys to nonzero integer coefficients.
    """

    def __init__(self, quiver: Quiver, q: int):
        if not is_prime(q):
            raise ValueError(f"q={q} is not prime")
        self.quiver = quiver
        self.q = q
        self._classes: dict[tuple, list[RepClass]] = {}
        self._classify: dict[tuple, dict] = {}
        self._subspace_cache: dict[tuple, list[tuple]] = {}
        self._product_cache: dict[tuple, dict[tuple, int]] = {}
        self._subrep_tables: dict[tuple, collections.Counter] = {}
        # one list of isomorphisms per ordered pair of classes, and per
        # component of a Hom space (see ``_components``) its maps
        self._isos: dict[tuple, list[tuple[Matrix, ...]]] = {}
        self._component_cache: dict[tuple, list[tuple[Matrix, ...]]] = {}
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
        classify: dict = {}     # each representation's class index
        # edge tuples come in increasing order, so each orbit is grown from
        # its least member and the orbits come in order of least member
        for orbit in orbits(itertools.product(*all_mats), moves, classify):
            classes.append(RepClass(dimvec, len(classes),
                                    QuiverRep(dimvec, orbit[0]),
                                    group_size // len(orbit), len(orbit)))
        self._classes[dimvec] = classes
        self._classify[dimvec] = classify
        return classes

    def classify(self, rep: QuiverRep) -> RepClass:
        dims = tuple(rep.dims)
        return self.classes(dims)[self._classify[dims][rep.mats]]

    # -- morphisms -------------------------------------------------------

    def _hom_basis(self, src: QuiverRep, dst: QuiverRep) -> tuple:
        """A basis of Hom(src, dst), as vectors over the unknowns: the
        entries of each X_v, vertex by vertex, row by row.  Hom is the
        nullspace of D X_a - X_b S = 0 over the edges.  Not memoised:
        each pair is asked for once, by its list of maps."""
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
        return nullspace(equations, q, n)

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
        Listed once per ordered pair and shared by both directions of
        ``_grouped``; empty unless src is dst, and then Aut(src).  Guard:
        a class lists as many automorphisms as its table entry counts by
        orbit and stabilizer."""
        key = (src.key, dst.key)
        if key not in self._isos:
            isos = list(self.hom_tuples(src.rep, dst.rep, mono=True,
                                        epi=True))
            if src == dst and len(isos) != src.aut_order:
                raise AssertionError(
                    f"{len(isos)} automorphisms of {src.label} are listed, "
                    f"not {src.aut_order}")
            self._isos[key] = isos
        return self._isos[key]

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
        short exact sequence.  Guard: a block holds the isomorphisms N -> U
        and E/U -> M, |Aut N| of the one and |Aut M| of the other."""
        if tuple(a + b for a, b in zip(M.dimvec, N.dimvec)) != E.dimvec:
            return []
        fs = self._grouped(N, E, epi=False)
        gs = self._grouped(E, M, epi=True) if fs else {}
        blocks = [(group, gs[image]) for image, group in fs.items()
                  if image in gs]
        for f_group, g_group in blocks:
            if (len(f_group), len(g_group)) != (N.aut_order, M.aut_order):
                raise AssertionError(
                    f"a block of {E.label} holds {len(f_group)} maps from "
                    f"{N.label} and {len(g_group)} onto {M.label}, not "
                    f"{N.aut_order} and {M.aut_order}")
        return blocks

    def product(self, M: RepClass, N: RepClass) -> dict[tuple, int]:
        """[M] . [N]: per class E, the number of exact blocks, one per
        subrepresentation U of E with U isomorphic to N and E/U to M."""
        key = (M.key, N.key)
        if key not in self._product_cache:
            total = tuple(a + b for a, b in zip(M.dimvec, N.dimvec))
            counts = {E.key: len(self._exact_blocks(M, N, E))
                      for E in self.classes(total)}
            self._product_cache[key] = {k: n for k, n in counts.items() if n}
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

    def _subrep_table(self, E: RepClass, dimvec: tuple[int, ...]
                      ) -> collections.Counter:
        """The pairs (class of E/W, class of W), by key, counted over the
        subrepresentations W of E of dimension vector ``dimvec``: each is
        restricted, quotiented and classified once per algebra."""
        key = (E.key, dimvec)
        if key not in self._subrep_tables:
            table: collections.Counter = collections.Counter()
            for spaces in self.subrep_spaces(E, dimvec):
                sub, quo = self.sub_and_quotient(E, spaces)
                table[self.classify(quo).key, self.classify(sub).key] += 1
            self._subrep_tables[key] = table
        return self._subrep_tables[key]

    def product_via_span(self, M: RepClass, N: RepClass) -> dict[tuple, int]:
        """[M] . [N] through the short-exact-sequence span at alpha = 1:
        the coefficient of [E] is |Aut E| |X//Aut E| = |X|, read from the
        table of E and dim N, never found by counting pairs of maps."""
        total = tuple(a + b for a, b in zip(M.dimvec, N.dimvec))
        counts = {E.key: self._subrep_table(E, N.dimvec)[M.key, N.key]
                  for E in self.classes(total)}
        return {k: n for k, n in counts.items() if n}

    # -- bilinear extension and associativity ------------------------------

    def class_by_key(self, key: tuple) -> RepClass:
        return self.classes(key[0])[key[1]]

    def element_product(self, x: dict, y: dict) -> dict:
        """The bilinear extension of ``product``, summed into one dict."""
        out: dict = {}
        for mk, mc in x.items():
            for nk, nc in y.items():
                c = mc * nc
                for k, v in self.product(self.class_by_key(mk),
                                         self.class_by_key(nk)).items():
                    out[k] = out.get(k, 0) + c * v
        return {k: v for k, v in out.items() if v != 0}

    def check_associativity(self, dmax: tuple[int, ...]) -> list[tuple]:
        """([M][N])[L] = [M]([N][L]) for all class triples within the bound.

        Returns the list of failures (empty when associativity holds).
        """
        failures = []
        for dm, dn, dl in dimvecs_within(dmax, 3):
            for M in self.classes(dm):
                for N in self.classes(dn):
                    for L in self.classes(dl):
                        left = self.element_product(self.product(M, N),
                                                    {L.key: 1})
                        right = self.element_product({M.key: 1},
                                                     self.product(N, L))
                        if left != right:
                            failures.append((M.key, N.key, L.key, left, right))
        return failures
