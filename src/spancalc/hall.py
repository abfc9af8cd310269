"""Hall algebras of simply-laced quivers over a prime field.

A quiver is accepted when its Tits form is positive definite, which by
Gabriel's theorem makes its underlying graph a union of ADE diagrams.
Representations assign an F_q vector space to each vertex and a matrix to
each edge; isomorphism classes are orbits of the base-change group
prod_v GL(d_v, F_q), grown from its generators, and each class's |Aut|
comes from its orbit by orbit and stabilizer.  The linear algebra is
plain Python (``spancalc.fq``, no numpy).

Every Hall number is an integer: the coefficient g^E_MN of [E] in [M] .
[N] counts the subrepresentations U of E with U isomorphic to N and E/U
to M.  The direct route takes it from Riedtmann's formula,

    g^E_MN = |Ext^1(M, N)_E| |Aut E| / (|Aut M| |Aut N| |Hom(M, N)|),

with Ext^1(M, N)_E the extensions whose middle term is isomorphic to E.
Hom(M, N) and Ext^1(M, N) are the kernel and cokernel of one coboundary,
solved once per pair; one cocycle per element of Ext^1 gives a middle
term, which is classified.  Guard: every quotient is an integer.

A second, span-based route goes through the groupoid of short exact
sequences: the full inverse image over ((M, N), E) is equivalent to the
weak quotient X//Aut(E) of the set X of subrepresentations W of E with W
isomorphic to N and E/W isomorphic to M, and |X//G| = |X| / |G| makes the
coefficient |Aut E| |X//Aut E| = |X|.  One table per dim E and dim W
splits each tuple of subspaces, listed once per vertex, in every class
E, and counts each edge-stable W under the classes of E/W and W, so a
pair (M, N) is one lookup.  The span route classifies subobjects
and quotients, Riedtmann's extensions, and only Riedtmann reads |Aut|, so
the two routes agreeing checks every class's |Aut| too.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from typing import NamedTuple

from .exact import SizeCapError, orbits
from .fq import (
    Matrix,
    _gl_generators,
    _reduce,
    all_matrices,
    echelon,
    is_prime,
    mat_inv,
    mat_mul,
    mat_vec,
    subspaces,
)

MAX_REP_ENUMERATION = 10 ** 6


def _check_product(what: str, factors, cap: int) -> None:
    """SizeCapError once the running product of the factors passes cap."""
    product = 1
    for factor in factors:
        product *= factor
        if product > cap:
            raise SizeCapError(what, product, cap)


def _subspace_count(d: int, q: int) -> int:
    """The number of subspaces of F_q^d, the Galois number G(d), by
    G(n + 1) = 2 G(n) + (q^n - 1) G(n - 1) from G(0) = 1."""
    previous, count = 0, 1
    for n in range(d):
        previous, count = count, 2 * count + (q ** n - 1) * previous
    return count


def check_caps(quiver: Quiver, q: int, dimvec: tuple[int, ...]) -> None:
    """SizeCapError when classifying the representations of dimension
    vector ``dimvec``, or listing the subspaces of its vertices, would
    pass a cap.  Both counts grow with every entry, so the check at a
    bound covers every vector below it.  A q below 2 is rejected first;
    above it each count is multiplied up only until it passes its cap, so
    a huge vector or a huge q is rejected as fast as a small one, and
    before q is tested for primality."""
    if q < 2:
        raise ValueError(f"q={q} is not prime")
    bits = MAX_REP_ENUMERATION.bit_length()
    exponent = sum(dimvec[a] * dimvec[b] for a, b in quiver.edges)
    # q >= 2, so bit_length(cap) factors of q already pass the cap
    _check_product("representation enumeration",
                   itertools.repeat(q, min(exponent, bits)),
                   MAX_REP_ENUMERATION)
    # the subspaces of dimension d // 2 alone number at least
    # q^(d^2 // 4) >= 2^(d^2 // 4), which stands in for G(d) past the cap
    _check_product("subspace enumeration",
                   (2 ** bits if d * d // 4 >= bits else _subspace_count(d, q)
                    for d in dimvec),
                   MAX_REP_ENUMERATION)


def dimvecs_within(dmax: tuple[int, ...], k: int):
    """The k-tuples of dimension vectors whose sum is within dmax at every
    vertex, in lexicographic order.  At a vertex with bound d, k entries
    sum to at most d in C(d + k, k) ways, so they number prod C(d + k, k);
    SizeCapError when that passes the cap."""
    _check_product(f"{k}-tuples of dimension vectors",
                   (math.comb(d + k, k) for d in dmax), MAX_REP_ENUMERATION)
    return _within(tuple(dmax), k)


def _within(bound: tuple[int, ...], k: int):
    """Each first vector below bound, then the tuples within what it leaves."""
    if not k:
        yield ()
        return
    for first in itertools.product(*(range(b + 1) for b in bound)):
        for tail in _within(tuple(b - a for a, b in zip(first, bound)), k - 1):
            yield (first,) + tail


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
    """CLI names: a<n>[:<dirs>] for n >= 1, with n - 1 arrows, arrow i
    being '>' for the edge i -> i + 1 or '<' for i + 1 -> i, all '>' when
    left out; d4, whose arms 1, 2 and 3 all point into the centre 0."""
    name = name.strip().lower()
    if name == "d4":
        return Quiver(4, ((1, 0), (2, 0), (3, 0)))
    kind, _, orient = name.partition(":")
    if kind[:1] == "a" and kind[1:].isdecimal() and int(kind[1:]) >= 1:
        n = int(kind[1:])
        # the Tits-form test eliminates an n x n matrix in about n^3 steps
        _check_product(f"the Tits form of {kind}", (n, n, n),
                       MAX_REP_ENUMERATION)
        orient = orient or ">" * (n - 1)
        if len(orient) != n - 1 or any(c not in "><" for c in orient):
            raise ValueError(
                f"{kind} orientation must be {n - 1} of '>' or '<'")
        return Quiver(n, tuple((i, i + 1) if c == ">" else (i + 1, i)
                               for i, c in enumerate(orient)))
    raise ValueError(f"unknown quiver name {name!r} "
                     f"(use a<n>[:<dirs>] for n >= 1, or d4)")


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
        self._product_cache: dict[tuple, dict[tuple, int]] = {}
        self._span_tables: dict[tuple, dict] = {}

    # -- enumeration and classification ---------------------------------

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

        # a base change at a vertex whose edge spaces are all 0 fixes every
        # representation; elsewhere the representation cap holds q <= 10^6
        moving = {v for a, b in edges if dimvec[a] * dimvec[b] for v in (a, b)}
        moves = [functools.partial(base_change, v, s, mat_inv(s, q))
                 for v, d in enumerate(dimvec) if v in moving
                 for s in _gl_generators(d, q)]
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

    # -- Hall numbers by Riedtmann's formula -----------------------------

    def _coboundary(self, M: QuiverRep, N: QuiverRep) -> tuple[list, int]:
        """The coboundary delta: prod_v Hom(M_v, N_v) -> prod_{a: s -> t}
        Hom(M_s, N_t), phi -> (N_a phi_s - phi_t M_a), as its rows, one per
        entry of the target, edge by edge and row by row, over the
        unknowns, the entries of each phi_v, vertex by vertex and row by
        row; and the number of unknowns.  Its kernel is Hom(M, N) and its
        cokernel Ext^1(M, N)."""
        q = self.q
        offset = list(itertools.accumulate(
            (n * m for n, m in zip(N.dims, M.dims)), initial=0))
        rows = []
        for (s, t), N_a, M_a in zip(self.quiver.edges, N.mats, M.mats):
            for i in range(N.dims[t]):
                for j in range(M.dims[s]):
                    row = [0] * offset[-1]
                    for k in range(N.dims[s]):
                        row[offset[s] + k * M.dims[s] + j] += N_a[i][k]
                    for k in range(M.dims[t]):
                        row[offset[t] + i * M.dims[t] + k] -= M_a[k][j]
                    rows.append([x % q for x in row])
        return rows, offset[-1]

    def _extension(self, M: QuiverRep, N: QuiverRep, eta) -> QuiverRep:
        """The middle term of the extension of M by N with cocycle eta,
        given as a vector over the rows of ``_coboundary``: the edge
        matrices [[N_a, eta_a], [0, M_a]], N's coordinates first."""
        entries = iter(eta)
        mats = []
        for (s, t), N_a, M_a in zip(self.quiver.edges, N.mats, M.mats):
            top = tuple(N_a[i] + tuple(itertools.islice(entries, M.dims[s]))
                        for i in range(N.dims[t]))
            bottom = tuple((0,) * N.dims[s] + row for row in M_a)
            mats.append(top + bottom)
        dims = tuple(n + m for n, m in zip(N.dims, M.dims))
        return QuiverRep(dims, tuple(mats))

    def product(self, M: RepClass, N: RepClass) -> dict[tuple, int]:
        """[M] . [N] by Riedtmann's formula: the coefficient of [E] is
        |Ext^1(M, N)_E| |Aut E| / (|Aut M| |Aut N| |Hom(M, N)|), where
        Ext^1(M, N)_E holds the extensions whose middle term is isomorphic
        to E.  The unit vectors off the pivots of the image of the
        coboundary span a complement of it, so their combinations are one
        cocycle per element of Ext^1; each middle term is classified.
        Guard: every quotient is an integer."""
        key = (M.key, N.key)
        if key not in self._product_cache:
            q = self.q
            total = tuple(a + b for a, b in zip(M.dimvec, N.dimvec))
            classes = self.classes(total)
            rows, unknowns = self._coboundary(M.rep, N.rep)
            image = echelon(zip(*rows), q)
            pivots = {row.index(1) for row in image}
            free = [c for c in range(len(rows)) if c not in pivots]
            extensions: collections.Counter = collections.Counter()
            eta = [0] * len(rows)
            for values in itertools.product(range(q), repeat=len(free)):
                for c, x in zip(free, values):
                    eta[c] = x
                E = self.classify(self._extension(M.rep, N.rep, eta))
                extensions[E.index] += 1
            # |Hom(M, N)| = q^dim, the kernel of the coboundary
            denominator = (M.aut_order * N.aut_order
                           * q ** (unknowns - len(image)))
            coefficients = {}
            for E in classes:
                numerator = extensions[E.index] * E.aut_order
                if numerator % denominator:
                    raise AssertionError(
                        f"the Hall number of {E.label} in {M.label} . "
                        f"{N.label} is {numerator}/{denominator}, not an "
                        f"integer")
                if numerator:
                    coefficients[E.key] = numerator // denominator
            self._product_cache[key] = coefficients
        return self._product_cache[key]

    # -- the span route ---------------------------------------------------

    def _split(self, E: RepClass, spaces: tuple
               ) -> tuple[QuiverRep, QuiverRep] | None:
        """(W, E/W) for subspaces W of the representative of E, given as
        reduced row echelon bases, or None once W is not edge-stable.  Each
        edge map is read by ``_reduce`` in the basis of W's rows and the
        unit vectors off W's pivots: a row's image must leave no residual,
        and a unit vector's residual, off W's pivots, is its image in E/W."""
        q = self.q
        sub_mats = []
        for m, (a, b) in zip(E.rep.mats, self.quiver.edges):
            sub_cols = []
            for w in spaces[a]:
                coords, residual = _reduce(mat_vec(m, w, q), spaces[b], q)
                if any(residual):
                    return None
                sub_cols.append(coords)
            sub_mats.append(tuple(zip(*sub_cols)) or ((),) * len(spaces[b]))
        off_pivots = [sorted(set(range(n)) - {row.index(1) for row in space})
                      for n, space in zip(E.dimvec, spaces)]
        quo_mats = []
        for m, (a, b) in zip(E.rep.mats, self.quiver.edges):
            quo_cols = [_reduce([row[c] for row in m], spaces[b], q)[1]
                        for c in off_pivots[a]]
            quo_mats.append(tuple(tuple(col[c] for col in quo_cols)
                                  for c in off_pivots[b]))
        return (QuiverRep(tuple(map(len, spaces)), tuple(sub_mats)),
                QuiverRep(tuple(map(len, off_pivots)), tuple(quo_mats)))

    def _span_table(self, total: tuple[int, ...], dimvec: tuple[int, ...]
                    ) -> dict[tuple, collections.Counter]:
        """(class of E/W, class of W), by key, to the number of
        subrepresentations W of dimension vector ``dimvec`` in each class E
        of dimension vector ``total``: each vertex's subspaces are listed
        once, and every tuple of them is split in every E; cached."""
        key = (total, dimvec)
        if key not in self._span_tables:
            classes = self.classes(total)      # checks the caps first
            per_vertex = [subspaces(n, self.q, k)
                          for n, k in zip(total, dimvec)]
            table: dict = collections.defaultdict(collections.Counter)
            for E in classes:
                for spaces in itertools.product(*per_vertex):
                    if split := self._split(E, spaces):
                        sub, quo = split
                        table[self.classify(quo).key,
                              self.classify(sub).key][E.key] += 1
            self._span_tables[key] = table
        return self._span_tables[key]

    def product_via_span(self, M: RepClass, N: RepClass) -> dict[tuple, int]:
        """[M] . [N] through the short-exact-sequence span at alpha = 1:
        the coefficient of [E] is |Aut E| |X//Aut E| = |X|, read from the
        table of dim E and dim N, never found by counting pairs of maps."""
        total = tuple(a + b for a, b in zip(M.dimvec, N.dimvec))
        return dict(self._span_table(total, N.dimvec).get((M.key, N.key), {}))

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
