"""Hall algebras of simply-laced quivers over a prime field.

Representations assign an F_q vector space to each vertex and a matrix to
each edge; isomorphism classes are orbits of the base-change group
prod_v GL(d_v, F_q), grown from its generators.  Morphisms come from
linear algebra: Hom(V, W) is the nullspace of the commuting equations
D X_a = X_b S over the edges a -> b, enumerated from a basis, and the
injective, surjective and invertible ones are picked out in numpy
batches.  The Hall number stays a pair count: it counts the pairs (f, g)
forming a short exact sequence 0 -> N -> E -> M -> 0, and the product

    [M] . [N] = sum_E  hall_number(M, N, E) / (|Aut M| |Aut N|)  [E]

is computed in exact rationals.  A second, span-based route goes through
the groupoid of short exact sequences: the full inverse image over
((M, N), E) is equivalent to the groupoid of subrepresentations W of E
with W isomorphic to N and E/W isomorphic to M, acted on by Aut(E).
Subspaces are reduced row echelon bases, the orbits are grown from a
generating set of Aut(E), and the cardinality, the sum over orbits of
1 / |stabilizer| with |stabilizer| = |Aut E| / |orbit|, times |Aut E|
recovers the same coefficient with no pair counting involved.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fq import is_prime
from .groupoid import SizeCapError

MAX_REP_ENUMERATION = 10 ** 6
MAX_BASE_CHANGE_GROUP = 10 ** 5
BATCH_ENTRIES = 1 << 11   # integers per numpy batch, to keep batches small

Matrix = tuple  # tuple of row tuples over F_q


# -- small exact linear algebra mod a prime ---------------------------------

def mat_mul(a: Matrix, b: Matrix, q: int, cols: int | None = None) -> Matrix:
    """Product ab; ``cols`` disambiguates the width when b has zero rows
    (a zero-row tuple cannot carry its column count)."""
    rows = len(a)
    inner = len(b)
    if inner:
        cols = len(b[0])
    elif cols is None:
        cols = 0
    return tuple(
        tuple(sum(a[r][k] * b[k][c] for k in range(inner)) % q
              for c in range(cols))
        for r in range(rows))


def _as_matrix(rows) -> Matrix:
    return tuple(map(tuple, rows))


def _eliminate(m: Matrix, q: int) -> tuple[list[list[int]], int]:
    """Gauss-Jordan elimination over F_q: the reduced row echelon form of
    m, as lists, with its rank."""
    rows = [list(r) for r in m]
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    rank = 0
    for col in range(n_cols):
        pivot = None
        for r in range(rank, n_rows):
            if rows[r][col] % q:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], q - 2, q)
        rows[rank] = [x * inv % q for x in rows[rank]]
        for r in range(n_rows):
            if r != rank and rows[r][col] % q:
                factor = rows[r][col]
                rows[r] = [(x - factor * y) % q
                           for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rows, rank


def mat_rank(m: Matrix, q: int) -> int:
    return _eliminate(m, q)[1]


def mat_inv(m: Matrix, q: int) -> Matrix:
    """Inverse of a square matrix over F_q; ValueError when singular."""
    n = len(m)
    rows, _rank = _eliminate(
        [list(row) + [1 if r == c else 0 for c in range(n)]
         for r, row in enumerate(m)], q)
    # [m | I] reduces to [I | m^-1] exactly when m is invertible; otherwise
    # some pivot falls right of the diagonal and leaves a 0 on it
    if any(rows[i][i] != 1 for i in range(n)):
        raise ValueError(f"matrix {m} is singular mod {q}")
    return tuple(tuple(row[n:]) for row in rows)


def all_matrices(rows: int, cols: int, q: int):
    for flat in itertools.product(range(q), repeat=rows * cols):
        yield tuple(tuple(flat[r * cols + c] for c in range(cols))
                    for r in range(rows))


def _gl_generators(n: int, q: int) -> list[Matrix]:
    """Generators of GL(n, F_q): diag(w, 1, ..., 1) for a primitive root w
    (left out at q = 2, where it is the identity) and the transvections
    I + E_ij, which generate SL(n, F_q) since q is prime."""
    gens = []
    if n and q > 2:
        w = next(w for w in range(2, q)
                 if len({pow(w, k, q) for k in range(q - 1)}) == q - 1)
        gens.append(tuple(tuple(w if r == c == 0 else int(r == c)
                                for c in range(n)) for r in range(n)))
    for i, j in itertools.permutations(range(n), 2):
        gens.append(tuple(tuple(int(r == c or (r, c) == (i, j))
                                for c in range(n)) for r in range(n)))
    return gens


def _check_product(what: str, factors, cap: int) -> None:
    """SizeCapError once the running product of the factors passes cap."""
    product = 1
    for factor in factors:
        product *= factor
        if product > cap:
            raise SizeCapError(what, product, cap)


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


def _codes(blocks: list[np.ndarray], q: int) -> np.ndarray:
    """One integer per element of a batch of matrix tuples, given as one
    (K, r, c) array per vertex: the entries, read as base-q digits."""
    flat = np.concatenate([b.reshape(len(b), -1) for b in blocks], axis=1)
    return flat @ q ** np.arange(flat.shape[1], dtype=np.int64)


def generated(gens, dims: tuple[int, ...], q: int) -> set[int]:
    """The group generated by tuples of invertible matrices, one per
    vertex of the given dimensions, as the set of its elements' codes (see
    ``_codes``): the orbit of the identity under right multiplication by
    the generators, grown a level at a time in numpy.  In a finite group
    the inverses are powers of the generators."""
    gens = [[np.array(s[v], dtype=np.int64).reshape(d, d)
             for v, d in enumerate(dims)] for s in gens]
    level = [np.eye(d, dtype=np.int64)[None] for d in dims]
    group = set(_codes(level, q).tolist())
    while gens and len(level[0]):
        images = [np.concatenate([level[v] @ s[v] % q for s in gens])
                  for v in range(len(dims))]
        fresh = []
        for i, code in enumerate(_codes(images, q).tolist()):
            if code not in group:
                group.add(code)
                fresh.append(i)
        level = [image[fresh] for image in images]
    return group


def subspaces(dim: int, q: int, k: int | None = None) -> list[tuple]:
    """Every subspace of F_q^dim (of dimension k, when given), each as its
    reduced row echelon basis: per choice of pivot columns, every value of
    the entries right of a pivot outside the pivot columns."""
    out = []
    for size in range(dim + 1) if k is None else (k,):
        for pivots in itertools.combinations(range(dim), size):
            free = [(i, c) for i, p in enumerate(pivots)
                    for c in range(p + 1, dim) if c not in pivots]
            for values in itertools.product(range(q), repeat=len(free)):
                rows = [[int(c == p) for c in range(dim)] for p in pivots]
                for (i, c), x in zip(free, values):
                    rows[i][c] = x
                out.append(_as_matrix(rows))
    return out


def echelon(rows, q: int) -> tuple:
    """The reduced row echelon basis of the span of ``rows``."""
    reduced, rank = _eliminate(rows, q)
    return _as_matrix(reduced[:rank])


def _reduce(u, basis, q: int) -> tuple[list[int], list[int]]:
    """Coordinates of u along a reduced row echelon basis, which are its
    entries at the pivots, and the residual u - sum_j coords_j row_j.
    Each row is 0 at the other rows' pivots, so the residual is 0 exactly
    when u is in the span, and its entries off the pivots are the
    coordinates of u modulo the span."""
    coords = [u[row.index(1)] for row in basis]   # pivot: first nonzero
    residual = list(u)
    for c, row in zip(coords, basis):
        if c:
            residual = [(x - c * y) % q for x, y in zip(residual, row)]
    return coords, residual


def mat_vec(m: Matrix, v, q: int) -> tuple:
    return tuple(sum(x * y for x, y in zip(row, v)) % q for row in m)


@functools.lru_cache(maxsize=None)
def _lines(n: int, q: int) -> np.ndarray:
    """One nonzero vector per line of F_q^n, as the columns of an
    (n, (q^n - 1)/(q - 1)) array."""
    points = [basis[0] for basis in subspaces(n, q, 1)]
    lines = np.array(points, dtype=np.int64).reshape(len(points), n).T
    lines.setflags(write=False)
    return lines


def _injective(batch: np.ndarray, q: int) -> np.ndarray:
    """Which matrices of a (K, r, c) batch are injective: no line of F_q^c
    is sent to 0.  Surjective is injective on the transposes."""
    images = batch @ _lines(batch.shape[2], q) % q
    return (images != 0).any(axis=1).all(axis=1)


# -- quivers and representations ---------------------------------------------

@dataclass(frozen=True)
class Quiver:
    """A directed graph whose underlying graph is a union of ADE diagrams."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        problems = _ade_violations(self.n_vertices, self.edges)
        if problems:
            raise ValueError("; ".join(problems))


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


@dataclass(frozen=True)
class QuiverRep:
    """Per-vertex dimensions with a matrix over F_q per edge."""

    dims: tuple[int, ...]
    mats: tuple[Matrix, ...]


@dataclass(frozen=True)
class RepClass:
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
        self._aut_cache: dict[tuple, list[tuple[Matrix, ...]]] = {}
        self._generator_cache: dict[tuple, list[tuple[Matrix, ...]]] = {}
        self._product_cache: dict[tuple, HallElement] = {}
        self._matrices: dict[Matrix, Matrix] = {}

    # -- enumeration and classification ---------------------------------

    def _subspaces(self, n: int, k: int) -> list[tuple]:
        if (n, k) not in self._subspace_cache:
            self._subspace_cache[n, k] = subspaces(n, self.q, k)
        return self._subspace_cache[n, k]

    def check_caps(self, dimvec: tuple[int, ...]) -> None:
        """SizeCapError when classifying the representations of dimension
        vector ``dimvec`` would pass a cap.  Both counts grow with every
        entry, so the check at a bound covers every vector below it.  Each
        count is multiplied up only until it passes its cap, so a huge
        vector is rejected as fast as a small one."""
        q = self.q
        exponent = sum(dimvec[a] * dimvec[b] for a, b in self.quiver.edges)
        _check_product("representation enumeration",
                       itertools.repeat(q, exponent), MAX_REP_ENUMERATION)
        # |GL(d)| = prod_i (q^d - q^i); past d = 64 the first factor alone
        # passes the cap, and q^64 - 1 stands in for it
        _check_product("base-change group",
                       (q ** min(d, 64) - q ** i
                        for d in dimvec for i in range(d)),
                       MAX_BASE_CHANGE_GROUP)

    def classes(self, dimvec: tuple[int, ...]) -> list[RepClass]:
        """All iso classes with the given dimension vector, canonically
        ordered: by least member, the representative."""
        dimvec = tuple(dimvec)
        if dimvec in self._classes:
            return self._classes[dimvec]
        self.check_caps(dimvec)
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

    def zero_class(self) -> RepClass:
        return self.classes((0,) * self.quiver.n_vertices)[0]

    # -- morphisms -------------------------------------------------------

    def _hom_basis(self, src: QuiverRep, dst: QuiverRep) -> np.ndarray:
        """A basis of Hom(src, dst), as the rows of a (dim, n) array over
        the n unknowns: the entries of each X_v, vertex by vertex, row by
        row.  Hom is the nullspace of D X_a - X_b S = 0 over the edges."""
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
        reduced, rank = _eliminate(equations, q)
        pivots = [row.index(1) for row in reduced[:rank]]
        basis = []
        for f in sorted(set(range(n)) - set(pivots)):
            vec = [0] * n
            vec[f] = 1
            for row, p in zip(reduced, pivots):
                vec[p] = -row[f] % q
            basis.append(vec)
        return np.array(basis, dtype=np.int64).reshape(len(basis), n)

    def hom_tuples(self, src: QuiverRep, dst: QuiverRep, mono: bool = False,
                   epi: bool = False):
        """All morphism tuples src -> dst (per-vertex matrices commuting
        with the edge maps), only those injective (``mono``) or surjective
        (``epi``) at every vertex when asked.

        The q^dim vectors of the Hom space are enumerated from a basis in
        numpy batches, and the filters run on each batch at once.
        """
        q = self.q
        shapes = [(dst.dims[v], src.dims[v])
                  for v in range(self.quiver.n_vertices)]
        # tuples share one object per distinct matrix, so that the cached
        # automorphism lists hold references, not copies
        shared = self._matrices.setdefault
        ends = list(itertools.accumulate(r * c for r, c in shapes))
        basis = self._hom_basis(src, dst)
        dim, n = basis.shape
        powers = q ** np.arange(dim - 1, -1, -1, dtype=np.int64)
        step = max(1, BATCH_ENTRIES // max(1, n))
        for lo in range(0, q ** dim, step):
            index = np.arange(lo, min(q ** dim, lo + step), dtype=np.int64)
            flat = (index[:, None] // powers % q) @ basis % q
            blocks = [flat[:, at - r * c:at].reshape(len(index), r, c)
                      for at, (r, c) in zip(ends, shapes)]
            keep = np.ones(len(index), dtype=bool)
            for blk, (r, c) in zip(blocks, shapes):
                if mono and c:
                    keep &= _injective(blk, q)
                if epi and r:
                    keep &= _injective(blk.transpose(0, 2, 1), q)
            for mats in zip(*(blk[keep].tolist() for blk in blocks)):
                yield tuple(shared(m, m) for m in map(_as_matrix, mats))

    def aut_elements(self, cls: RepClass) -> list[tuple[Matrix, ...]]:
        """Invertible self-morphisms of the class representative."""
        key = cls.key
        if key not in self._aut_cache:
            self._aut_cache[key] = list(
                self.hom_tuples(cls.rep, cls.rep, mono=True))
        return self._aut_cache[key]

    def aut_generators(self, cls: RepClass) -> list[tuple[Matrix, ...]]:
        """A greedy generating set of Aut: each automorphism not in the
        group generated so far joins the set.  Guard: the generated group
        has exactly ``cls.aut_order`` elements."""
        key = cls.key
        if key not in self._generator_cache:
            dims = cls.dimvec
            auts = self.aut_elements(cls)
            codes = _codes([np.array([g[v] for g in auts], dtype=np.int64)
                            .reshape(len(auts), d, d)
                            for v, d in enumerate(dims)], self.q).tolist()
            gens: list[tuple[Matrix, ...]] = []
            group = generated(gens, dims, self.q)
            for g, code in zip(auts, codes):
                if code not in group:
                    gens.append(g)
                    group = generated(gens, dims, self.q)
            if len(group) != cls.aut_order:
                raise AssertionError(
                    f"generators of Aut {cls.label} give {len(group)} "
                    f"elements, not {cls.aut_order}")
            self._generator_cache[key] = gens
        return self._generator_cache[key]

    # -- Hall numbers and the product ------------------------------------

    def ses_pairs(self, M: RepClass, N: RepClass, E: RepClass) -> list:
        """All (f, g) with f: N -> E injective, g: E -> M surjective,
        im f = ker g at every vertex."""
        q = self.q
        if tuple(a + b for a, b in zip(M.dimvec, N.dimvec)) != E.dimvec:
            return []
        fs = list(self.hom_tuples(N.rep, E.rep, mono=True))
        gs = list(self.hom_tuples(E.rep, M.rep, epi=True)) if fs else []
        # with f injective, g surjective and dim E = dim M + dim N, the
        # sequence is exact exactly when g f = 0
        exact = np.ones((len(fs), len(gs)), dtype=bool)
        for v, (dm, dn, de) in enumerate(zip(M.dimvec, N.dimvec, E.dimvec)):
            F = np.array([f[v] for f in fs],
                         dtype=np.int64).reshape(len(fs), de, dn)
            G = np.array([g[v] for g in gs],
                         dtype=np.int64).reshape(len(gs), dm, de)
            step = max(1, BATCH_ENTRIES // max(1, len(gs) * dm * dn))
            for lo in range(0, len(fs), step):
                gf = np.einsum("gij,fjk->fgik", G, F[lo:lo + step]) % q
                exact[lo:lo + step] &= ~gf.reshape(
                    len(gf), len(gs), dm * dn).any(axis=2)
        return [(fs[i], gs[j]) for i, j in zip(*np.nonzero(exact))]

    def hall_number(self, M: RepClass, N: RepClass, E: RepClass) -> int:
        """|{(f, g) : 0 -> N -f-> E -g-> M -> 0 exact}|, a pair count."""
        return len(self.ses_pairs(M, N, E))

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


def enumerate_reps(quiver: Quiver, dimvec: tuple[int, ...], q: int
                   ) -> list[RepClass]:
    """Iso classes of representations with the given dimension vector."""
    return HallAlgebra(quiver, q).classes(dimvec)
