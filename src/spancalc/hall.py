"""Hall algebras of simply-laced quivers over a prime field.

Representations assign an F_q vector space to each vertex and a matrix to
each edge; isomorphism classes are orbits of the base-change group
prod_v GL(d_v, F_q).  The Hall number counts pairs (f, g) forming a short
exact sequence 0 -> N -> E -> M -> 0 by brute-force enumeration of
morphism tuples, and the product

    [M] . [N] = sum_E  hall_number(M, N, E) / (|Aut M| |Aut N|)  [E]

is computed in exact rationals.  A second, span-based route goes through
the groupoid of short exact sequences: the full inverse image over
((M, N), E) is equivalent to the groupoid of subrepresentations W of E
with W isomorphic to N and E/W isomorphic to M, acted on by Aut(E); its
cardinality times |Aut E| recovers the same coefficient via the
orbit-stabilizer machinery, with no pair counting involved.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .actions import is_prime, orbit_table
from .groupoid import SizeCapError

MAX_REP_ENUMERATION = 10 ** 6
MAX_BASE_CHANGE_GROUP = 10 ** 5

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


def mat_identity(n: int) -> Matrix:
    return tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))


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


def gl_matrices(n: int, q: int) -> list[Matrix]:
    return [m for m in all_matrices(n, n, q) if mat_rank(m, q) == n]


def span_of(vectors, dim: int, q: int) -> tuple:
    """All elements of the subspace spanned by the vectors, sorted."""
    space = {(0,) * dim}
    for v in vectors:
        add = [tuple((c * x) % q for x in v) for c in range(1, q)]
        current = list(space)
        for w in current:
            for a in add:
                u = tuple((wi + ai) % q for wi, ai in zip(w, a))
                if u not in space:
                    space.add(u)
                    current.append(u)
    return tuple(sorted(space))


def subspaces(dim: int, q: int) -> list[tuple]:
    """Every subspace of F_q^dim, each as its sorted tuple of elements."""
    vectors = [v for v in itertools.product(range(q), repeat=dim)
               if any(v)]
    seen = {span_of((), dim, q)}
    frontier = [span_of((), dim, q)]
    while frontier:
        nxt = []
        for space in frontier:
            for v in vectors:
                if v not in space:
                    bigger = span_of(list(space) + [v], dim, q)
                    if bigger not in seen:
                        seen.add(bigger)
                        nxt.append(bigger)
        frontier = nxt
    return sorted(seen, key=lambda s: (len(s), s))


def basis_of(space: tuple, dim: int, q: int) -> list[tuple]:
    basis: list[tuple] = []
    spanned = {(0,) * dim}
    for v in space:
        if v not in spanned:
            basis.append(v)
            spanned = set(span_of(basis, dim, q))
    return basis


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
    """CLI names: a1; a2; a3:<orientation> with orientation arrows like '><'."""
    name = name.strip().lower()
    if name == "a1":
        return Quiver(1, ())
    if name == "a2":
        return Quiver(2, ((0, 1),))
    if name.startswith("a3"):
        _, _, orient = name.partition(":")
        orient = orient or ">>"
        if len(orient) != 2 or any(c not in "><" for c in orient):
            raise ValueError("a3 orientation must be two of '>' or '<'")
        edges = []
        for i, c in enumerate(orient):
            edges.append((i, i + 1) if c == ">" else (i + 1, i))
        return Quiver(3, tuple(edges))
    raise ValueError(f"unknown quiver name {name!r} (use a1, a2, a3:<dirs>)")


@dataclass(frozen=True)
class QuiverRep:
    """Per-vertex dimensions with a matrix over F_q per edge."""

    dims: tuple[int, ...]
    mats: tuple[Matrix, ...]

    def encode(self) -> tuple:
        return (self.dims, self.mats)


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
        self._gl_cache: dict[int, list[Matrix]] = {}
        self._subspace_cache: dict[int, list[tuple]] = {}
        self._aut_cache: dict[tuple, list[tuple[Matrix, ...]]] = {}
        self._product_cache: dict[tuple, HallElement] = {}

    # -- enumeration and classification ---------------------------------

    def _gl(self, n: int) -> list[Matrix]:
        if n not in self._gl_cache:
            self._gl_cache[n] = gl_matrices(n, self.q)
        return self._gl_cache[n]

    def _subspaces(self, n: int) -> list[tuple]:
        if n not in self._subspace_cache:
            self._subspace_cache[n] = subspaces(n, self.q)
        return self._subspace_cache[n]

    def classes(self, dimvec: tuple[int, ...]) -> list[RepClass]:
        """All iso classes with the given dimension vector, canonically ordered."""
        dimvec = tuple(dimvec)
        if dimvec in self._classes:
            return self._classes[dimvec]
        q = self.q
        n_reps = 1
        for a, b in self.quiver.edges:
            n_reps *= q ** (dimvec[a] * dimvec[b])
        if n_reps > MAX_REP_ENUMERATION:
            raise SizeCapError("representation enumeration", n_reps)
        group_size = 1
        for d in dimvec:
            group_size *= len(self._gl(d))
        if group_size > MAX_BASE_CHANGE_GROUP:
            raise SizeCapError("base-change group", group_size)

        gls = [self._gl(d) for d in dimvec]
        group = list(itertools.product(*gls))
        group_inv = [tuple(mat_inv(g, q) for g in el) for el in group]

        shapes = [(dimvec[b], dimvec[a]) for a, b in self.quiver.edges]
        all_mats = [list(all_matrices(r, c, q)) for r, c in shapes]
        orbits: list[tuple[tuple, set]] = []   # (canonical encoding, members)
        member_of: dict = {}
        for mats in itertools.product(*all_mats):
            enc = QuiverRep(dimvec, tuple(mats)).encode()
            if enc in member_of:
                continue
            orbit = set()
            for el, el_inv in zip(group, group_inv):
                shifted = tuple(
                    mat_mul(mat_mul(el[b], m, q), el_inv[a], q)
                    for m, (a, b) in zip(mats, self.quiver.edges))
                orbit.add(QuiverRep(dimvec, shifted).encode())
            orbits.append((min(orbit), orbit))
            for member in orbit:
                member_of[member] = len(orbits) - 1
        orbits.sort(key=lambda pair: pair[0])
        classes = [
            RepClass(dimvec, i, QuiverRep(canon[0], canon[1]),
                     group_size // len(orbit), len(orbit))
            for i, (canon, orbit) in enumerate(orbits)]
        classify = {}
        for i, (_canon, orbit) in enumerate(orbits):
            for member in orbit:
                classify[member] = classes[i]
        self._classes[dimvec] = classes
        self._classify[dimvec] = classify
        return classes

    def classify(self, rep: QuiverRep) -> RepClass:
        self.classes(rep.dims)
        return self._classify[tuple(rep.dims)][rep.encode()]

    def zero_class(self) -> RepClass:
        return self.classes((0,) * self.quiver.n_vertices)[0]

    # -- morphisms -------------------------------------------------------

    def hom_tuples(self, src: QuiverRep, dst: QuiverRep):
        """All morphism tuples src -> dst (per-vertex matrices commuting
        with the edge maps)."""
        q = self.q
        per_vertex = [list(all_matrices(dst.dims[v], src.dims[v], q))
                      for v in range(self.quiver.n_vertices)]
        for combo in itertools.product(*per_vertex):
            ok = True
            for ei, (a, b) in enumerate(self.quiver.edges):
                width = src.dims[a]
                if mat_mul(dst.mats[ei], combo[a], q, cols=width) != \
                        mat_mul(combo[b], src.mats[ei], q, cols=width):
                    ok = False
                    break
            if ok:
                yield combo

    def aut_elements(self, cls: RepClass) -> list[tuple[Matrix, ...]]:
        """Invertible self-morphisms of the class representative."""
        key = cls.key
        if key not in self._aut_cache:
            rep = cls.rep
            auts = [combo for combo in self.hom_tuples(rep, rep)
                    if all(mat_rank(m, self.q) == rep.dims[v]
                           for v, m in enumerate(combo))]
            self._aut_cache[key] = auts
        return self._aut_cache[key]

    # -- Hall numbers and the product ------------------------------------

    def ses_pairs(self, M: RepClass, N: RepClass, E: RepClass) -> list:
        """All (f, g) with f: N -> E injective, g: E -> M surjective,
        im f = ker g at every vertex."""
        q = self.q
        nv = self.quiver.n_vertices
        if tuple(a + b for a, b in zip(M.dimvec, N.dimvec)) != E.dimvec:
            return []
        fs = [f for f in self.hom_tuples(N.rep, E.rep)
              if all(mat_rank(f[v], q) == N.dimvec[v] for v in range(nv))]
        gs = [g for g in self.hom_tuples(E.rep, M.rep)
              if all(mat_rank(g[v], q) == M.dimvec[v] for v in range(nv))]
        zero = tuple(
            tuple(tuple(0 for _ in range(N.dimvec[v]))
                  for _ in range(M.dimvec[v]))
            for v in range(nv))
        pairs = []
        for f in fs:
            for g in gs:
                if all(mat_mul(g[v], f[v], q, cols=N.dimvec[v]) == zero[v]
                       for v in range(nv)):
                    pairs.append((f, g))
        return pairs

    def hall_number(self, M: RepClass, N: RepClass, E: RepClass) -> int:
        """|{(f, g) : 0 -> N -f-> E -g-> M -> 0 exact}| by brute force."""
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
        """Edge-stable tuples of subspaces of the representative of E."""
        q = self.q
        per_vertex = [
            [s for s in self._subspaces(E.dimvec[v])
             if len(s) == q ** dimvec[v]]
            for v in range(self.quiver.n_vertices)]
        out = []
        for combo in itertools.product(*per_vertex):
            stable = True
            for ei, (a, b) in enumerate(self.quiver.edges):
                target = set(combo[b])
                for vec in combo[a]:
                    img = tuple(sum(E.rep.mats[ei][r][c] * vec[c]
                                    for c in range(E.dimvec[a])) % q
                                for r in range(E.dimvec[b]))
                    if img not in target:
                        stable = False
                        break
                if not stable:
                    break
            if stable:
                out.append(combo)
        return out

    def sub_and_quotient(self, E: RepClass, spaces: tuple
                         ) -> tuple[QuiverRep, QuiverRep]:
        """Restrict the representative of E to the subspaces, and quotient."""
        q = self.q
        nv = self.quiver.n_vertices
        sub_dims = []
        bases = []
        t_mats = []
        t_invs = []
        for v in range(nv):
            d = E.dimvec[v]
            basis = basis_of(spaces[v], d, q)
            sub_dims.append(len(basis))
            full = list(basis)
            for unit in mat_identity(d):
                if mat_rank(tuple(full) + (unit,), q) > len(full):
                    full.append(unit)
            T = tuple(tuple(full[c][r] for c in range(d)) for r in range(d))
            bases.append(basis)
            t_mats.append(T)
            t_invs.append(mat_inv(T, q))
        sub_mats = []
        quo_mats = []
        for ei, (a, b) in enumerate(self.quiver.edges):
            conjugated = mat_mul(mat_mul(t_invs[b], E.rep.mats[ei], q),
                                 t_mats[a], q)
            ka, kb = sub_dims[a], sub_dims[b]
            da, db = E.dimvec[a], E.dimvec[b]
            for r in range(kb, db):
                for c in range(ka):
                    if conjugated[r][c] % q:
                        raise AssertionError("subspaces are not edge-stable")
            sub_mats.append(tuple(row[:ka] for row in conjugated[:kb]))
            quo_mats.append(tuple(row[ka:da] for row in conjugated[kb:db]))
        quo_dims = tuple(E.dimvec[v] - sub_dims[v] for v in range(nv))
        return (QuiverRep(tuple(sub_dims), tuple(sub_mats)),
                QuiverRep(quo_dims, tuple(quo_mats)))

    def product_via_span(self, M: RepClass, N: RepClass) -> HallElement:
        """[M] . [N] through the short-exact-sequence span at alpha = 1.

        The coefficient of [E] is |Aut E| times the groupoid cardinality of
        the full inverse image over ((M, N), E), computed as the weak
        quotient of the matching subrepresentations of E under Aut(E):
        orbits and stabilizer orders, never a pair count.
        """
        q = self.q
        nv = self.quiver.n_vertices
        total = tuple(a + b for a, b in zip(M.dimvec, N.dimvec))
        out = HallElement()
        for E in self.classes(total):
            matching = []
            for spaces in self.subrep_spaces(E, N.dimvec):
                sub, quo = self.sub_and_quotient(E, spaces)
                if self.classify(sub).index == N.index and \
                        self.classify(quo).index == M.index:
                    matching.append(spaces)
            if not matching:
                continue
            auts = self.aut_elements(E)
            space_index = {s: i for i, s in enumerate(matching)}
            act = np.empty((len(auts), len(matching)), dtype=np.int64)
            for gi, g in enumerate(auts):
                for si, spaces in enumerate(matching):
                    image = tuple(
                        tuple(sorted(
                            tuple(sum(g[v][r][c] * vec[c]
                                      for c in range(E.dimvec[v])) % q
                                  for r in range(E.dimvec[v]))
                            for vec in spaces[v]))
                        for v in range(nv))
                    act[gi, si] = space_index[image]
            out[E.key] = E.aut_order * orbit_table(act).cardinality
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
