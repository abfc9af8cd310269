"""Independent references for the benchmark's checks.

Nothing here imports spancalc.  Each expected value comes from a closed
form or from plain ``Fraction`` arithmetic over the benchmark's own
encoding of the inputs, so a defect in the program cannot also sit in the
yardstick it is checked against.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction


def fmt(x: Fraction | int) -> str:
    """The program's documented rational format: reduced "p/q", q >= 1."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def squarefree_split(n: int) -> tuple[int, int]:
    """n = a^2 * b with b squarefree; returns (a, b)."""
    a, b, d = 1, 1, 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
            a *= d
        if n % d == 0:
            n //= d
            b *= d
        d += 1
    return a, b * n


def parse_radical(text: str) -> dict[int, Fraction]:
    """Parse "p/q" or "c*sqrt(b) + ..." into {b: c} without zero terms."""
    out: dict[int, Fraction] = {}
    for term in text.split(" + "):
        coeff, _, rest = term.partition("*sqrt(")
        b = int(rest.rstrip(")")) if rest else 1
        c = Fraction(coeff)
        if c:
            out[b] = out.get(b, Fraction(0)) + c
    return out


# -- Fock space ---------------------------------------------------------------

def fock_ccr_report(n: int) -> dict:
    """stdout of ``fock --truncate n --check-ccr --json``.

    |E_<=n| = sum 1/k!.  On the truncated space A*A = diag(k) and AA* =
    diag(k+1) except at k = n, where z * z^n leaves the space; so
    AA* - A*A - 1 vanishes off the single entry (n, n) = -(n + 1).
    """
    card = Fraction(0)
    fact = 1
    for k in range(n + 1):
        fact *= max(k, 1)
        card += Fraction(1, fact)
    return {"truncation": n, "cardinality": fmt(card),
            "ccr": {"pass": True, "block": n,
                    "boundary": [[n, n, fmt(-(n + 1))]]}}


# -- cyclic actions and equivariant spans ---------------------------------------

class CyclicAction:
    """Z/k acting on points 0..n-1; ``table[g][p]`` is g applied to p."""

    def __init__(self, table: list[list[int]]):
        self.table = table
        self.k = len(table)
        self.n = len(table[0])

    @staticmethod
    def random(rng: random.Random, k: int, n: int) -> "CyclicAction":
        """A random permutation of order dividing k, as the generator's image."""
        lengths = [d for d in range(1, k + 1) if k % d == 0]
        points = list(range(n))
        rng.shuffle(points)
        sigma = list(range(n))
        while points:
            length = rng.choice([d for d in lengths if d <= len(points)])
            cycle = [points.pop() for _ in range(length)]
            for i, p in enumerate(cycle):
                sigma[p] = cycle[(i + 1) % length]
        table = [list(range(n))]
        for _ in range(k - 1):
            table.append([sigma[p] for p in table[-1]])
        return CyclicAction(table)

    def orbit_reps(self) -> list[int]:
        """Minimal point of each orbit, increasing."""
        return sorted({min(row[p] for row in self.table)
                       for p in range(self.n)})

    def orbit_rep(self, p: int) -> int:
        return min(row[p] for row in self.table)

    def stabilizer(self, p: int) -> int:
        return sum(1 for row in self.table if row[p] == p)

    def groupoid_json(self) -> dict:
        """The action groupoid: morphism g * n + p is (g, p): p -> g p."""
        k, n = self.k, self.n
        compose = []
        for g in range(k):
            for p in range(n):
                for h in range(k):
                    compose.append([g * n + p, h * n + self.table[g][p],
                                    (g + h) % k * n + p])
        return {
            "objects": n,
            "morphisms": [{"src": p, "tgt": self.table[g][p]}
                          for g in range(k) for p in range(n)],
            "identity": list(range(n)),
            "compose": compose,
            "inverse": [(k - g) % k * n + self.table[g][p]
                        for g in range(k) for p in range(n)],
        }


class EquivariantSpan:
    """Apex: an invariant set of (left point, right point) pairs."""

    def __init__(self, left: CyclicAction, right: CyclicAction,
                 pairs: list[tuple[int, int]]):
        self.left = left
        self.right = right
        self.pairs = pairs
        index = {pair: i for i, pair in enumerate(pairs)}
        self.apex = CyclicAction([
            [index[(lrow[y], rrow[x])] for y, x in pairs]
            for lrow, rrow in zip(left.table, right.table)])

    @staticmethod
    def pair_orbits(left: CyclicAction, right: CyclicAction
                    ) -> list[list[tuple[int, int]]]:
        """Orbits of the diagonal action on (left point, right point) pairs."""
        orbits: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for y in range(left.n):
            for x in range(right.n):
                rep = min((lrow[y], rrow[x])
                          for lrow, rrow in zip(left.table, right.table))
                orbits.setdefault(rep, []).append((y, x))
        return [orbits[rep] for rep in sorted(orbits)]

    @staticmethod
    def random(rng: random.Random, left: CyclicAction,
               right: CyclicAction) -> "EquivariantSpan":
        """Each orbit of pairs joins the apex with probability 1/2."""
        orbits = EquivariantSpan.pair_orbits(left, right)
        chosen = [o for o in orbits if rng.random() < 0.5] or orbits[:1]
        return EquivariantSpan(left, right, sorted(p for o in chosen for p in o))

    def span_json(self) -> dict:
        k = self.apex.k
        n_a, n_l, n_r = self.apex.n, self.left.n, self.right.n
        return {
            "apex": self.apex.groupoid_json(),
            "left": {"objects": [y for y, _x in self.pairs],
                     "morphisms": [g * n_l + self.pairs[m % n_a][0]
                                   for g in range(k) for m in range(n_a)]},
            "right": {"objects": [x for _y, x in self.pairs],
                      "morphisms": [g * n_r + self.pairs[m % n_a][1]
                                    for g in range(k) for m in range(n_a)]},
            "left_codomain": self.left.groupoid_json(),
            "right_codomain": self.right.groupoid_json(),
        }

    def matrix(self) -> list[list[Fraction]]:
        """alpha = 0: entry (y, x) sums |Stab x| / |Stab a| over apex orbits."""
        rows = {r: i for i, r in enumerate(self.left.orbit_reps())}
        cols = {c: j for j, c in enumerate(self.right.orbit_reps())}
        out = [[Fraction(0)] * len(cols) for _ in rows]
        for a in self.apex.orbit_reps():
            y, x = self.pairs[a]
            out[rows[self.left.orbit_rep(y)]][cols[self.right.orbit_rep(x)]] += \
                Fraction(self.right.stabilizer(x), self.apex.stabilizer(a))
        return out

    def left_counts(self) -> list[int]:
        counts = [0] * self.left.n
        for y, _x in self.pairs:
            counts[y] += 1
        return counts


def pullback_weights(inner: EquivariantSpan) -> list[int]:
    """Per point y of the inner span's target: the objects that an outer
    apex point over y adds to the literal weak pullback, i.e. the pairs
    (b, h) of an inner apex point b and an isomorphism h with h y = left(b)."""
    counts = inner.left_counts()
    return [sum(counts[row[y]] for row in inner.left.table)
            for y in range(inner.left.n)]


def mat_mul(a: list[list[Fraction]], b: list[list[Fraction]]
            ) -> list[list[Fraction]]:
    return [[sum((a[i][m] * b[m][j] for m in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def rescale(m0: list[list[Fraction]], aut_rows: list[int], aut_cols: list[int],
            alpha: Fraction) -> list[list[dict[int, Fraction]]]:
    """|Aut y|^alpha * M0 * |Aut x|^-alpha for alpha in {0, 1/2, 1}, with
    each entry as {squarefree b: coefficient of sqrt(b)}."""
    out = []
    for ay, row in zip(aut_rows, m0):
        line = []
        for ax, v in zip(aut_cols, row):
            if not v:
                line.append({})
            elif alpha == 0:
                line.append({1: v})
            elif alpha == 1:
                line.append({1: v * ay / ax})
            else:   # sqrt(ay / ax) = sqrt(ay * ax) / ax
                a, b = squarefree_split(ay * ax)
                line.append({b: v * a / ax})
        out.append(line)
    return out


# -- the A2 Hecke algebra --------------------------------------------------------

HECKE_WORDS = {"e": "", "P": "P", "L": "L", "PL": "PL", "LP": "LP",
               "PLP": "PLP"}


def hecke_s3_constants(q: int) -> dict:
    """c[u][v][w] with T_u T_v = sum_w c T_w in the Iwahori-Hecke algebra of
    S_3: T_s^2 = (q - 1) T_s + q, and T_s T_w = T_sw when lengths add."""
    gens = {"P": (1, 0, 2), "L": (0, 2, 1)}

    def compose(a, b):
        return tuple(a[i] for i in b)

    def element(word):
        out = (0, 1, 2)
        for ch in word:
            out = compose(out, gens[ch])
        return out

    def length(p):
        return sum(1 for i, j in itertools.combinations(range(3), 2)
                   if p[i] > p[j])

    label = {element(w): lbl for lbl, w in HECKE_WORDS.items()}
    tensor = {}
    for u, word in HECKE_WORDS.items():
        tensor[u] = {}
        for v in HECKE_WORDS:
            vec = {element(HECKE_WORDS[v]): Fraction(1)}
            for ch in reversed(word):
                nxt: dict = {}
                for w, c in vec.items():
                    sw = compose(gens[ch], w)
                    if length(sw) > length(w):
                        nxt[sw] = nxt.get(sw, 0) + c
                    else:
                        nxt[w] = nxt.get(w, 0) + (q - 1) * c
                        nxt[sw] = nxt.get(sw, 0) + q * c
                vec = nxt
            tensor[u][v] = {label[w]: fmt(c) for w, c in vec.items() if c}
    return {"q": q, "labels": list(HECKE_WORDS), "tensor": tensor}


# -- the Hall algebra of A2 -------------------------------------------------------

def _rank(rows: list[list[int]], q: int) -> int:
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    n_cols = len(rows[0]) if rows else 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] % q),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], q - 2, q)
        rows[rank] = [x * inv % q for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % q:
                f = rows[r][col]
                rows[r] = [(x - f * y) % q for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _span(vectors, dim: int, q: int) -> frozenset:
    space = {(0,) * dim}
    for v in vectors:
        space = {tuple((w[i] + c * v[i]) % q for i in range(dim))
                 for w in space for c in range(q)}
    return frozenset(space)


def _subspaces(dim: int, q: int) -> list[frozenset]:
    vectors = list(itertools.product(range(q), repeat=dim))
    return list({_span(vs, dim, q)
                 for r in range(dim + 1)
                 for vs in itertools.combinations(vectors, r)})


def _dim(space: frozenset, q: int) -> int:
    d = 0
    while q ** d < len(space):
        d += 1
    return d


def a2_class_order(d0: int, d1: int, q: int) -> list[int]:
    """Ranks of the classes of dimension vector (d0, d1) in label order.

    A representation of 0 -> 1 is one d1 x d0 matrix; its class is fixed by
    the rank, and classes are ordered by their least matrix (as row tuples,
    entries in 0..q-1), the program's documented canonical order.
    """
    least: dict[int, tuple] = {}
    for flat in itertools.product(range(q), repeat=d0 * d1):
        m = tuple(tuple(flat[r * d0:(r + 1) * d0]) for r in range(d1))
        r = _rank([list(row) for row in m], q)
        if r not in least or m < least[r]:
            least[r] = m
    return sorted(least, key=least.get)


def hall_a2_products(q: int, dmax: tuple[int, int]) -> dict:
    """[M] . [N] = sum_E F^E_{MN} [E], F counting subrepresentations U of E
    with U ~ N and E / U ~ M; keys are the program's class labels."""
    box = [(a, b) for a in range(dmax[0] + 1) for b in range(dmax[1] + 1)]
    order = {d: a2_class_order(*d, q) for d in box}

    def label(d, r):
        return f"d{d[0]},{d[1]}#{order[d].index(r)}"

    subspaces = {d: _subspaces(d, q) for d in range(max(dmax) + 1)}
    products = {}
    for dm in box:
        for dn in box:
            de = (dm[0] + dn[0], dm[1] + dn[1])
            if de[0] > dmax[0] or de[1] > dmax[1]:
                continue
            for rm in order[dm]:
                for rn in order[dn]:
                    entry = {}
                    for re in order[de]:
                        count = _count_subreps(de, re, dn, rn, rm, q,
                                               subspaces)
                        if count:
                            entry[label(de, re)] = fmt(count)
                    products[f"{label(dm, rm)}*{label(dn, rn)}"] = entry
    return products


def _count_subreps(de, re, dn, rn, rm, q, subspaces) -> int:
    d0, d1 = de

    def image(vectors):
        # E's map is the d1 x d0 matrix with 1 at (i, i) for i < re
        return [tuple(v[i] if i < re and i < d0 else 0 for i in range(d1))
                for v in vectors]

    full_image = _span(image(list(itertools.product(range(q), repeat=d0))),
                       d1, q)
    count = 0
    for u0 in subspaces[d0]:
        if _dim(u0, q) != dn[0]:
            continue
        img = _span(image(u0), d1, q)
        for u1 in subspaces[d1]:
            if _dim(u1, q) != dn[1] or not img <= u1:
                continue
            quotient_rank = _dim(_span(list(full_image) + list(u1), d1, q),
                                 q) - dn[1]
            if _dim(img, q) == rn and quotient_rank == rm:
                count += 1
    return count
