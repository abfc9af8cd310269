"""Oscillator spans over E, the groupoid of finite sets, as normal-ordered
monomials.

A Fock span is a dict ``{(k, l): c}``, read as the operator c a*^k a^l.
The monomial a*^k a^l is the span of finite sets with k points marked on
the left and l on the right (BHW section 3): one apex class
``(u + k, u + l, u)`` for every number u >= 0 of unmarked points, with
left foot u + k, right foot u + l and automorphism group S_u.  A stands
for a, A* for a*.  No truncation enters the algebra.

Composing two monomials glues the l1 right-marked points of the first
with the k2 left-marked points of the second.  It lists one way per
partial matching of r pairs, which is Wick's rule:
a*^k1 a^l1 . a*^k2 a^l2 = sum_r C(l1, r) C(k2, r) r! a*^(k1+k2-r) a^(l1+l2-r)
(Baez-Dolan, *From finite sets to Feynman diagrams*).  So a a* = a* a + 1
holds exactly, as an identity of dicts.  No permutation is listed.  The
generic weak pullback on the groupoid of permutations is the test oracle.

Truncation at N enters only where a matrix is read: ``entries`` and
``matrix`` list the classes whose feet are at most N.

Stuff types are lists of classes over E, each an ``(n, |Aut|)`` pair.  Their
degroupoidified vectors are exponential generating functions with exact
rational coefficients.  Truncation effects are confined to the last row and
column and are reported, never silently dropped.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .exact import aut_weight, check_digits

FockSpan = dict   # (k, l) -> c, the operator c a*^k a^l

IDENTITY: FockSpan = {(0, 0): 1}
ANNIHILATION: FockSpan = {(0, 1): 1}   # matrix d/dz
CREATION: FockSpan = {(1, 0): 1}       # matrix z, the adjoint of A
FIELD: FockSpan = {(0, 1): 1, (1, 0): 1}   # A + A*, matrix tridiagonal


def add_spans(s: FockSpan, t: FockSpan, coefficient: int = 1) -> FockSpan:
    """s + coefficient * t, the coefficient as a discrete groupoid."""
    out = dict(s)
    for m, c in t.items():
        out[m] = out.get(m, 0) + coefficient * c
    return out


def compose_spans(t: FockSpan, s: FockSpan) -> FockSpan:
    """Composite span "s then t", by Wick's rule: the l1 right-marked
    points of a t-monomial a*^k1 a^l1 and the k2 left-marked points of an
    s-monomial a*^k2 a^l2 glue along r matched pairs in
    C(l1, r) C(k2, r) r! ways, leaving a*^(k1+k2-r) a^(l1+l2-r)."""
    out: FockSpan = {}
    for (k1, l1), c1 in t.items():
        for (k2, l2), c2 in s.items():
            for r in range(min(l1, k2) + 1):
                m = (k1 + k2 - r, l1 + l2 - r)
                out[m] = out.get(m, 0) + \
                    c1 * c2 * math.comb(l1, r) * math.perm(k2, r)
    return out


def span_power(s: FockSpan, k: int) -> FockSpan:
    out = dict(IDENTITY)
    for _ in range(k):
        out = compose_spans(s, out)
    return out


def normal_ordered_power(n: int) -> FockSpan:
    """:(A + A*)^n: = sum_j C(n, j) A*^j A^(n-j), all creations left."""
    if n < 0:
        raise ValueError(f"normal-ordered power {n} is negative")
    return {(j, n - j): math.comb(n, j) for j in range(n + 1)}


def entries(s: FockSpan, N: int, alpha: Fraction | int = 0) -> dict:
    """The matrix entries of s at truncation N, by (x, y): each class
    (u + k, u + l, u) of c a*^k a^l with u <= N - max(k, l) adds
    ``aut_weight(y!, x!, u!, alpha)`` times c."""
    out: dict = {}
    f = math.factorial
    for (k, l), c in s.items():
        for u in range(N - max(k, l) + 1):
            x, y = u + k, u + l
            out[x, y] = out.get((x, y), 0) + \
                c * aut_weight(f(y), f(x), f(u), alpha)
    return out


def matrix(s: FockSpan, N: int, alpha: Fraction | int = 0) -> list[list]:
    """The dense (N + 1) x (N + 1) matrix of s, rows x and columns y."""
    out = [[Fraction(0)] * (N + 1) for _ in range(N + 1)]
    for (x, y), v in entries(s, N, alpha).items():
        out[x][y] += v
    return out


def e_partial_sum(N: int) -> Fraction:
    """Sum of 1/n! for n <= N, the cardinality of E truncated at N, as
    (sum of N!/n!) / N!, the numerator by Horner's rule."""
    numerator = 1
    for k in range(1, N + 1):
        numerator = numerator * k + 1
    return Fraction(numerator, math.factorial(N))


def printed_digits(N: int) -> int:
    """The decimal digits of 10 * N!, which bound every number a run at
    truncation N prints: each has a denominator dividing N! and lies below
    10 in size, or is a boundary entry -(N + 1).  From log-gamma, so that
    any N is cheap; N past 10^300 is taken as 10^300."""
    return int(math.lgamma(min(N, 10 ** 300) + 1) / math.log(10)) + 2


def check_size(N: int, ccr: bool, two_colored: bool) -> None:
    """Refuse a run at truncation N before any work: when its numbers would
    have more digits than the interpreter prints, or when the digits of the
    exact values it forms pass the size cap.  Those values are the N + 1
    terms of the cardinality, the N entries each of the truncated A and A*
    and the N + 1 of their commutator, the (N + 1)(N + 2)/2 classes of the
    two-colored stuff type and one class of psi_n, each of at most
    ``printed_digits(N)`` digits; ``exact.check_digits`` applies both
    rules."""
    terms = N + 2 + (3 * N + 1) * ccr + (N + 1) * (N + 2) // 2 * two_colored
    digits = printed_digits(N)
    check_digits(f"fock --truncate {N}", digits, terms * digits)


class PowerSeriesVector(NamedTuple):
    """Coefficients c_0 .. c_N of a truncated power series, exact."""

    coefficients: tuple[Fraction, ...]

    def __str__(self) -> str:
        parts = []
        for n, c in enumerate(self.coefficients):
            z = "" if n == 0 else (" z" if n == 1 else f" z^{n}")
            parts.append(f"{c.numerator}/{c.denominator}{z}")
        return " + ".join(parts)


def generating_function(stuff: list[tuple[int, int]], N: int,
                        alpha: Fraction | int = 0) -> PowerSeriesVector:
    """The vector of a stuff type over E truncated at N: each class
    (n, |Aut|) adds |Aut n|^alpha / |Aut| to the coefficient of z^n."""
    coefficients = [Fraction(0)] * (N + 1)
    for n, aut in stuff:
        coefficients[n] += aut_weight(1, math.factorial(n), aut, alpha)
    return PowerSeriesVector(tuple(coefficients))


def psi_n(n: int, N: int) -> list[tuple[int, int]]:
    """The stuff type "being an n-element set": one class with n! automorphisms."""
    if not 0 <= n <= N:
        raise ValueError(f"n={n} is not between 0 and the truncation "
                         f"bound {N}")
    return [(n, math.factorial(n))]


def two_colored_stuff(N: int) -> list[tuple[int, int]]:
    """Finite sets with a 2-coloring, one class per n and number k of
    points of the first color, with k! (n - k)! automorphisms; generating
    function has entries 2^n/n!."""
    return [(n, math.factorial(k) * math.factorial(n - k))
            for n in range(N + 1) for k in range(n + 1)]


class CcrReport(NamedTuple):
    ok: bool
    block: int
    discrepancies: tuple[tuple[int, int, Fraction], ...]

    def __str__(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        lines = [f"{status}: AA* - A*A = 1 on block {{0..{self.block - 1}}}^2"]
        for i, j, v in self.discrepancies:
            where = ("truncation boundary" if self.block in (i, j)
                     else "inside the block")
            lines.append(f"  {where} ({i},{j}): AA* - A*A - 1 = {v}")
        return "\n".join(lines)


def verify_ccr(N: int) -> CcrReport:
    """Check a a* = a* a + 1 exactly, as spans, and report it on the
    matrices truncated at N.

    The report multiplies the truncated matrices of A and A*, each formed
    once.  There AA* - A*A - 1 vanishes on the block {0..N-1}^2 and reads
    -(N + 1) at (N, N), where the truncation cuts off A*'s step to N + 1;
    every nonzero entry is listed.
    """
    if N < 2:
        raise ValueError("need N >= 2 to see the commutation relation")
    exact = compose_spans(ANNIHILATION, CREATION) == \
        add_spans(compose_spans(CREATION, ANNIHILATION), IDENTITY)
    a, astar = entries(ANNIHILATION, N), entries(CREATION, N)
    diff = {(n, n): -1 for n in range(N + 1)}
    for left, right, sign in ((a, astar, 1), (astar, a, -1)):
        rows: dict = {}
        for (m, y), v in right.items():
            rows.setdefault(m, []).append((y, v))
        for (x, m), v in left.items():
            for y, w in rows.get(m, ()):
                diff[x, y] = diff.get((x, y), 0) + sign * v * w
    discrepancies = tuple(sorted((i, j, Fraction(v))
                                 for (i, j), v in diff.items() if v != 0))
    ok = exact and all(N in (i, j) for i, j, _v in discrepancies)
    return CcrReport(ok, N, discrepancies)
