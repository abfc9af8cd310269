"""Oscillator spans over E, the groupoid of finite sets, in closed form.

Every Fock span here is a word in the annihilation span A and the creation
span A* (BHW section 3), and each apex class of such a word is a finite set
with some marked points.  A class is ``(x, y, u)``: x the size of its left
foot, y of its right foot, and u the number of unmarked points.  Its
automorphism group is S_u, which acts on both feet and fixes the x - u and
y - u marked points; as S_1 = S_0, u = 1 is written u = 0.  A span is a dict
from classes to their multiplicities, over E truncated at N.

Composing two words only lists the ways their marked points glue over the
middle foot m: one way per double coset S_u1 \\ S_m / S_u2, that is per
partial matching of the a = m - u1 and b = m - u2 marked points (Baez-Dolan,
*From finite sets to Feynman diagrams*).  No permutation is listed; the
generic weak pullback on the groupoid of permutations is the test oracle.

Stuff types are lists of classes over E, each an ``(n, |Aut|)`` pair; their
degroupoidified vectors are exponential generating functions with exact
rational coefficients.  Truncation effects are confined to the last row and
column and are reported, never silently dropped.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .exact import aut_weight, check_digits

FockSpan = dict   # (x, y, u) -> multiplicity


def _apex_class(x: int, y: int, u: int) -> tuple[int, int, int]:
    return (x, y, 0 if u == 1 else u)


def identity_span(N: int) -> FockSpan:
    return {_apex_class(n, n, n): 1 for n in range(N + 1)}


def annihilation_span(N: int) -> FockSpan:
    """Left leg the inclusion, right leg "add one element"; matrix d/dz."""
    return {_apex_class(n, n + 1, n): 1 for n in range(N)}


def adjoint(s: FockSpan) -> FockSpan:
    return {(y, x, u): k for (x, y, u), k in s.items()}


def creation_span(N: int) -> FockSpan:
    """The adjoint of annihilation; matrix is multiplication by z."""
    return adjoint(annihilation_span(N))


def add_spans(s: FockSpan, t: FockSpan, coefficient: int = 1) -> FockSpan:
    """s + coefficient * t, the coefficient as a discrete groupoid."""
    out = dict(s)
    for c, k in t.items():
        out[c] = out.get(c, 0) + coefficient * k
    return out


def compose_spans(t: FockSpan, s: FockSpan) -> FockSpan:
    """Composite span "s then t", over t's right foot and s's left foot.

    A t-class (x, m, u1) and an s-class (m, y, u2) glue along r matched
    pairs of their a = m - u1 and b = m - u2 marked points, in
    C(a, r) C(b, r) r! ways; the unmatched marked points of each side fall
    on the other side's unmarked points, so a + b - r <= m, and
    u1 + u2 - m + r points stay unmarked.
    """
    s_by_middle: dict[int, list[tuple[int, int, int]]] = {}
    for (m, y, u2), k2 in s.items():
        s_by_middle.setdefault(m, []).append((y, u2, k2))
    out: FockSpan = {}
    for (x, m, u1), k1 in t.items():
        a = m - u1
        for y, u2, k2 in s_by_middle.get(m, ()):
            b = m - u2
            for r in range(max(0, a + b - m), min(a, b) + 1):
                c = _apex_class(x, y, u1 + u2 - m + r)
                out[c] = out.get(c, 0) + \
                    k1 * k2 * math.perm(a, r) * math.comb(b, r)
    return out


def span_power(s: FockSpan, k: int, N: int) -> FockSpan:
    out = identity_span(N)
    for _ in range(k):
        out = compose_spans(s, out)
    return out


def entries(s: FockSpan, alpha: Fraction | int = 0) -> dict:
    """The nonzero matrix entries of s, by (x, y): each class adds
    ``aut_weight(y!, x!, u!, alpha)`` times its multiplicity."""
    out: dict = {}
    f = math.factorial
    for (x, y, u), k in s.items():
        out[x, y] = out.get((x, y), 0) + k * aut_weight(f(y), f(x), f(u),
                                                        alpha)
    return out


def matrix(s: FockSpan, N: int, alpha: Fraction | int = 0) -> list[list]:
    """The dense (N + 1) x (N + 1) matrix of s, rows x and columns y."""
    out = [[Fraction(0)] * (N + 1) for _ in range(N + 1)]
    for (x, y), v in entries(s, alpha).items():
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
    terms of the cardinality, at most 3N weighted classes of the CCR
    composites, the (N + 1)(N + 2)/2 classes of the two-colored stuff type
    and one class of psi_n, each of at most ``printed_digits(N)`` digits;
    ``exact.check_digits`` applies both rules."""
    terms = N + 2 + 3 * N * ccr + (N + 1) * (N + 2) // 2 * two_colored
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
            lines.append(f"  truncation boundary ({i},{j}): "
                         f"AA* - A*A - 1 = {v}")
        return "\n".join(lines)


def verify_ccr(N: int) -> CcrReport:
    """Check matrix(AA*) - matrix(A*A) = identity away from the truncation.

    Both composites are built as spans and degroupoidified; discrepancies
    can only sit in row/column N and are listed explicitly.
    """
    if N < 2:
        raise ValueError("need N >= 2 to see the commutation relation")
    A = annihilation_span(N)
    Astar = adjoint(A)
    diff = entries(compose_spans(A, Astar))
    for c, v in entries(compose_spans(Astar, A)).items():
        diff[c] = diff.get(c, 0) - v
    for n in range(N + 1):
        diff[n, n] = diff.get((n, n), 0) - 1
    discrepancies = tuple(sorted((i, j, Fraction(v))
                                 for (i, j), v in diff.items() if v != 0))
    ok = all(N in (i, j) for i, j, _v in discrepancies)
    return CcrReport(ok, N, discrepancies)


def normal_ordered_terms(n: int) -> list[tuple[int, int, int]]:
    """:(A + A*)^n: = sum_j C(n, j) A*^j A^(n-j), as (coefficient, j, n-j)."""
    return [(math.comb(n, j), j, n - j) for j in range(n + 1)]


def normal_ordered_power(n: int, N: int) -> FockSpan:
    """The normal-ordered n-th power of the field span A + A*.

    Built from the expansion with all creation factors moved left, using
    span composition, sums of classes, and integer multiplicities as the
    coefficients.
    """
    if n < 0:
        raise ValueError(f"normal-ordered power {n} is negative")
    A = annihilation_span(N)
    Astar = adjoint(A)
    total: FockSpan = {}
    for coeff, j, k in normal_ordered_terms(n):
        term = compose_spans(span_power(Astar, j, N), span_power(A, k, N))
        total = add_spans(total, term, coeff)
    return total


def field_span(N: int) -> FockSpan:
    """The field span A + A*; its matrix is tridiagonal."""
    A = annihilation_span(N)
    return add_spans(A, adjoint(A))
