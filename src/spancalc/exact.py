"""The exact core every subcommand shares: the size cap, finite groups
given by generators, and the numbers.

``size_cap`` is the configurable cap on materialized sizes
(``SPANCALC_SIZE_CAP``), and ``SizeCapError`` reports a breach of it or of
a caller's own fixed cap; ``check_digits`` is the one rule for exact
numbers too long to print.  ``orbits`` is the one routine that grows
orbits from generators, and ``greedy_generators`` with ``extend_group``
the one that closes a group from them.  ``QSqrt`` holds the sums of
rational multiples of square roots that half-integer alpha produces;
``aut_weight`` is the one degroupoidification weight
|Aut x|^(1-alpha) |Aut y|^alpha / |Aut s|, and ``degroupoidify`` the one
kernel that sums it over apex classes, bounding each entry's digits
before any power is formed: spans, Fock spans and the Hecke triple space
only list their classes for it.  ``format_rational`` prints a value as the
CLI emits it.  This module imports nothing from the rest of the package.
"""

from __future__ import annotations

import math
import os
import sys
from fractions import Fraction

DEFAULT_SIZE_CAP = 5_000_000
SIZE_CAP_ENV = "SPANCALC_SIZE_CAP"


def size_cap() -> int:
    """Current cap on materialized object/morphism/table sizes; a
    ValueError naming the variable unless it is an integer >= 0."""
    raw = os.environ.get(SIZE_CAP_ENV)
    if raw is None:
        return DEFAULT_SIZE_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        raise ValueError(f"{SIZE_CAP_ENV}={raw!r} is not an integer >= 0")
    return cap


class SizeCapError(RuntimeError):
    """Raised when a construction would exceed the configured size cap."""

    def __init__(self, what: str, needed: int, cap: int | None = None):
        """``cap`` is a fixed cap of the caller's own, and ``needed`` may
        then be a lower bound; without it the breach is of the configurable
        size cap.  A count with more digits than the interpreter prints is
        given as "more than 10^k", for the greatest such k."""
        self.what = what
        self.needed = needed
        try:
            count = str(needed)
        except ValueError:      # past PYTHONINTMAXSTRDIGITS
            k = math.floor(math.log10(needed))  # a float: within one of k
            if 10 ** (k + 1) < needed:
                k += 1
            elif 10 ** k >= needed:
                k -= 1
            count = f"more than 10^{k}"
        if cap is None:
            message = (f"{what} needs {count} entries, over the size cap "
                       f"{size_cap()} (override with {SIZE_CAP_ENV})")
        else:
            if count.isdecimal():       # else it is a bound already
                count = f"at least {count}"
            message = f"{what} needs {count}, over its cap of {cap}"
        super().__init__(message)


def _check_cap(what: str, needed: int) -> None:
    if needed > size_cap():
        raise SizeCapError(what, needed)


def check_digits(what: str, digits: int, total: int) -> None:
    """Refuse ``what`` before it forms exact numbers of up to ``digits``
    decimal digits, ``total`` digits in all: a ValueError when ``digits``
    passes the interpreter's limit on printed ints (PYTHONINTMAXSTRDIGITS,
    where 0 sets no limit), and in any case a SizeCapError when ``total``
    passes the size cap."""
    limit = sys.get_int_max_str_digits()
    if limit and digits > limit:
        raise ValueError(
            f"{what} is too large: it prints numbers of up to {digits} "
            f"digits, over the interpreter's limit of {limit} "
            f"(PYTHONINTMAXSTRDIGITS)")
    _check_cap(f"{what}, counted in digits of its exact values,", total)


# -- orbits and closures of finite groups given by generators ---------------

def orbits(points, moves, seen: dict):
    """Yield the orbits through ``points`` of the group generated by
    ``moves`` (functions point -> point), each as a list, grown from the
    first point of ``points`` not yet in ``seen`` and listing it first.

    ``seen`` is the caller's: each point reached is entered in it with the
    index of its orbit.  In a finite group the inverse moves are powers of
    the moves, so forward moves reach the whole orbit.  With ``points`` in
    increasing order the orbits come in order of their least point, which
    is listed first, whatever the moves.
    """
    k = 0
    for start in points:
        if start in seen:
            continue
        seen[start] = k
        orbit = [start]
        for point in orbit:   # grows while it is scanned
            for move in moves:
                image = move(point)
                if image not in seen:
                    seen[image] = k
                    orbit.append(image)
        yield orbit
        k += 1


def extend_group(group: set, gens: list, one, times) -> set:
    """Extend ``group``, the group generated by every generator but the
    last under the product ``times``, in place to the group generated by
    all of ``gens``, and return it.

    The new group is a union of left cosets y H of the old group H: left
    multiplication by a generator permutes them, so each new coset is
    found by one product t x from a known representative x and filled by
    the products y h.  In a finite group the inverses are powers of the
    generators.
    """
    subgroup = [h for h in group if h != one]
    reps = [one]       # one representative per coset, H's first
    for x in reps:     # grows while it is scanned
        for t in gens:
            y = times(t, x)
            if y not in group:
                group.add(y)
                group.update([times(y, h) for h in subgroup])
                reps.append(y)
    return group


def greedy_generators(elements, one, times) -> tuple[list, set]:
    """A greedy generating set of the group the ``elements`` generate,
    with that group: each element not in the group generated so far joins
    the set, in element order, and the group is extended by it.  The set
    depends only on the order of ``elements``; each generator at least
    doubles the group, so there are at most log2 |group| of them."""
    gens: list = []
    group = {one}
    for x in elements:
        if x not in group:
            gens.append(x)
            extend_group(group, gens, one, times)
    return gens, group


# -- numbers of the form sum of c_b * sqrt(b) -------------------------------

def _sqrt_decompose(n: int) -> tuple[int, int]:
    """n = a^2 * b with b squarefree; returns (a, b)."""
    a, b = 1, 1
    d = 2
    while d * d <= n:
        exp = 0
        while n % d == 0:
            n //= d
            exp += 1
        a *= d ** (exp // 2)
        if exp % 2:
            b *= d
        d += 1
    return a, b * n


class QSqrt:
    """Exact number of the form sum_b c_b sqrt(b), b squarefree positive."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None):
        self.terms = {b: c for b, c in (terms or {}).items() if c != 0}

    def __add__(self, other: "QSqrt | Fraction | int") -> "QSqrt":
        if isinstance(other, (int, Fraction)):
            other = QSqrt({1: Fraction(other)})
        out = dict(self.terms)
        for b, c in other.terms.items():
            out[b] = out.get(b, Fraction(0)) + c
        return QSqrt(out)

    __radd__ = __add__

    def __mul__(self, other: "QSqrt | Fraction | int") -> "QSqrt":
        if isinstance(other, (int, Fraction)):
            return QSqrt({b: c * other for b, c in self.terms.items()})
        out: dict[int, Fraction] = {}
        for b1, c1 in self.terms.items():
            for b2, c2 in other.terms.items():
                a, b = _sqrt_decompose(b1 * b2)
                out[b] = out.get(b, Fraction(0)) + c1 * c2 * a
        return QSqrt(out)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QSqrt({1: Fraction(other)})
        if not isinstance(other, QSqrt):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            (f"{c}" if b == 1 else f"{c}*sqrt({b})")
            for b, c in sorted(self.terms.items())
        )


def aut_weight(x_aut: int, y_aut: int, s_aut: int, alpha: Fraction | int
               ) -> Fraction | QSqrt:
    """|Aut x|^(1-alpha) |Aut y|^alpha / |Aut s|, the weight of one apex
    class s over ([x], [y]); a QSqrt only when the value is irrational.
    It is taken as |Aut x| (b'/a')^alpha / |Aut s|, a'/b' being
    |Aut x| / |Aut y| in lowest terms, so no power is larger than the
    value needs: at |Aut x| = |Aut y| none grows with alpha.  At a
    half-integer alpha, (b'/a')^(1/2) is sqrt(a'b') / a'."""
    alpha = Fraction(alpha)
    if alpha.denominator > 2:
        raise ValueError(
            f"alpha exponent {alpha} unsupported: entries |Aut|^a are "
            "irrational except for integer and half-integer a")
    g = math.gcd(x_aut, y_aut)
    a, b = x_aut // g, y_aut // g
    n = math.floor(alpha)
    term = Fraction(b, a) ** n * x_aut / s_aut
    if n == alpha:
        return term
    root, radicand = _sqrt_decompose(a * b)
    term = term * root / a
    return term if radicand == 1 else QSqrt({radicand: term})


def degroupoidify(classes, alpha: Fraction | int, what: str, cells: int
                  ) -> dict:
    """The entries, by key, of the apex classes ``(key, |Aut x|, |Aut y|,
    |Aut s|, c)``, each counted c times: the sums over each key's classes
    of c |Aut x|^(1-alpha) |Aut y|^alpha / |Aut s|.

    Each entry's alpha-free part |Aut x| sum c/|Aut s| is formed exactly
    first.  With a'/b' = |Aut x| / |Aut y| in lowest terms the entry is
    that part times (b'/a')^alpha, so it prints no number of more than
    ceil(|alpha| log10 max(a', b')) digits beyond the part's (at a
    half-integer alpha, the part times a'b', which bounds the radicand and
    the root's coefficient).  ``check_digits`` refuses ``what`` on that
    bound before any power is formed, |alpha| past 10^300 counting as
    10^300; ``cells`` entries are laid out, and each that no class joins
    prints as 0/1, one digit."""
    alpha = Fraction(alpha)
    joined: dict = {}   # key -> [|Aut x|, |Aut y|, sum of c/|Aut s|]
    for key, x_aut, y_aut, s_aut, c in classes:
        joined.setdefault(key, [x_aut, y_aut, Fraction(0)])[2] += \
            Fraction(c, s_aut)
    power = min(abs(alpha), 10 ** 300)
    unjoined = max(cells - len(joined), 0)
    longest, total = min(unjoined, 1), unjoined
    for x_aut, y_aut, part in joined.values():
        digits = 1      # a sum that cancels prints as 0/1
        if part:
            g = math.gcd(x_aut, y_aut)
            free = x_aut * part
            radicand = 1 if alpha.denominator == 1 else x_aut * y_aut // g // g
            bits = (max(abs(free.numerator), free.denominator)
                    * radicand).bit_length()
            # log10 2 < 0.30103, so a number of k bits has at most
            # 0.30103 k + 1 digits
            digits = (math.ceil(power * Fraction(math.log10(
                max(x_aut, y_aut) // g))) + bits * 30103 // 100000 + 1)
        longest, total = max(longest, digits), total + digits
    check_digits(what, longest, total)
    return {key: aut_weight(x_aut, y_aut, 1, alpha) * part if part else part
            for key, (x_aut, y_aut, part) in joined.items()}


def format_rational(x) -> str:
    if isinstance(x, QSqrt):
        return repr(x)
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"
