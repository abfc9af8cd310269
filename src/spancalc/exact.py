"""The exact core every subcommand shares: the size cap and the numbers.

``size_cap`` is the configurable cap on materialized sizes
(``SPANCALC_SIZE_CAP``), and ``SizeCapError`` reports a breach of it or of
a caller's own fixed cap.  ``QSqrt`` holds the sums of rational multiples
of square roots that half-integer alpha produces; ``aut_weight`` is the
one degroupoidification weight |Aut x|^(1-alpha) |Aut y|^alpha / |Aut s|,
and ``format_rational`` prints a value as the CLI emits it.  This module
imports nothing from the rest of the package.
"""

from __future__ import annotations

import os
from fractions import Fraction

DEFAULT_SIZE_CAP = 5_000_000
SIZE_CAP_ENV = "SPANCALC_SIZE_CAP"


def size_cap() -> int:
    """Current cap on materialized object/morphism/table sizes."""
    raw = os.environ.get(SIZE_CAP_ENV)
    if raw is None:
        return DEFAULT_SIZE_CAP
    return int(raw)


class SizeCapError(RuntimeError):
    """Raised when a construction would exceed the configured size cap."""

    def __init__(self, what: str, needed: int, cap: int | None = None):
        """``cap`` is a fixed cap of the caller's own, and ``needed`` may
        then be a lower bound; without it the breach is of the configurable
        size cap."""
        self.what = what
        self.needed = needed
        if cap is None:
            message = (f"{what} needs {needed} entries, over the size cap "
                       f"{size_cap()} (override with {SIZE_CAP_ENV})")
        else:
            message = f"{what} needs at least {needed}, over its cap of {cap}"
        super().__init__(message)


def _check_cap(what: str, needed: int) -> None:
    if needed > size_cap():
        raise SizeCapError(what, needed)


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

    @staticmethod
    def of(x: Fraction | int) -> "QSqrt":
        return QSqrt({1: Fraction(x)})

    @staticmethod
    def sqrt(n: int) -> "QSqrt":
        if n == 0:
            return QSqrt()
        a, b = _sqrt_decompose(n)
        return QSqrt({b: Fraction(a)})

    def __add__(self, other: "QSqrt | Fraction | int") -> "QSqrt":
        if isinstance(other, (int, Fraction)):
            other = QSqrt.of(other)
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

    def __truediv__(self, k: Fraction | int) -> "QSqrt":
        return QSqrt({b: c / k for b, c in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QSqrt.of(other)
        if not isinstance(other, QSqrt):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.terms.items())))

    @property
    def is_rational(self) -> bool:
        return set(self.terms) <= {1}

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.terms.get(1, Fraction(0))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            (f"{c}" if b == 1 else f"{c}*sqrt({b})")
            for b, c in sorted(self.terms.items())
        )


def _aut_pow(n: int, exponent: Fraction) -> Fraction | QSqrt:
    """|Aut|^exponent, exact; half-integer exponents yield QSqrt values."""
    if exponent.denominator == 1:
        return Fraction(n) ** exponent.numerator
    if exponent.denominator == 2:
        k = exponent.numerator
        whole = Fraction(n) ** (k // 2)
        return QSqrt.sqrt(n) * whole if k % 2 else QSqrt.of(whole)
    raise ValueError(
        f"alpha exponent {exponent} unsupported: entries |Aut|^a are "
        "irrational except for integer and half-integer a")


def aut_weight(x_aut: int, y_aut: int, s_aut: int, alpha: Fraction | int
               ) -> Fraction | QSqrt:
    """|Aut x|^(1-alpha) |Aut y|^alpha / |Aut s|, the weight of one apex
    class s over ([x], [y]); a QSqrt only when the value is irrational."""
    term = _aut_pow(x_aut, 1 - alpha) * _aut_pow(y_aut, alpha) / s_aut
    if isinstance(term, QSqrt) and term.is_rational:
        return term.as_fraction()
    return term


def format_rational(x) -> str:
    if isinstance(x, QSqrt):
        if x.is_rational:
            x = x.as_fraction()
        else:
            return repr(x)
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"
