"""Finite-field helpers shared by the Hall and Hecke suites; no numpy."""

from __future__ import annotations


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True
