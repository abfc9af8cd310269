"""Exact-arithmetic degroupoidification engine.

Finite groupoids become exact-rational vector spaces, spans of groupoids
become matrices via weak pullback, and three verification suites reproduce
the combinatorics of Fock space, the A2 Hecke algebra over a prime field,
and Hall algebras of simply-laced quivers.

The package root re-exports nothing, so that importing it loads no
submodule: import from ``spancalc.exact``, ``spancalc.groupoid``,
``spancalc.spans`` and the suite modules directly.
"""

__version__ = "0.1.0"
