"""The shared orbit and group-closure routines of ``spancalc.exact``,
against brute force on the automorphism groups of random groupoids, the
degroupoidification weight against its defining formula, the kernel
against the per-class sum of those weights and its digit bound against
what it prints, and the size-cap message past the printed digit limit."""

import random
import re
import sys
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from spancalc.exact import (QSqrt, SizeCapError, aut_weight, degroupoidify,
                            extend_group, format_rational, greedy_generators,
                            orbits)
from spancalc.groupoid import FiniteGroupoid

from helpers import random_groupoid, recorded_digit_bounds
from oracles import degroupoidify_per_class


def brute_closure(g: FiniteGroupoid, x: int, elements) -> set:
    """The subgroup of Aut(x) that ``elements`` generate: products of
    everything reached, until nothing new appears."""
    group = {g.identity[x], *elements}
    while True:
        new = {g.compose(a, b) for a in group for b in group} - group
        if not new:
            return group
        group |= new


def random_elements(rng: random.Random):
    """A random groupoid, an object x, and a few elements of Aut(x), some
    repeated, in random order."""
    g = random_groupoid(rng, max_objects=4)
    x = rng.randrange(g.n_objects)
    aut = g.aut(x)
    return g, x, [rng.choice(aut) for _ in range(rng.randint(0, 4))]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_closure_matches_brute_force(rng):
    g, x, elements = random_elements(rng)
    one = g.identity[x]
    gens, group = greedy_generators(elements, one, g.compose)
    assert group == brute_closure(g, x, elements)
    # greedy: each element outside the group the earlier generators
    # generate joins them, and extends that group in place
    want = []
    for e in elements:
        if e not in brute_closure(g, x, want):
            want.append(e)
    assert gens == want
    closed = {one}
    for i in range(len(gens)):
        assert extend_group(closed, gens[:i + 1], one, g.compose) is closed
        assert closed == brute_closure(g, x, gens[:i + 1])
    assert len(gens) <= max(1, len(group)).bit_length()


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_orbits_match_brute_force_whatever_the_generator_order(rng):
    # the subgroup H that the elements generate acts on Aut(x) by
    # conjugation, alpha -> h^-1 alpha h, whose orbits are not all points
    g, x, elements = random_elements(rng)
    points = g.aut(x)                      # increasing
    group = brute_closure(g, x, elements)
    want = []
    for alpha in points:
        if not any(alpha in orbit for orbit in want):
            want.append({g.compose(g.compose(g.inverse[h], alpha), h)
                         for h in group})
    for _ in range(2):
        rng.shuffle(elements)
        moves = [lambda a, h=h: g.compose(g.compose(g.inverse[h], a), h)
                 for h in elements]
        seen: dict = {}
        got = list(orbits(points, moves, seen))
        assert [set(orbit) for orbit in got] == want
        assert [orbit[0] for orbit in got] == [min(o) for o in want]
        assert all(len(orbit) == len(set(orbit)) for orbit in got)
        assert seen == {a: k for k, orbit in enumerate(got) for a in orbit}


def test_orbits_skip_points_the_caller_has_seen():
    # the shift by 2 on 0..5 has the orbits {0, 2, 4} and {1, 3, 5}
    seen = {0: "known", 2: "known", 4: "known"}
    assert list(orbits(range(6), [lambda p: (p + 2) % 6], seen)) == \
        [[1, 3, 5]]
    assert seen == {0: "known", 2: "known", 4: "known", 1: 0, 3: 0, 5: 0}


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(auts=st.tuples(*[st.integers(1, 24)] * 3),
       alpha=st.integers(-12, 12).map(lambda n: Fraction(n, 2)))
def test_aut_weight_is_its_defining_formula(auts, alpha):
    # |Aut x|^(1-alpha) |Aut y|^alpha / |Aut s|, checked through its
    # square so that half-integer alpha stays rational
    x, y, s = auts
    w = aut_weight(x, y, s, alpha)
    square = Fraction(x) ** (2 - 2 * alpha) * Fraction(y) ** (2 * alpha)
    assert w * w == square / s ** 2
    assert all(c > 0 for c in (w.terms.values() if isinstance(w, QSqrt)
                               else [w]))
    assert not (isinstance(w, QSqrt) and set(w.terms) <= {1})


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(feet=st.lists(st.tuples(st.integers(1, 720), st.integers(1, 720)),
                     min_size=1, max_size=4),
       picks=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 720),
                                st.integers(-3, 3)), max_size=10),
       alpha=st.sampled_from([Fraction(n, 2) for n in
                              (0, 2, -2, 1, -1, 3, -3, 14, -14)]))
@example(feet=[(210, 671)], picks=[(0, 5, 2), (0, 5, -2)],
         alpha=Fraction(1, 2))
@example(feet=[(210, 671)], picks=[(0, 210, 1)], alpha=Fraction(-1, 2))
def test_kernel_is_the_per_class_sum_within_its_digit_bound(feet, picks,
                                                            alpha):
    # classes over the keys 0..3, each key with its own feet; a key with
    # classes of opposite multiplicity can cancel to 0, and a key with no
    # class is a laid-out cell that prints 0/1.  At alpha 1/2 the feet
    # 210 and 671 weigh in sqrt(140910), a radicand of six digits.
    classes = [(i, *feet[i], s, c) for i, s, c in picks if i < len(feet)]
    with recorded_digit_bounds() as bounds:
        entries = degroupoidify(classes, alpha, "kernel", len(feet))
    assert entries == degroupoidify_per_class(classes, alpha)
    printed = [max(len(d) for d in re.findall(r"\d+", format_rational(v)))
               for v in entries.values()] + [1] * (len(feet) - len(entries))
    [(longest, total)] = bounds
    assert max(printed) <= longest and sum(printed) <= total


def test_size_cap_message_bounds_a_count_past_the_digit_limit():
    # a count prints in full while the interpreter prints it, and past
    # that as the greatest power of 10 below it; 640 is the least limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert str(SizeCapError("x", 10 ** 640 - 1, 5)) == \
            f"x needs at least {'9' * 640}, over its cap of 5"
        for n, k in ((10 ** 640, 639), (10 ** 640 + 1, 640),
                     (10 ** 700 - 1, 699), (10 ** 700, 699)):
            assert str(SizeCapError("x", n, 5)) == \
                f"x needs more than 10^{k}, over its cap of 5"
        assert str(SizeCapError("y", 10 ** 641)).startswith(
            "y needs more than 10^640 entries, over the size cap ")
    finally:
        sys.set_int_max_str_digits(limit)
