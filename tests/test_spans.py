import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spancalc.exact import QSqrt, SizeCapError
from spancalc.groupoid import (
    FiniteGroupoid,
    GroupoidFunctor,
    cardinality,
    iso_classes,
    validate_groupoid,
)
from spancalc.spans import (
    SpanOfGroupoids,
    _pullback_objects,
    compose_spans,
    degroupoidify_span,
    weak_pullback,
)

from helpers import (
    all_element_orbits,
    diagonal_functor,
    random_cyclic_action,
    random_groupoid,
    random_span,
    z5_and_its_relabelling,
)
from oracles import (Matrix, add_spans, adjoint, alpha_change_of_basis,
                     check_equivalence_certificate, compose_literal, connected,
                     cyclic_table, discrete, from_group_table,
                     identity_functor, identity_span, materialize, pairing,
                     scalar_mul, skeleton, span_matrix, symmetric_table,
                     tensor_spans, terminal, trace_literal, vector_entries,
                     vector_span, weak_pullback_literal)

ALPHAS = (0, 1, Fraction(1, 2))


def bz2():
    return from_group_table(cyclic_table(2))


def discrete_span(rng: random.Random, nl: int, nr: int) -> SpanOfGroupoids:
    """Random span of discrete groupoids: a matrix of sets."""
    left = discrete(nl)
    right = discrete(nr)
    n_apex = rng.randint(0, 6)
    lmap = tuple(rng.randrange(nl) for _ in range(n_apex))
    rmap = tuple(rng.randrange(nr) for _ in range(n_apex))
    apex = discrete(n_apex)
    return SpanOfGroupoids(
        apex,
        GroupoidFunctor(apex, left, lmap, lmap),
        GroupoidFunctor(apex, right, rmap, rmap))


# -- weak pullback -----------------------------------------------------------

def test_pullback_of_identities_is_equivalent_to_the_groupoid():
    # one object per morphism; on BZ/2 both objects are isomorphic, so the
    # pullback is equivalent to BZ/2 itself and has cardinality 1/2
    g = bz2()
    ident = identity_functor(g)
    P, pt, ps = weak_pullback_literal(ident, ident)
    assert P.n_objects == g.n_morphisms
    assert validate_groupoid(P) == []
    assert pt.validate() == [] and ps.validate() == []
    assert cardinality(P) == cardinality(g)


def test_pullback_over_terminal_is_the_product():
    g = bz2()
    h = from_group_table(cyclic_table(3))
    term = terminal()
    to_term_g = GroupoidFunctor(g, term, (0,), (0, 0))
    to_term_h = GroupoidFunctor(h, term, (0,), (0, 0, 0))
    P, _, _ = weak_pullback_literal(to_term_g, to_term_h)
    assert cardinality(P) == cardinality(g) * cardinality(h)


def test_skeletal_pullback_matches_literal():
    rng = random.Random(23)
    for _ in range(15):
        k = rng.choice([2, 3, 4])
        base = random_cyclic_action(rng, k, rng.randint(1, 4))
        s = random_span(rng, k, base, random_cyclic_action(rng, k, rng.randint(1, 3)))
        t = random_span(rng, k, base, random_cyclic_action(rng, k, rng.randint(1, 3)))
        # the two left legs land in structurally equal materializations
        f = s.left
        g = GroupoidFunctor(t.apex, s.target, t.left.obj_map, t.left.mor_map)
        lit, lt, ls = weak_pullback_literal(f, g)
        ske, st, ss = weak_pullback(f, g)
        assert validate_groupoid(lit) == []
        assert validate_groupoid(ske) == []
        assert st.validate() == [] and ss.validate() == []
        assert cardinality(lit) == cardinality(ske)
        # the pullback as a span between the outer feet: equal matrices
        lit_span = SpanOfGroupoids(lit, ls.then(t.right), lt.then(s.right))
        ske_span = SpanOfGroupoids(ske, ss.then(t.right), st.then(s.right))
        for alpha in (0, 1, Fraction(1, 2)):
            assert degroupoidify_span(lit_span, alpha) == \
                degroupoidify_span(ske_span, alpha)


def _orbit_cospans(rng: random.Random):
    """Cospans with nontrivial two-sided orbits: legs of random action
    spans, and the diagonal of a groupoid against itself."""
    for _ in range(8):
        k = rng.choice([2, 3, 4, 6])
        base = random_cyclic_action(rng, k, rng.randint(1, 4))
        s = random_span(rng, k, base, random_cyclic_action(rng, k, 3))
        t = random_span(rng, k, base, random_cyclic_action(rng, k, 3))
        yield s.left, GroupoidFunctor(t.apex, s.target, t.left.obj_map,
                                      t.left.mor_map)
    # non-abelian automorphism groups need every generator on both sides
    groupoids = [random_groupoid(rng, max_objects=3) for _ in range(4)]
    groupoids += [connected(2, symmetric_table(3)),
                  from_group_table(symmetric_table(4))]
    for x in groupoids:
        delta = diagonal_functor(x)
        yield delta, delta


def test_skeletal_objects_are_all_element_orbit_minima():
    rng = random.Random(29)
    for f, g in _orbit_cospans(rng):
        T, S, B = f.domain, g.domain, f.codomain
        P, _pt, _ps = weak_pullback(f, g)
        objects = _pullback_objects(f, g)
        want = []
        for t0 in iso_classes(T).representative:
            for s0 in iso_classes(S).representative:
                pairs = [(B.inverse[f.mor_map[u]], g.mor_map[v])
                         for u in T.aut(t0) for v in S.aut(s0)]
                for orbit in all_element_orbits(
                        B, B.hom(f.obj_map[t0], g.obj_map[s0]), pairs):
                    want.append(((t0, s0, orbit[0]), len(orbit)))
        assert objects == [obj for obj, _size in want]
        # orbit-stabilizer: |orbit| * |stabilizer| = |Aut t0| * |Aut s0|
        for o, ((t0, s0, _a), size) in enumerate(want):
            assert size * len(P.aut(o)) == len(T.aut(t0)) * len(S.aut(s0))


def test_pullback_visits_only_pairs_with_isomorphic_images(monkeypatch):
    # the identity pullback of a discrete groupoid: of the n^2 pairs of
    # representatives only the n on the diagonal have a nonempty hom-set
    n = 2000
    B = discrete(n)
    calls = 0
    hom = FiniteGroupoid.hom

    def counted(self, x, y):
        nonlocal calls
        calls += self is B
        return hom(self, x, y)

    monkeypatch.setattr(FiniteGroupoid, "hom", counted)
    ident = identity_functor(B)
    P, _pt, _ps = weak_pullback(ident, ident)
    assert P.n_objects == n
    assert calls <= 5 * n


def test_pullback_rejects_codomain_mismatch():
    g = bz2()
    h = from_group_table(cyclic_table(3))
    with pytest.raises(ValueError):
        weak_pullback(identity_functor(g), identity_functor(h))


def test_pullback_rejects_codomains_that_differ_only_in_composition():
    g, h = z5_and_its_relabelling()
    assert (g.identity, g.inverse) == (h.identity, h.inverse)
    with pytest.raises(ValueError, match="middle feet differ"):
        weak_pullback(identity_functor(g), identity_functor(h))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(rng=st.randoms(use_true_random=False),
       k=st.sampled_from([2, 3, 4, 6]))
def test_pullback_and_trace_match_the_literal_oracles(rng, k):
    ax, ay, az = (random_cyclic_action(rng, k, rng.randint(1, 4))
                  for _ in range(3))
    s = random_span(rng, k, ay, ax)   # X -> Y
    t = random_span(rng, k, az, ay)   # Y -> Z
    skeletal, literal = compose_spans(t, s), compose_literal(t, s)
    for alpha in (0, 1, Fraction(1, 2)):
        assert degroupoidify_span(skeletal, alpha) == \
            degroupoidify_span(literal, alpha)
    for e in (random_span(rng, k, ax, ax),
              identity_span(random_groupoid(rng, max_objects=4))):
        assert trace_literal(e)[1] == span_matrix(e).trace()


def test_degroupoidify_span_refuses_a_power_past_the_digit_limit():
    # the span Z/2 <- 1 -> Z/3: its one entry at alpha 10^5 has a power of
    # 3 with 47713 digits, refused before it is formed
    apex = terminal()
    span = SpanOfGroupoids(
        apex, GroupoidFunctor(apex, from_group_table(cyclic_table(3)),
                              (0,), (0,)),
        GroupoidFunctor(apex, bz2(), (0,), (0,)))
    with pytest.raises(ValueError, match=r"degroupoidify at alpha is too "
                       r"large: .* interpreter's limit of \d+ "
                       r"\(PYTHONINTMAXSTRDIGITS"):
        degroupoidify_span(span, 10 ** 5)


# -- the size cap on the pullback --------------------------------------------

def _refuse_pullback_groupoids(monkeypatch):
    def refuse(*_args):
        raise AssertionError("a pullback groupoid was built past the cap")
    monkeypatch.setattr("spancalc.spans.FiniteGroupoid", refuse)


def _over_point(apex: FiniteGroupoid) -> SpanOfGroupoids:
    """The span point <- apex -> point."""
    leg = GroupoidFunctor(apex, terminal(),
                          (0,) * apex.n_objects, (0,) * apex.n_morphisms)
    return SpanOfGroupoids(apex, leg, leg)


@pytest.mark.parametrize("apex, what, needed", [
    (discrete(30), "weak pullback objects", 900),
    (from_group_table(cyclic_table(6)),
     "weak pullback morphisms", 36),
], ids=["objects", "morphisms"])
def test_compose_checks_the_cap_before_building(monkeypatch, apex, what,
                                                needed):
    span = _over_point(apex)
    monkeypatch.setenv("SPANCALC_SIZE_CAP", str(needed - 1))
    _refuse_pullback_groupoids(monkeypatch)
    with pytest.raises(SizeCapError, match=what) as exc:
        compose_spans(span, span)
    assert exc.value.needed == needed


def _check_cap_is_exact(monkeypatch, build, needed: int) -> None:
    """``build()`` breaches the cap at needed - 1, naming ``needed``, and
    runs at cap ``needed``."""
    monkeypatch.setenv("SPANCALC_SIZE_CAP", str(needed - 1))
    with pytest.raises(SizeCapError) as exc:
        build()
    assert exc.value.needed == needed
    monkeypatch.setenv("SPANCALC_SIZE_CAP", str(needed))
    build()
    monkeypatch.delenv("SPANCALC_SIZE_CAP")


def test_pullback_cap_counts_are_the_scan_and_the_morphisms(monkeypatch):
    # objects are bounded by the hom-sets scanned; morphisms count exactly
    rng = random.Random(113)
    for f, g in _orbit_cospans(rng):
        T, S, B = f.domain, g.domain, f.codomain
        P, _pt, _ps = weak_pullback(f, g)
        scanned = sum(len(B.hom(f.obj_map[t0], g.obj_map[s0]))
                      for t0 in iso_classes(T).representative
                      for s0 in iso_classes(S).representative)
        assert P.n_objects <= scanned
        _check_cap_is_exact(monkeypatch, lambda: weak_pullback(f, g),
                            max(scanned, P.n_morphisms))


# -- degroupoidification of spans and vectors --------------------------------

def test_identity_span_matrix_is_identity_at_each_alpha():
    rng = random.Random(31)
    for alpha in (0, 1, Fraction(1, 2)):
        act = random_cyclic_action(rng, 4, 5)
        x = materialize(act)
        m = degroupoidify_span(identity_span(x), alpha)
        assert m == Matrix.identity(iso_classes(x).n_classes)


def test_discrete_span_composition_is_integer_matrix_product():
    rng = random.Random(37)
    for _ in range(20):
        nl, nm, nr = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        t = discrete_span(rng, nl, nm)
        s = discrete_span(rng, nm, nr)
        ts = compose_literal(t, s)
        got = degroupoidify_span(ts, 0)
        # independent oracle: count apex pairs into an integer matrix product
        mt = np.zeros((nl, nm), dtype=int)
        for o in range(t.apex.n_objects):
            mt[t.left.obj_map[o], t.right.obj_map[o]] += 1
        ms = np.zeros((nm, nr), dtype=int)
        for o in range(s.apex.n_objects):
            ms[s.left.obj_map[o], s.right.obj_map[o]] += 1
        want = mt @ ms
        assert [[int(x) for x in row] for row in got.data] == want.tolist()


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(rng=st.randoms(use_true_random=False),
       k=st.sampled_from([2, 3, 4, 6]))
def test_functoriality_on_random_action_spans(rng, k):
    ax, ay, az = (random_cyclic_action(rng, k, rng.randint(1, 4))
                  for _ in range(3))
    s = random_span(rng, k, ay, ax)   # span X -> Y
    t = random_span(rng, k, az, ay)   # span Y -> Z
    for ts in (compose_literal(t, s), compose_spans(t, s)):
        for alpha in ALPHAS:
            assert degroupoidify_span(ts, alpha) == \
                span_matrix(t, alpha) @ span_matrix(s, alpha)


def test_add_spans_adds_matrices():
    rng = random.Random(43)
    for _ in range(10):
        k = rng.choice([2, 3])
        ay = random_cyclic_action(rng, k, rng.randint(1, 4))
        ax = random_cyclic_action(rng, k, rng.randint(1, 4))
        s = random_span(rng, k, ay, ax)
        t = random_span(rng, k, ay, ax)
        assert degroupoidify_span(add_spans(s, t)) == \
            span_matrix(s) + span_matrix(t)


def test_scalar_mul_scales_by_cardinality():
    rng = random.Random(47)
    ay = random_cyclic_action(rng, 2, 3)
    ax = random_cyclic_action(rng, 2, 3)
    s = random_span(rng, 2, ay, ax)
    m = span_matrix(s)
    doubled = scalar_mul(discrete(2), s)
    assert degroupoidify_span(doubled, 0) == m.scale(2)
    halved = scalar_mul(bz2(), s)
    assert degroupoidify_span(halved, 0) == m.scale(Fraction(1, 2))
    unchanged = scalar_mul(terminal(), s)
    assert degroupoidify_span(unchanged, 0) == m


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(rng=st.randoms(use_true_random=False),
       k=st.sampled_from([2, 3, 4, 6]))
def test_adjoint_involution_and_transpose_relation(rng, k):
    # the weight |Aut x|^(1-alpha) |Aut y|^alpha / |Aut s| with the legs
    # swapped and alpha replaced by 1 - alpha is the same number
    ay = random_cyclic_action(rng, k, rng.randint(1, 4))
    ax = random_cyclic_action(rng, k, rng.randint(1, 4))
    s = random_span(rng, k, ay, ax)
    assert adjoint(adjoint(s)) == s
    for alpha in (0, 1, Fraction(1, 2)):
        assert degroupoidify_span(adjoint(s), alpha) == \
            span_matrix(s, 1 - alpha).transpose()


def test_adjoint_transpose_at_half_with_trivial_auts():
    rng = random.Random(59)
    s = discrete_span(rng, 3, 4)
    half = Fraction(1, 2)
    assert degroupoidify_span(adjoint(s), half) == \
        span_matrix(s, half).transpose()


def test_half_alpha_symbolic_entries():
    # one-object Z/2 over the terminal groupoid: entry sqrt(2)/2 at alpha 1/2
    g = bz2()
    term = terminal()
    to_term = GroupoidFunctor(g, term, (0,), (0, 0))
    s = SpanOfGroupoids(g, to_term, identity_functor(g))
    m = span_matrix(s, Fraction(1, 2))
    assert m.data[0][0] == QSqrt({2: Fraction(1, 2)})
    assert degroupoidify_span(adjoint(s), Fraction(1, 2)) == m.transpose()


def test_adjoint_of_composite():
    rng = random.Random(61)
    k = 2
    ax = random_cyclic_action(rng, k, 3)
    ay = random_cyclic_action(rng, k, 2)
    az = random_cyclic_action(rng, k, 3)
    s = random_span(rng, k, ay, ax)
    t = random_span(rng, k, az, ay)
    lhs = degroupoidify_span(adjoint(compose_spans(t, s)), 0)
    rhs = degroupoidify_span(compose_spans(adjoint(s), adjoint(t)), 0)
    assert lhs == rhs


def test_tensor_is_kronecker():
    rng = random.Random(67)
    for _ in range(8):
        k = rng.choice([2, 3])
        s = random_span(rng, k, random_cyclic_action(rng, k, 2),
                        random_cyclic_action(rng, k, 2))
        t = random_span(rng, k, random_cyclic_action(rng, k, 2),
                        random_cyclic_action(rng, k, 2))
        prod = tensor_spans(s, t)
        assert prod.left.validate() == [] and prod.right.validate() == []
        assert degroupoidify_span(prod) == Matrix.kronecker(
            degroupoidify_span(s), degroupoidify_span(t))
    ident = identity_span(terminal())
    s = discrete_span(rng, 2, 2)
    assert degroupoidify_span(tensor_spans(s, ident), 0) == \
        degroupoidify_span(s, 0)


def test_identity_over_itself_degroupoidifies_to_reciprocal_auts():
    rng = random.Random(109)
    x = materialize(random_cyclic_action(rng, 4, 5))
    psi = vector_span(identity_functor(x))
    auts = iso_classes(x).aut_order
    assert vector_entries(psi, 0) == tuple(Fraction(1, a) for a in auts)
    assert vector_entries(psi, 1) == (Fraction(1),) * len(auts)


def test_apply_span_matches_matrix_vector_product():
    # applying s to the vector psi, the span 1 <- Psi -> X, is composing
    rng = random.Random(71)
    for _ in range(10):
        k = rng.choice([2, 3, 4])
        ax = random_cyclic_action(rng, k, rng.randint(1, 4))
        ay = random_cyclic_action(rng, k, rng.randint(1, 4))
        s = random_span(rng, k, ay, ax)
        psi = vector_span(random_span(rng, k, ax,
                                      random_cyclic_action(rng, k, 1)).left)
        out = compose_spans(s, psi)
        for alpha in (0, 1):
            assert degroupoidify_span(out, alpha) == \
                span_matrix(s, alpha) @ span_matrix(psi, alpha)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(rng=st.randoms(use_true_random=False),
       k=st.sampled_from([2, 3, 4, 6]), alpha=st.integers(-3, 3),
       beta=st.integers(-3, 3))
def test_alpha_change_of_basis(rng, k, alpha, beta):
    # with T carrying |Aut|^(alpha - beta), the naturality square reads
    # T_Y m_beta = m_alpha T_X; follows from the entry formula
    ax = random_cyclic_action(rng, k, rng.randint(1, 4))
    ay = random_cyclic_action(rng, k, rng.randint(1, 4))
    s = random_span(rng, k, ay, ax)
    t_x = alpha_change_of_basis(s.source, alpha - beta)
    t_y = alpha_change_of_basis(s.target, alpha - beta)
    assert t_y @ degroupoidify_span(s, beta) == span_matrix(s, alpha) @ t_x


# -- inner products and traces ------------------------------------------------

def _vector(rng: random.Random, k: int, base) -> SpanOfGroupoids:
    """A random vector on the action groupoid of ``base``."""
    return vector_span(random_span(rng, k, base,
                                   random_cyclic_action(rng, k, 1)).left)


def test_inner_product_symmetry_and_vector_formula():
    rng = random.Random(79)
    for _ in range(10):
        k = rng.choice([2, 3])
        ax = random_cyclic_action(rng, k, rng.randint(1, 4))
        phi, psi = _vector(rng, k, ax), _vector(rng, k, ax)
        c = pairing(phi, psi)
        assert c == pairing(psi, phi)
        auts = iso_classes(phi.target).aut_order
        assert c == sum((a * x * y for a, x, y in zip(
            auts, vector_entries(phi), vector_entries(psi))), Fraction(0))


def test_inner_product_adjoint_relation():
    rng = random.Random(83)
    for _ in range(10):
        k = rng.choice([2, 3])
        ax = random_cyclic_action(rng, k, rng.randint(1, 3))
        ay = random_cyclic_action(rng, k, rng.randint(1, 3))
        s = random_span(rng, k, ay, ax)
        psi, phi = _vector(rng, k, ax), _vector(rng, k, ay)
        assert pairing(phi, compose_spans(s, psi)) == \
            pairing(compose_spans(adjoint(s), phi), psi)


def test_trace_of_identity_span_counts_classes():
    g = materialize(random_cyclic_action(random.Random(89), 4, 6))
    tr, value = trace_literal(identity_span(g))
    assert value == iso_classes(g).n_classes
    assert validate_groupoid(tr) == []


def test_trace_equals_matrix_trace():
    rng = random.Random(97)
    for _ in range(10):
        k = rng.choice([2, 3, 4])
        ax = random_cyclic_action(rng, k, rng.randint(1, 4))
        s = random_span(rng, k, ax, ax)
        assert trace_literal(s)[1] == span_matrix(s).trace()


def test_trace_cyclicity_and_linearity():
    rng = random.Random(101)
    for _ in range(8):
        k = rng.choice([2, 3])
        ax = random_cyclic_action(rng, k, rng.randint(1, 3))
        ay = random_cyclic_action(rng, k, rng.randint(1, 3))
        s = random_span(rng, k, ay, ax)
        t = random_span(rng, k, ax, ay)
        assert trace_literal(compose_spans(t, s))[1] == \
            trace_literal(compose_spans(s, t))[1]
        u = random_span(rng, k, ax, ax)
        v = random_span(rng, k, ax, ax)
        _, tu = trace_literal(u)
        assert trace_literal(add_spans(u, v))[1] == tu + trace_literal(v)[1]
        assert trace_literal(scalar_mul(bz2(), u))[1] == Fraction(1, 2) * tu


def test_equivalent_cospans_give_equal_pullbacks():
    # replace the shared foot of a cospan by its skeleton (a certified
    # equivalence); the pullback cardinality must be unchanged
    rng = random.Random(103)
    for _ in range(6):
        k = rng.choice([2, 3])
        ax = random_cyclic_action(rng, k, rng.randint(2, 4))
        ay = random_cyclic_action(rng, k, rng.randint(2, 4))
        s = random_span(rng, k, ay, ax)
        t = random_span(rng, k, ay, ax)
        f = s.left
        g = GroupoidFunctor(t.apex, s.target, t.left.obj_map, t.left.mor_map)
        P1, _, _ = weak_pullback(f, g)
        sk, F = skeleton(s.target)
        assert check_equivalence_certificate(F)
        P2, _, _ = weak_pullback(f.then(F), g.then(F))
        assert cardinality(P1) == cardinality(P2)


def test_endpoint_mismatches_are_rejected():
    rng = random.Random(113)
    ax = random_cyclic_action(rng, 2, 2)
    ay = random_cyclic_action(rng, 2, 3)
    az = random_cyclic_action(rng, 3, 2)
    s = random_span(rng, 2, ay, ax)
    u = random_span(rng, 3, az, az)
    with pytest.raises(ValueError):
        compose_spans(s, u)
    with pytest.raises(ValueError):
        add_spans(s, u)
    with pytest.raises(ValueError):
        compose_spans(s, vector_span(u.left))
    with pytest.raises(ValueError):
        pairing(vector_span(s.left), vector_span(u.left))
    with pytest.raises(ValueError):
        degroupoidify_span(s, Fraction(1, 3))   # unsupported normalization


def test_compose_with_identity_span_preserves_matrix():
    rng = random.Random(107)
    ax = random_cyclic_action(rng, 3, 3)
    ay = random_cyclic_action(rng, 3, 4)
    s = random_span(rng, 3, ay, ax)
    m = degroupoidify_span(s)
    left_id = identity_span(s.target)
    right_id = identity_span(s.source)
    assert degroupoidify_span(compose_spans(left_id, s), 0) == m
    assert degroupoidify_span(compose_spans(s, right_id), 0) == m
