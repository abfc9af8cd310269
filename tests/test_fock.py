import math
import time
from fractions import Fraction

import pytest

from spancalc.fock import (
    annihilation_span,
    build_E,
    creation_span,
    e_partial_sum,
    field_span,
    generating_function,
    normal_ordered_power,
    normal_ordered_terms,
    psi_n,
    two_colored_stuff,
    verify_ccr,
)
from spancalc.exact import SizeCapError
from spancalc.groupoid import (
    cardinality,
    full_inverse_image,
    validate_groupoid,
)
from spancalc.spans import (
    RationalMatrix,
    add_spans,
    adjoint,
    apply_span,
    compose_spans,
    degroupoidify_span,
    degroupoidify_vector,
    inner_product,
)

from oracles import compose_literal, weak_pullback_literal

FACT = [1, 1, 2, 6, 24, 120, 720, 5040, 40320]


def test_build_E_small_values():
    assert cardinality(build_E(0).groupoid) == 1
    assert build_E(6).cardinality == Fraction(1957, 720)
    assert validate_groupoid(build_E(3).groupoid) == []


def test_build_E_refuses_large_materialization():
    with pytest.raises(SizeCapError):
        build_E(9)


def test_classes_only_mode_approximates_e():
    approx = float(e_partial_sum(10))
    # the omitted tail is between the first omitted term and its geometric bound
    tail = math.e - approx
    assert 1 / math.factorial(11) < tail < (Fraction(12, 11) / math.factorial(11))


def test_psi_n_vectors():
    E = build_E(6)
    v0 = degroupoidify_vector(psi_n(0, E).over, 0)
    assert v0.entries == (1, 0, 0, 0, 0, 0, 0)
    v3 = degroupoidify_vector(psi_n(3, E).over, 0)
    assert v3.entries[3] == Fraction(1, 6)
    assert sum(1 for e in v3.entries if e != 0) == 1
    with pytest.raises(ValueError):
        psi_n(7, E)


def test_two_colored_projection_is_a_functor():
    stuff = two_colored_stuff(build_E(4))
    assert stuff.over.projection.validate() == []


def test_two_colored_generating_function():
    E = build_E(6)
    stuff = two_colored_stuff(E)
    series = generating_function(stuff)
    assert series.coefficients == tuple(
        Fraction(2 ** n, FACT[n]) for n in range(7))
    homology_side = generating_function(stuff, 1)
    assert homology_side.coefficients == tuple(
        Fraction(2 ** n) for n in range(7))


def test_two_colored_full_inverse_image_cardinality():
    E = build_E(4)
    stuff = two_colored_stuff(E)
    for n in range(5):
        fiber = full_inverse_image(stuff.over.projection, n)
        assert cardinality(fiber) == Fraction(2 ** n, FACT[n])


def test_generating_function_additive_under_coproduct():
    from spancalc.groupoid import coproduct
    from spancalc.spans import GroupoidOverX
    from spancalc.groupoid import GroupoidFunctor

    E = build_E(4)
    a = psi_n(2, E).over
    b = two_colored_stuff(E).over
    total, inj_a, inj_b = coproduct(a.total, b.total)
    proj = GroupoidFunctor(
        total, E.groupoid,
        a.projection.obj_map + b.projection.obj_map,
        a.projection.mor_map + b.projection.mor_map)
    summed = GroupoidOverX(total, proj)
    va = degroupoidify_vector(a, 0).entries
    vb = degroupoidify_vector(b, 0).entries
    vs = degroupoidify_vector(summed, 0).entries
    assert vs == tuple(x + y for x, y in zip(va, vb))


def test_annihilation_matrix_is_derivative():
    E = build_E(6)
    a = degroupoidify_span(annihilation_span(E), 0)
    for row in range(7):
        for col in range(7):
            expected = col if col == row + 1 else 0
            assert a.data[row][col] == expected


def test_creation_matrix_is_multiplication_by_z():
    E = build_E(6)
    astar = degroupoidify_span(creation_span(E), 0)
    for row in range(7):
        for col in range(7):
            expected = 1 if row == col + 1 else 0
            assert astar.data[row][col] == expected


def test_annihilation_sends_psi_n_down():
    E = build_E(5)
    A = annihilation_span(E)
    for n in (1, 2, 4):
        image = apply_span(A, psi_n(n, E).over)
        got = degroupoidify_vector(image, 0)
        want = degroupoidify_vector(psi_n(n - 1, E).over, 0)
        assert got.entries == want.entries
    up = apply_span(creation_span(E), psi_n(0, E).over)
    assert degroupoidify_vector(up, 0).entries == \
        degroupoidify_vector(psi_n(1, E).over, 0).entries


def test_psi_inner_products_are_kronecker_over_factorial():
    E = build_E(4)
    for m in range(5):
        for n in range(5):
            groupoid, value = inner_product(psi_n(m, E).over, psi_n(n, E).over)
            expected = Fraction(1, FACT[n]) if m == n else 0
            assert value == expected
            if m != n:
                assert groupoid.n_objects == 0


def test_psi2_pullback_cardinality():
    E = build_E(4)
    P, _, _ = weak_pullback_literal(psi_n(2, E).over.projection,
                                    psi_n(2, E).over.projection)
    assert cardinality(P) == Fraction(1, 2)


def test_ccr_block_and_boundary():
    for N in (2, 4, 6):
        report = verify_ccr(build_E(N))
        assert report.ok
        assert [(i, j) for i, j, _v in report.discrepancies] == [(N, N)]
        assert report.discrepancies[0][2] == -N - 1


def test_aastar_composite_matrix_diagonal():
    E = build_E(4)
    A = annihilation_span(E)
    m = degroupoidify_span(compose_literal(A, adjoint(A)), 0)
    for n in range(4):
        assert m.data[n][n] == n + 1
    assert m.data[4][4] == 0


def test_compose_literal_and_skeletal_agree():
    E = build_E(4)
    A = annihilation_span(E)
    Astar = adjoint(A)
    for t, s in ((A, Astar), (Astar, A), (A, A)):
        lit = degroupoidify_span(compose_literal(t, s), 0)
        ske = degroupoidify_span(compose_spans(t, s), 0)
        assert lit == ske


def test_trace_of_annihilation_is_empty():
    from spancalc.spans import trace_span
    E = build_E(4)
    tr, value = trace_span(annihilation_span(E))
    assert tr.n_objects == 0
    assert value == 0


def test_field_span_matrix():
    E = build_E(5)
    phi = degroupoidify_span(field_span(E), 0)
    a = degroupoidify_span(annihilation_span(E), 0)
    astar = degroupoidify_span(creation_span(E), 0)
    assert phi == a + astar


def test_normal_ordered_powers_match_polynomials():
    E = build_E(5)
    a = degroupoidify_span(annihilation_span(E), 0)
    astar = degroupoidify_span(creation_span(E), 0)
    eye = RationalMatrix.identity(6)
    polys = {
        0: eye,
        1: a + astar,
        2: (a @ a) + (astar @ a).scale(2) + (astar @ astar),
        3: (a @ a @ a) + (astar @ a @ a).scale(3)
           + (astar @ astar @ a).scale(3) + (astar @ astar @ astar),
        4: (a @ a @ a @ a) + (astar @ a @ a @ a).scale(4)
           + (astar @ astar @ a @ a).scale(6)
           + (astar @ astar @ astar @ a).scale(4)
           + (astar @ astar @ astar @ astar),
    }
    for n, want in polys.items():
        got = degroupoidify_span(normal_ordered_power(n, E), 0)
        assert got == want, f"normal-ordered power {n}"
    assert normal_ordered_terms(5) == [(1, 0, 5), (5, 1, 4), (10, 2, 3),
                                       (10, 3, 2), (5, 4, 1), (1, 5, 0)]
    with pytest.raises(ValueError):
        normal_ordered_power(-1, E)


def test_normal_ordered_power_default_within_budget():
    E = build_E(5)
    start = time.monotonic()
    m = degroupoidify_span(normal_ordered_power(4, E), 0)
    elapsed = time.monotonic() - start
    assert m.data[0][4] == 24   # only A^4 reaches row 0: 4 * 3 * 2 * 1
    assert elapsed < 2.0, f"normal-ordered power 4 took {elapsed:.2f}s"


def test_ccr_at_seven_within_budget():
    start = time.monotonic()
    report = verify_ccr(build_E(7))
    elapsed = time.monotonic() - start
    assert report.ok
    assert report.discrepancies == ((7, 7, -8),)
    assert elapsed < 2.0, f"N=7 CCR took {elapsed:.2f}s"


def test_fock_matrices_nonnegative():
    E = build_E(4)
    for span in (annihilation_span(E), creation_span(E), field_span(E),
                 normal_ordered_power(2, E)):
        m = degroupoidify_span(span, 0)
        assert all(entry >= 0 for row in m.data for entry in row)
