import math
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spancalc import fock
from spancalc.exact import SizeCapError
from spancalc.fock import (
    ANNIHILATION,
    CREATION,
    FIELD,
    IDENTITY,
    add_spans,
    compose_spans as fock_compose,
    e_partial_sum,
    entries,
    generating_function,
    matrix,
    normal_ordered_power,
    printed_digits,
    psi_n as fock_psi_n,
    span_power,
    two_colored_stuff as fock_two_colored,
    verify_ccr,
)
from spancalc.groupoid import (
    GroupoidFunctor,
    cardinality,
    iso_classes,
    validate_groupoid,
)
from spancalc.spans import compose_spans, degroupoidify_span

from oracles import (
    Matrix,
    adjoint,
    annihilation_span,
    build_E,
    compose_literal,
    coproduct,
    creation_span,
    degroupoidify_per_class,
    full_inverse_image,
    psi_n,
    trace_literal,
    two_colored_stuff,
    vector_entries,
    vector_span,
    weak_pullback_literal,
)

FACT = [1, 1, 2, 6, 24, 120, 720, 5040, 40320]
ALPHAS = (0, 1, Fraction(1, 2))


def fock_matrix(span, N: int, alpha=0) -> Matrix:
    return Matrix(N + 1, N + 1, matrix(span, N, alpha))


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


def test_e_partial_sum_is_the_cardinality_of_the_materialized_E():
    for N in range(9):
        assert e_partial_sum(N) == build_E(N).cardinality


def test_printed_digits_are_those_of_ten_times_n_factorial():
    # counted by comparison with powers of 10, so no int is printed
    factorial, digits, power = 10, 2, 100
    for N in range(3001):
        factorial *= max(N, 1)
        while factorial >= power:
            digits += 1
            power *= 10
        assert printed_digits(N) == digits, N


def test_psi_n_vectors():
    v0 = generating_function(fock_psi_n(0, 6), 6)
    assert v0.coefficients == (1, 0, 0, 0, 0, 0, 0)
    v3 = generating_function(fock_psi_n(3, 6), 6)
    assert v3.coefficients[3] == Fraction(1, 6)
    assert sum(1 for e in v3.coefficients if e != 0) == 1
    with pytest.raises(ValueError):
        fock_psi_n(7, 6)


def test_stuff_type_vectors_match_the_materialized_oracle():
    E = build_E(5)
    for alpha in ALPHAS:
        for n in range(6):
            assert generating_function(fock_psi_n(n, 5), 5, alpha) \
                .coefficients == vector_entries(psi_n(n, E).vector, alpha)
        assert generating_function(fock_two_colored(5), 5, alpha) \
            .coefficients == vector_entries(two_colored_stuff(E).vector,
                                            alpha)


def test_two_colored_projection_is_a_functor():
    stuff = two_colored_stuff(build_E(4))
    assert stuff.vector.left.validate() == []


def test_two_colored_generating_function():
    stuff = fock_two_colored(6)
    series = generating_function(stuff, 6)
    assert series.coefficients == tuple(
        Fraction(2 ** n, FACT[n]) for n in range(7))
    homology_side = generating_function(stuff, 6, 1)
    assert homology_side.coefficients == tuple(
        Fraction(2 ** n) for n in range(7))


def test_two_colored_full_inverse_image_cardinality():
    E = build_E(4)
    stuff = two_colored_stuff(E)
    for n in range(5):
        fiber = full_inverse_image(stuff.vector.left, n)
        assert cardinality(fiber) == Fraction(2 ** n, FACT[n])


def test_generating_function_additive_under_coproduct():
    E = build_E(4)
    a = psi_n(2, E).vector.left
    b = two_colored_stuff(E).vector.left
    total = coproduct(a.domain, b.domain)[0]
    summed = vector_span(GroupoidFunctor(total, E.groupoid,
                                         a.obj_map + b.obj_map,
                                         a.mor_map + b.mor_map))
    va, vb = vector_entries(vector_span(a)), vector_entries(vector_span(b))
    assert vector_entries(summed) == tuple(x + y for x, y in zip(va, vb))


def test_annihilation_matrix_is_derivative():
    a = matrix(ANNIHILATION, 6)
    for row in range(7):
        for col in range(7):
            expected = col if col == row + 1 else 0
            assert a[row][col] == expected


def test_creation_matrix_is_multiplication_by_z():
    astar = matrix(CREATION, 6)
    for row in range(7):
        for col in range(7):
            expected = 1 if row == col + 1 else 0
            assert astar[row][col] == expected


def test_annihilation_sends_psi_n_down():
    E = build_E(5)
    A = annihilation_span(E)
    for n in (1, 2, 4):
        image = compose_spans(A, psi_n(n, E).vector)
        assert vector_entries(image) == vector_entries(psi_n(n - 1, E).vector)
    up = compose_spans(creation_span(E), psi_n(0, E).vector)
    assert vector_entries(up) == vector_entries(psi_n(1, E).vector)


def test_psi_inner_products_are_kronecker_over_factorial():
    E = build_E(4)
    for m in range(5):
        for n in range(5):
            P = compose_spans(adjoint(psi_n(m, E).vector),
                              psi_n(n, E).vector).apex
            assert cardinality(P) == (Fraction(1, FACT[n]) if m == n else 0)
            if m != n:
                assert P.n_objects == 0


def test_psi2_pullback_cardinality():
    E = build_E(4)
    P, _, _ = weak_pullback_literal(psi_n(2, E).vector.left,
                                    psi_n(2, E).vector.left)
    assert cardinality(P) == Fraction(1, 2)


def test_ccr_block_and_boundary():
    for N in (2, 4, 6):
        report = verify_ccr(N)
        assert report.ok
        assert [(i, j) for i, j, _v in report.discrepancies] == [(N, N)]
        assert report.discrepancies[0][2] == -N - 1


def test_ccr_reports_a_broken_relation(monkeypatch):
    # with 2a for A, [2a, a*] = 2: the commutator minus 1 reads 1 on the
    # whole diagonal of the block, labelled as inside it, and -(2N + 1) at
    # the boundary
    monkeypatch.setattr(fock, "ANNIHILATION", {(0, 1): 2})
    report = verify_ccr(4)
    assert not report.ok and str(report).startswith("FAIL")
    assert report.discrepancies == ((0, 0, 1), (1, 1, 1), (2, 2, 1),
                                    (3, 3, 1), (4, 4, -9))
    assert str(report).splitlines()[1:] == [
        f"  inside the block ({n},{n}): AA* - A*A - 1 = 1" for n in range(4)
    ] + ["  truncation boundary (4,4): AA* - A*A - 1 = -9"]


def test_ccr_fails_when_the_exact_identity_fails(monkeypatch):
    # an extra a*a in every composite breaks a a* = a* a + 1 as spans,
    # though the truncated matrices still commute to 1 on the block
    good = fock.compose_spans
    monkeypatch.setattr(fock, "compose_spans", lambda t, s: add_spans(
        good(t, s), {(1, 1): 1} if t == ANNIHILATION else {}))
    report = verify_ccr(4)
    assert not report.ok and str(report).startswith("FAIL")
    assert report.discrepancies == ((4, 4, -5),)


def test_add_spans_adds_two_spans():
    assert add_spans({(1, 0): 2}, {(1, 0): 1, (0, 0): 1}) == \
        {(1, 0): 3, (0, 0): 1}
    with pytest.raises(TypeError):
        add_spans({}, {}, 2)     # a scaled sum is the sum of a scaled span


def test_ccr_holds_exactly_as_spans():
    # a a* = a* a + 1 with no truncation, so with no boundary
    aastar = fock_compose(ANNIHILATION, CREATION)
    assert aastar == {(1, 1): 1, (0, 0): 1}
    assert aastar == add_spans(fock_compose(CREATION, ANNIHILATION), IDENTITY)


def test_aastar_composite_matrix_diagonal():
    E = build_E(4)
    A = annihilation_span(E)
    m = degroupoidify_span(compose_literal(A, adjoint(A)), 0)
    for n in range(4):
        assert m.data[n][n] == n + 1
    assert m.data[4][4] == 0


def test_entries_equal_the_per_class_factorials(monkeypatch):
    # the oracle forms (u + l)!, (u + k)! and u! afresh for every class;
    # entries keeps running products, two factorials per monomial
    calls = []
    factorial = math.factorial
    monkeypatch.setattr(fock, "math", SimpleNamespace(**{
        **vars(math), "factorial": lambda n: calls.append(n) or factorial(n)}))
    spans = (CREATION, ANNIHILATION, FIELD,
             fock_compose(ANNIHILATION, CREATION))
    for s in spans:
        for N in range(41):
            for alpha in (0, 1, -1, Fraction(1, 2)):
                calls.clear()
                want = degroupoidify_per_class(
                    (((u + k, u + l), factorial(u + l), factorial(u + k),
                      factorial(u), c)
                     for (k, l), c in s.items()
                     for u in range(N - max(k, l) + 1)), alpha)
                assert entries(s, N, alpha) == want, (s, N, alpha)
                assert len(calls) <= 2 * len(s)


def test_compose_literal_and_skeletal_agree():
    E = build_E(4)
    A = annihilation_span(E)
    Astar = adjoint(A)
    for t, s in ((A, Astar), (Astar, A), (A, A)):
        lit = degroupoidify_span(compose_literal(t, s), 0)
        ske = degroupoidify_span(compose_spans(t, s), 0)
        assert lit == ske


# -- the closed form against the weak pullback on the materialized E ---------

def _word_spans(word, N):
    """The monomial and the materialized composite of a word in A (0) and
    A* (1), read as an operator product: its last letter acts first.

    Each letter moves the foot by one, so between feet of size at most N
    every middle foot of the word has size at most N + len(word) // 2; the
    oracle, built at that size, cuts none off on the block x, y <= N."""
    E = build_E(N + len(word) // 2)
    oracle = {0: annihilation_span(E)}
    oracle[1] = adjoint(oracle[0])
    closed = {0: ANNIHILATION, 1: CREATION}
    s, t = closed[word[-1]], oracle[word[-1]]
    for letter in reversed(word[:-1]):
        s = fock_compose(closed[letter], s)
        t = compose_spans(oracle[letter], t)
    return s, t


def _block_classes(closed, oracle, N):
    """The apex classes with both feet at most N, counted in the closed
    form (c of them for each u <= N - max(k, l)) and in the oracle."""
    table = iso_classes(oracle.apex)
    on_block = sum(oracle.left.obj_map[r] <= N and oracle.right.obj_map[r] <= N
                   for r in table.representative)
    return sum(c * max(0, N - max(k, l) + 1)
               for (k, l), c in closed.items()), on_block


def _block(rows, N):
    return [row[:N + 1] for row in rows[:N + 1]]


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(N=st.integers(1, 5),
       word=st.lists(st.sampled_from([0, 1]), min_size=1, max_size=4))
def test_closed_form_matches_the_weak_pullback_on_E(N, word):
    closed, oracle = _word_spans(word, N)
    for alpha in ALPHAS:
        assert matrix(closed, N, alpha) == \
            _block(degroupoidify_span(oracle, alpha).data, N), (word, alpha)
    counted, on_block = _block_classes(closed, oracle, N)
    assert counted == on_block


def test_closed_form_marks_a_lone_unmarked_point():
    # A A* A = A* A A + A.  At N = 2, (1, 2) carries two classes with
    # trivial automorphisms: a*a^2 with no unmarked point, and a with one
    closed, oracle = _word_spans([0, 1, 0], 2)
    assert closed == {(1, 2): 1, (0, 1): 1}
    assert matrix(closed, 2)[1][2] == 4
    assert degroupoidify_span(oracle, 0).data[1][2] == 4
    counted, on_block = _block_classes(closed, oracle, 2)
    assert counted == on_block == 3


def test_trace_of_annihilation_is_empty():
    E = build_E(4)
    tr, value = trace_literal(annihilation_span(E))
    assert tr.n_objects == 0
    assert value == 0


def test_field_span_matrix():
    phi = fock_matrix(FIELD, 5)
    a = fock_matrix(ANNIHILATION, 5)
    astar = fock_matrix(CREATION, 5)
    assert phi == a + astar


def test_normal_ordered_powers_match_polynomials():
    N = 6
    a = fock_matrix(ANNIHILATION, N)
    astar = fock_matrix(CREATION, N)
    eye = Matrix.identity(N + 1)
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
    for n in (5, 6):
        want = Matrix(N + 1, N + 1)
        for j in range(n + 1):
            term = eye
            for _ in range(j):
                term = term @ astar
            for _ in range(n - j):
                term = term @ a
            want = want + term.scale(math.comb(n, j))
        polys[n] = want
    for n, want in polys.items():
        got = fock_matrix(normal_ordered_power(n), N)
        assert got == want, f"normal-ordered power {n}"
    assert normal_ordered_power(5) == {(0, 5): 1, (1, 4): 5, (2, 3): 10,
                                       (3, 2): 10, (4, 1): 5, (5, 0): 1}
    with pytest.raises(ValueError):
        normal_ordered_power(-1)


def test_normal_ordered_power_default_within_budget():
    start = time.monotonic()
    m = matrix(normal_ordered_power(4), 5)
    elapsed = time.monotonic() - start
    assert m[0][4] == 24   # only A^4 reaches row 0: 4 * 3 * 2 * 1
    assert elapsed < 2.0, f"normal-ordered power 4 took {elapsed:.2f}s"


def test_ccr_at_seven_within_budget():
    start = time.monotonic()
    report = verify_ccr(7)
    elapsed = time.monotonic() - start
    assert report.ok
    assert report.discrepancies == ((7, 7, -8),)
    assert elapsed < 2.0, f"N=7 CCR took {elapsed:.2f}s"


def test_fock_matrices_nonnegative():
    for span in (ANNIHILATION, CREATION, FIELD, normal_ordered_power(2)):
        m = matrix(span, 4)
        assert all(entry >= 0 for row in m for entry in row)


# -- Wick's theorem ------------------------------------------------------------

def test_vacuum_expectations_of_field_powers_are_pairings():
    # <0|phi^k|0> counts the perfect matchings of k points: (k - 1)!! for
    # even k, 0 for odd k
    start = time.monotonic()
    power = span_power(FIELD, 1)
    got = []
    for _k in range(2, 11):
        power = fock_compose(FIELD, power)
        got.append(entries(power, 12).get((0, 0), 0))
    elapsed = time.monotonic() - start
    assert got == [1, 0, 3, 0, 15, 0, 105, 0, 945]
    assert elapsed < 2.0, f"took {elapsed:.2f}s"


def _stirling2(n_max: int) -> list[list[int]]:
    """S(n, k), the Stirling numbers of the second kind, for n <= n_max."""
    S = [[1] + [0] * n_max]
    for n in range(1, n_max + 1):
        S.append([0] + [k * S[n - 1][k] + S[n - 1][k - 1]
                        for k in range(1, n_max + 1)])
    return S


def test_number_operator_powers_are_stirling_sums():
    # (a*a)^n = sum_k S(n, k) a*^k a^k and
    # (aa*)^n = sum_k S(n + 1, k + 1) a*^k a^k (Blasiak-Penson-Solomon)
    S = _stirling2(9)
    number = fock_compose(CREATION, ANNIHILATION)
    shifted = fock_compose(ANNIHILATION, CREATION)
    for n in range(9):
        assert span_power(number, n) == {
            (k, k): S[n][k] for k in range(n + 1) if S[n][k]}, n
        assert span_power(shifted, n) == {
            (k, k): S[n + 1][k + 1] for k in range(n + 1)}, n


def test_field_powers_are_wick_sums_of_normal_ordered_powers():
    # phi^n = sum_k C(n, 2k) (2k - 1)!! :phi^(n - 2k):, the (2k - 1)!!
    # perfect matchings of the 2k contracted points
    for n in range(11):
        want: dict = {}
        for k in range(n // 2 + 1):
            pairings = math.prod(range(2 * k - 1, 0, -2))
            weight = math.comb(n, 2 * k) * pairings
            want = add_spans(want, {m: weight * c for m, c in
                                    normal_ordered_power(n - 2 * k).items()})
        assert span_power(FIELD, n) == want, n


def test_ccr_at_twelve_within_budget():
    start = time.monotonic()
    report = verify_ccr(12)
    elapsed = time.monotonic() - start
    assert report.ok and report.discrepancies == ((12, 12, -13),)
    assert elapsed < 1.0, f"N=12 CCR took {elapsed:.2f}s"
