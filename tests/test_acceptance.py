"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check prints a PASS/FAIL line (run with ``pytest -s`` to see them all)
and enforces the stated runtime budget where one applies.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from spancalc.fock import (
    e_partial_sum,
    generating_function,
    matrix,
    normal_ordered_power,
    two_colored_stuff,
    verify_ccr,
)
from spancalc.groupoid import GroupoidFunctor, cardinality, iso_classes
from spancalc.hall import HallAlgebra, parse_quiver
from spancalc.hecke import (flag_geometry, hecke_structure_constants,
                            relative_positions, verify_hecke_relations)
from spancalc.spans import compose_spans, degroupoidify_span

from helpers import (group_route_constants, random_cyclic_action,
                     random_groupoid, random_span)
from oracles import (GroupAction, Matrix, add_spans, adjoint,
                     alpha_change_of_basis, annihilation_span, basis_vector,
                     bruhat_orbits, build_E, build_group, cardinality_alt,
                     check_equivalence_certificate, connected, cyclic_table,
                     degroupoidify_equivariant, from_group_table,
                     hecke_product, identity_span, materialize,
                     materialize_span, pairing, product, psi_n, scalar_mul,
                     skeleton, span_matrix, terminal, trace_literal,
                     triple_block_span, vector_span)

FACT = [math.factorial(n) for n in range(12)]


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status}  criterion {criterion}{suffix}")
    assert ok, f"criterion {criterion} failed{suffix}"


def test_criterion_01_cardinality_formulas_agree():
    start = time.monotonic()
    rng = random.Random(2024)
    count = 0
    ok = True
    for _ in range(60):
        g = random_groupoid(rng, max_objects=8)
        ok = ok and cardinality(g) == cardinality_alt(g)
        count += 1
    elapsed = time.monotonic() - start
    report("1", ok and count >= 50 and elapsed < 5.0,
           f"{count} groupoids in {elapsed:.2f}s")


def test_criterion_02_equivalence_invariance():
    rng = random.Random(2025)
    pairs = 0
    ok = True
    for _ in range(14):
        g = random_groupoid(rng, max_objects=6)
        sk, f = skeleton(g)
        ok = ok and check_equivalence_certificate(f)
        ok = ok and cardinality(g) == cardinality(sk)
        pairs += 1
    # hand-built equivalences: one-object inclusion and product-with-terminal
    for table in (cyclic_table(1), cyclic_table(2), cyclic_table(3),
                  cyclic_table(4)):
        big = connected(3, table)
        small = connected(1, table)
        n = len(table)
        inc = GroupoidFunctor(small, big, (0,), tuple(range(n)))
        ok = ok and check_equivalence_certificate(inc)
        ok = ok and cardinality(small) == cardinality(big)
        pairs += 1
        prod, proj, _ = product(big, terminal())
        ok = ok and check_equivalence_certificate(proj)
        ok = ok and cardinality(prod) == cardinality(big)
        pairs += 1
    report("2", ok and pairs >= 20, f"{pairs} certified pairs")


def test_criterion_03_folding_examples():
    z2 = from_group_table(cyclic_table(2))
    free6 = GroupAction(z2, [[0, 1, 2, 3, 4, 5], [3, 4, 5, 0, 1, 2]])
    fix5 = GroupAction(z2, [[0, 1, 2, 3, 4], [4, 3, 2, 1, 0]])
    ok = free6.orbits().cardinality == 3
    ok = ok and fix5.orbits().cardinality == Fraction(5, 2)
    ok = ok and cardinality(materialize(free6)) == 3
    ok = ok and cardinality(materialize(fix5)) == Fraction(5, 2)
    report("3", ok, "|6//Z2| = 3, |5//Z2| = 5/2")


def test_criterion_04_truncated_e_cardinalities():
    start = time.monotonic()
    exact = build_E(6).cardinality
    ok = exact == Fraction(1957, 720)
    approx = e_partial_sum(10)
    tail = math.e - float(approx)
    # the exact series remainder lies between the first omitted term 1/11!
    # and its geometric bound (12/11)/11!; the check pins both sides
    lower = 1 / FACT[11]
    upper = 12 / 11 / FACT[11]
    ok = ok and lower < tail < upper
    elapsed = time.monotonic() - start
    report("4", ok and elapsed < 1.0,
           f"|E<=6| = {exact}, e tail {tail:.3e} in (1/11!, 12/11/11!), "
           f"{elapsed:.2f}s")


def test_criterion_05_fock_inner_products():
    start = time.monotonic()
    E = build_E(6)
    stuff = [psi_n(n, E).vector for n in range(7)]
    ok = True
    for m in range(7):
        for n in range(7):
            value = pairing(stuff[m], stuff[n])
            expected = Fraction(1, FACT[n]) if m == n else 0
            ok = ok and value == expected
    elapsed = time.monotonic() - start
    report("5", ok and elapsed < 10.0, f"m,n <= 6 in {elapsed:.2f}s")


def test_criterion_06_ccr():
    start = time.monotonic()
    result = verify_ccr(6)
    elapsed = time.monotonic() - start
    ok = result.ok and all(i == 6 and j == 6
                           for i, j, _v in result.discrepancies)
    report("6", ok and elapsed < 10.0,
           f"block {{0..5}}^2 exact in {elapsed:.2f}s")


def test_criterion_07_two_colored_generating_function():
    series = generating_function(two_colored_stuff(6), 6)
    ok = series.coefficients == tuple(
        Fraction(2 ** n, FACT[n]) for n in range(7))
    report("7", ok, "coefficients 2^n/n! for n <= 6")


def test_criterion_08_normal_ordered_powers():
    start = time.monotonic()
    E = build_E(6)
    A = annihilation_span(E)
    a = span_matrix(A)
    astar = span_matrix(adjoint(A))
    want2 = (a @ a) + (astar @ a).scale(2) + (astar @ astar)
    want3 = (a @ a @ a) + (astar @ a @ a).scale(3) \
        + (astar @ astar @ a).scale(3) + (astar @ astar @ astar)
    got2 = Matrix(7, 7, matrix(normal_ordered_power(2), 6))
    got3 = Matrix(7, 7, matrix(normal_ordered_power(3), 6))
    elapsed = time.monotonic() - start
    report("8", got2 == want2 and got3 == want3 and elapsed < 30.0,
           f":phi^2:, :phi^3: exact in {elapsed:.2f}s")


def test_criterion_09_hecke_relations():
    ok = True
    for q in (2, 3):
        ok = ok and verify_hecke_relations(q).ok
    start = time.monotonic()
    ok = ok and verify_hecke_relations(5).ok
    elapsed5 = time.monotonic() - start
    report("9", ok and elapsed5 < 10.0,
           f"q in {{2,3,5}}, q=5 in {elapsed5:.2f}s")


def test_criterion_10_bruhat_orbit_count():
    # q = 2 by the orbits of SL(3, 2) on flag pairs; q = 3, where that pair
    # table has 15.2M entries, by the relative positions of flag incidence
    ok = bruhat_orbits(build_group(2))[0].n_classes == 6
    start = time.monotonic()
    position, _sizes = relative_positions(flag_geometry(3))
    ok = ok and len(set(position)) == 6
    elapsed3 = time.monotonic() - start
    report("10", ok and elapsed3 < 120.0,
           f"6 orbits: q=2 from the SL(3,2) pair action, q=3 from relative "
           f"positions in {elapsed3:.2f}s")


def test_criterion_11_groupoidified_hecke_product():
    start = time.monotonic()
    q = 2
    hg = build_group(q)
    tensor = hecke_structure_constants(q)
    e = basis_vector(tensor, "e")
    p = basis_vector(tensor, "P")
    l = basis_vector(tensor, "L")
    ok = hecke_product(tensor, p, p) == \
        [(q - 1) * a + q * b for a, b in zip(p, e)]
    ok = ok and hecke_product(tensor, l, l) == \
        [(q - 1) * a + q * b for a, b in zip(l, e)]
    ok = ok and hecke_product(tensor, hecke_product(tensor, p, l), p) == \
        hecke_product(tensor, hecke_product(tensor, l, p), l)
    # dual-path oracle on sampled sub-blocks: equivariant fast path vs the
    # fully materialized action groupoid span, vs the tensor entry
    labels = tensor.labels
    for u, v, w in (("P", "P", "e"), ("P", "P", "P"),
                    ("L", "L", "e"), ("P", "L", "PL")):
        span = triple_block_span(hg, u, v, w)
        fast = degroupoidify_equivariant(span, 0)
        slow = degroupoidify_span(materialize_span(span), 0)
        entry = tensor.tensor[labels.index(u)][labels.index(v)][labels.index(w)]
        ok = ok and fast == slow and fast.data[0][0] == entry
    ok = ok and tensor.tensor == group_route_constants(hg).tensor
    elapsed = time.monotonic() - start
    report("11", ok and elapsed < 60.0,
           f"q=2 relations and dual paths in {elapsed:.2f}s")


def test_criterion_12_hall_algebra():
    start = time.monotonic()
    ok = True
    for q in (2, 3):
        algebra = HallAlgebra(parse_quiver("a2"), q)
        dims = [d for d in itertools.product(range(3), repeat=2)]
        for dm in dims:
            for dn in dims:
                if any(a + b > 2 for a, b in zip(dm, dn)):
                    continue
                for M in algebra.classes(dm):
                    for N in algebra.classes(dn):
                        ok = ok and algebra.product(M, N) == \
                            algebra.product_via_span(M, N)
        ok = ok and algebra.check_associativity((2, 2)) == []
    # structure constants frozen from the brute-force enumeration
    h2 = HallAlgebra(parse_quiver("a2"), 2)
    S1 = h2.classes((1, 0))[0]
    S2 = h2.classes((0, 1))[0]
    E0, E1 = h2.classes((1, 1))
    ok = ok and h2.product(S1, S2) == {E0.key: 1, E1.key: 1}
    ok = ok and h2.product(S2, S1) == {E0.key: 1}
    elapsed = time.monotonic() - start
    report("12", ok and elapsed < 120.0,
           f"A2, q in {{2,3}}, dim <= (2,2) in {elapsed:.2f}s")


def test_criterion_13_functoriality_suite():
    rng = random.Random(1313)
    ok = True
    pairs = 0
    while pairs < 32:
        k = rng.choice([2, 3, 4, 6])
        ax = random_cyclic_action(rng, k, rng.randint(1, 4))
        ay = random_cyclic_action(rng, k, rng.randint(1, 4))
        az = random_cyclic_action(rng, k, rng.randint(1, 4))
        s = random_span(rng, k, ay, ax)
        t = random_span(rng, k, az, ay)
        ts = compose_spans(t, s)
        for alpha in (0, 1):
            ok = ok and degroupoidify_span(ts, alpha) == \
                span_matrix(t, alpha) @ span_matrix(s, alpha)
        # identity span degroupoidifies to the identity matrix
        x = s.source
        n = iso_classes(x).n_classes
        ok = ok and degroupoidify_span(identity_span(x)) == \
            Matrix.identity(n)
        # change of normalization: T diag |Aut|^(a-b) obeys T_Y m_b = m_a T_X
        for a_exp, b_exp in ((0, 1), (1, 0)):
            t_x = alpha_change_of_basis(s.source, a_exp - b_exp)
            t_y = alpha_change_of_basis(s.target, a_exp - b_exp)
            ok = ok and t_y @ degroupoidify_span(s, b_exp) == \
                span_matrix(s, a_exp) @ t_x
        pairs += 1
    report("13", ok and pairs >= 30, f"{pairs} composable pairs, alpha 0 and 1")


def test_criterion_14_adjoint_and_trace_suite():
    rng = random.Random(1414)
    ok = True
    for _ in range(10):
        k = rng.choice([2, 3, 4])
        ax = random_cyclic_action(rng, k, rng.randint(1, 3))
        ay = random_cyclic_action(rng, k, rng.randint(1, 3))
        one = random_cyclic_action(rng, k, 1)
        s = random_span(rng, k, ay, ax)
        psi_s = random_span(rng, k, ax, one)
        phi_s = random_span(rng, k, ay, one)
        psi = vector_span(psi_s.left)
        phi = vector_span(phi_s.left)
        lhs = pairing(phi, compose_spans(s, psi))
        rhs = pairing(compose_spans(adjoint(s), phi), psi)
        ok = ok and lhs == rhs
        u = random_span(rng, k, ax, ax)
        v = random_span(rng, k, ax, ax)
        _, tr_u = trace_literal(u)
        ok = ok and tr_u == span_matrix(u).trace()
        _, tr_v = trace_literal(v)
        _, tr_sum = trace_literal(add_spans(u, v))
        ok = ok and tr_sum == tr_u + tr_v
        lam = from_group_table(cyclic_table(2))
        _, tr_scaled = trace_literal(scalar_mul(lam, u))
        ok = ok and tr_scaled == Fraction(1, 2) * tr_u
        w = random_span(rng, k, ax, ay)
        _, tr_sw = trace_literal(compose_spans(s, w))
        _, tr_ws = trace_literal(compose_spans(w, s))
        ok = ok and tr_sw == tr_ws
    report("14", ok, "inner-product adjunction and trace identities")
