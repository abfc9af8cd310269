import collections
import itertools
import math
from fractions import Fraction

import pytest

from spancalc.exact import SizeCapError
from spancalc.fq import (_gl_generators, echelon, mat_inv, mat_mul, mat_vec,
                         subspaces)
from spancalc.hall import (HallAlgebra, Quiver, check_caps, dimvecs_within,
                           parse_quiver)

from helpers import (automorphisms, brute_force_homs, brute_force_ses_count,
                     generated_group, gl_matrices, mat_rank, ses_pairs)
from oracles import (enumerate_reps, euler_form, kostant_partitions,
                     orbit_table, positive_roots, zero_class)


def a2(q: int) -> HallAlgebra:
    return HallAlgebra(parse_quiver("a2"), q)


def test_quiver_parsing_and_ade_check():
    assert parse_quiver("a1").n_vertices == 1
    assert parse_quiver("a2").edges == ((0, 1),)
    assert parse_quiver("a3:><").edges == ((0, 1), (2, 1))
    with pytest.raises(ValueError):
        Quiver(1, ((0, 0),))              # self-loop
    with pytest.raises(ValueError):
        Quiver(2, ((0, 1), (1, 0)))       # doubled edge
    with pytest.raises(ValueError):
        Quiver(3, ((0, 1), (1, 2), (2, 0)))   # cycle
    for outside in (((0, -1),), ((0, 2),)):
        with pytest.raises(ValueError, match="leaves the vertices 0..1"):
            Quiver(2, outside)


def _chain(n: int, branch: int | None = None) -> tuple:
    """The edges i -> i + 1 of a path on n vertices, and with ``branch``
    one more vertex n attached to vertex ``branch``."""
    edges = tuple((i, i + 1) for i in range(n - 1))
    return edges if branch is None else edges + ((n, branch),)


@pytest.mark.parametrize("n, edges, n_roots", [
    (5, _chain(5), 15),             # A5
    (5, _chain(4, 2), 20),          # D5: arms 1, 1 and 2 at vertex 2
    (6, _chain(5, 2), 36),          # E6: arms 1, 2 and 2
    (7, _chain(6, 2), 63),          # E7: arms 1, 2 and 3
    (8, _chain(7, 2), 120),         # E8: arms 1, 2 and 4
    (3, ((0, 1),), 4),              # A2 and A1 apart
])
def test_the_tits_form_accepts_the_dynkin_quivers_and_counts_their_roots(
        n, edges, n_roots):
    assert len(positive_roots(Quiver(n, edges))) == n_roots


@pytest.mark.parametrize("n, edges", [
    (3, ((0, 1), (1, 2), (2, 0))),              # the 3-cycle, affine A2
    (5, ((1, 0), (2, 0), (3, 0), (4, 0))),      # affine D4
    (2, ((0, 1), (0, 1))),                      # the Kronecker quiver
    (1, ((0, 0),)),                             # a self-loop
    (2, ((0, 1), (1, 0))),                      # a 2-cycle
    (9, _chain(8, 2)),                          # affine E8: arms 1, 2, 5
])
def test_the_tits_form_rejects_the_other_quivers(n, edges):
    with pytest.raises(ValueError, match="Tits form is not positive"):
        Quiver(n, edges)


def test_linear_algebra_helpers():
    m = ((1, 2), (0, 1))
    assert mat_rank(m, 3) == 2
    assert mat_mul(m, mat_inv(m, 3), 3) == ((1, 0), (0, 1))
    for singular in (((1, 2), (2, 4)), ((0, 0), (0, 1)), ((0,),)):
        with pytest.raises(ValueError):
            mat_inv(singular, 3)
    assert len(subspaces(2, 2)) == 5       # 0, three lines, the plane
    assert len(subspaces(2, 3)) == 6


def test_class_tables_a2_q2():
    h = a2(2)
    assert len(h.classes((1, 0))) == 1
    assert h.classes((1, 0))[0].aut_order == 1      # |GL(1, F_2)| = 1
    assert len(h.classes((1, 1))) == 2              # zero map, iso map
    assert len(h.classes((2, 1))) == 2              # by rank of the 1x2 map
    assert len(h.classes((2, 2))) == 3              # by rank of the 2x2 map


def test_class_orbit_stabilizer():
    for q in (2, 3):
        h = a2(q)
        for dimvec in [(1, 1), (2, 1), (2, 2)]:
            group_size = 1
            for d in dimvec:
                group_size *= len(gl_matrices(d, q))
            for cls in h.classes(dimvec):
                assert cls.aut_order * cls.class_size == group_size
                assert len(automorphisms(h, cls)) == cls.aut_order


def test_aut_of_simple_class_is_gl1():
    for q in (2, 3):
        h = a2(q)
        assert h.classes((1, 0))[0].aut_order == q - 1


def test_hall_numbers_frozen_goldens_q2():
    # values computed by the brute-force pair enumeration below and frozen
    h = a2(2)
    S1 = h.classes((1, 0))[0]
    S2 = h.classes((0, 1))[0]
    E0, E1 = h.classes((1, 1))       # zero map, then the indecomposable
    assert E0.rep.mats == (((0,),),)
    assert len(ses_pairs(h, S1, S2, E0)) == 1
    assert len(ses_pairs(h, S1, S2, E1)) == 1
    assert len(ses_pairs(h, S2, S1, E0)) == 1
    assert len(ses_pairs(h, S2, S1, E1)) == 0
    twoS1 = h.classes((2, 0))[0]
    assert len(ses_pairs(h, S1, S1, twoS1)) == 3


def test_hall_number_zero_when_dimensions_do_not_add():
    h = a2(2)
    S1 = h.classes((1, 0))[0]
    E = h.classes((1, 1))[0]
    assert ses_pairs(h, S1, S1, E) == []


def test_product_goldens_and_noncommutativity():
    h = a2(2)
    S1 = h.classes((1, 0))[0]
    S2 = h.classes((0, 1))[0]
    E0, E1 = h.classes((1, 1))
    assert h.product(S1, S2) == {E0.key: 1, E1.key: 1}
    assert h.product(S2, S1) == {E0.key: 1}
    assert h.product(S1, S2) != h.product(S2, S1)


def test_zero_class_is_the_unit():
    for q in (2, 3):
        h = a2(q)
        zero = zero_class(h)
        for dimvec in [(1, 0), (1, 1), (2, 1)]:
            for cls in h.classes(dimvec):
                one = {cls.key: 1}
                assert h.product(zero, cls) == one
                assert h.product(cls, zero) == one


def test_product_grading_and_nonnegativity():
    h = a2(2)
    for dm in [(1, 0), (1, 1)]:
        for dn in [(0, 1), (1, 1)]:
            total = tuple(a + b for a, b in zip(dm, dn))
            for M in h.classes(dm):
                for N in h.classes(dn):
                    for (dim, _idx), coeff in h.product(M, N).items():
                        assert dim == total
                        assert coeff > 0


def test_span_route_matches_direct_product():
    for q in (2, 3):
        h = a2(q)
        dims = [d for d in itertools.product(range(3), repeat=2)]
        for dm in dims:
            for dn in dims:
                if any(a + b > 2 for a, b in zip(dm, dn)):
                    continue
                for M in h.classes(dm):
                    for N in h.classes(dn):
                        assert h.product(M, N) == h.product_via_span(M, N)


def test_ses_pair_weak_quotient_route_q2():
    # third route: the literal weak quotient of the (f, g) pair set by
    # Aut(N) x Aut(E) x Aut(M); cardinality times |Aut E| gives the
    # coefficient, matching both other routes
    h = a2(2)
    cases = [((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 1), (1, 0))]
    for dm, dn in cases:
        for M in h.classes(dm):
            for N in h.classes(dn):
                direct = h.product(M, N)
                total = tuple(a + b for a, b in zip(dm, dn))
                for E in h.classes(total):
                    pairs = ses_pairs(h, M, N, E)
                    if not pairs:
                        assert direct.get(E.key, 0) == 0
                        continue
                    aut_n = automorphisms(h, N)
                    aut_e = automorphisms(h, E)
                    aut_m = automorphisms(h, M)
                    q = h.q

                    def act_pair(a, b, c, fg):
                        f, g = fg
                        a_inv = tuple(mat_inv(m, q) for m in a)
                        b_inv = tuple(mat_inv(m, q) for m in b)
                        f2 = tuple(mat_mul(mat_mul(b[v], f[v], q), a_inv[v], q,
                                           cols=N.dimvec[v])
                                   for v in range(2))
                        g2 = tuple(mat_mul(mat_mul(c[v], g[v], q), b_inv[v], q,
                                           cols=E.dimvec[v])
                                   for v in range(2))
                        return (f2, g2)

                    index = {fg: i for i, fg in enumerate(pairs)}
                    triples = list(itertools.product(aut_n, aut_e, aut_m))
                    table = [[index[act_pair(a, b, c, fg)] for fg in pairs]
                             for (a, b, c) in triples]
                    card = orbit_table(table).cardinality
                    assert card == Fraction(len(pairs),
                                            N.aut_order * E.aut_order * M.aut_order)
                    assert E.aut_order * card == direct.get(E.key, 0)


def test_associativity_a2():
    for q in (2, 3):
        assert a2(q).check_associativity((2, 2)) == []


def test_enumeration_bounds_are_enforced():
    h = a2(3)
    with pytest.raises(SizeCapError, match="representation enumeration"):
        h.classes((4, 4))     # 3^16 representations


def test_subspace_cap_counts_the_subspaces_of_every_vertex():
    # G(8) = 417,199 subspaces of F_2^8 pass the cap, G(9) = 8,283,458 not;
    # a1 has no edge, so only this cap bounds its span route
    a1 = parse_quiver("a1")
    check_caps(a1, 2, (8,))
    for dimvec in [(9,), (20,), (10 ** 25,)]:
        with pytest.raises(SizeCapError, match="subspace enumeration"):
            check_caps(a1, 2, dimvec)
    with pytest.raises(SizeCapError, match="subspace enumeration"):
        check_caps(parse_quiver("a2"), 2, (12, 0))
    check_caps(parse_quiver("a2"), 11, (2, 2))


def _gaussian_binomial(n: int, k: int, q: int) -> int:
    out = Fraction(1)
    for i in range(k):
        out *= Fraction(q ** (n - i) - 1, q ** (i + 1) - 1)
    return int(out)


@pytest.mark.parametrize("q", [2, 3])
def test_subspace_cap_is_the_product_of_the_vertices_subspace_counts(q):
    # two vertices and no edge: only the subspace cap applies
    apart = Quiver(2, ())
    for dimvec in itertools.product(range(9), repeat=2):
        needed = math.prod(sum(_gaussian_binomial(d, k, q)
                               for k in range(d + 1)) for d in dimvec)
        if needed <= 10 ** 6:
            check_caps(apart, q, dimvec)
        else:
            with pytest.raises(SizeCapError, match="subspace enumeration"):
                check_caps(apart, q, dimvec)


def test_module_level_enumerate_reps():
    classes = enumerate_reps(parse_quiver("a2"), (2, 1), 2)
    assert [c.label for c in classes] == ["d2,1#0", "d2,1#1"]


def test_associativity_a1_dims_up_to_three():
    h = HallAlgebra(parse_quiver("a1"), 2)
    assert h.check_associativity((3,)) == []
    one = h.classes((1,))[0]
    # [1][1] counts the q+1 lines of the plane
    assert h.product(one, one) == {((2,), 0): 3}


def classes_within(h: HallAlgebra, dmax: tuple[int, ...]) -> list:
    return [cls for d in itertools.product(*[range(b + 1) for b in dmax])
            for cls in h.classes(d)]


def test_quiver_names_d4_and_a4():
    d4 = parse_quiver("d4")
    assert d4.n_vertices == 4
    assert d4.edges == ((1, 0), (2, 0), (3, 0))   # every arm into the centre
    assert parse_quiver("a4").edges == ((0, 1), (1, 2), (2, 3))
    assert parse_quiver("a4:<><").edges == ((1, 0), (1, 2), (3, 2))
    # a<n> by one formula: n - 1 arrows, all '>' when left out
    assert parse_quiver("a1").edges == ()
    assert parse_quiver("a2:<").edges == ((1, 0),)
    assert parse_quiver("a2:>") == parse_quiver("a2")
    assert parse_quiver("a5").edges == ((0, 1), (1, 2), (2, 3), (3, 4))
    assert parse_quiver("a5:<<><").edges == ((1, 0), (2, 1), (2, 3), (4, 3))
    for bad in ("a4:><", "a3:>>>", "a4:>x<", "d5", "a0", "a", "a-1",
                "a1:>", "e6"):
        with pytest.raises(ValueError):
            parse_quiver(bad)


def test_quiver_and_dimension_vector_walks_are_capped():
    # the Tits-form test of a<n> takes about n^3 steps, and the triples of
    # dimension vectors within dmax number prod C(d + 3, 3), 4^n when every
    # d is 1: both are refused before any work
    assert parse_quiver("a100").n_vertices == 100
    with pytest.raises(SizeCapError, match="Tits form of a101"):
        parse_quiver("a101")
    with pytest.raises(SizeCapError, match="Tits form"):
        parse_quiver("a" + "9" * 30)
    assert len(list(dimvecs_within((1,) * 7, 3))) == 4 ** 7
    assert next(dimvecs_within((1,) * 9, 3)) == ((0,) * 9,) * 3
    with pytest.raises(SizeCapError, match="3-tuples of dimension vectors "
                       "needs at least 1048576"):
        next(dimvecs_within((1,) * 10, 3))


@pytest.mark.parametrize("name, q, dmax", [
    ("a2", 2, (2, 2)), ("a2", 3, (2, 2)),
    ("a3:>>", 2, (1, 1, 1)), ("a3:><", 2, (1, 1, 1)), ("a3:<>", 2, (1, 1, 1)),
    ("d4", 2, (1, 1, 1, 1))])
def test_hom_tuples_match_the_brute_force_oracle(name, q, dmax):
    # |Hom(src, dst)| = q^dim, the kernel of the coboundary
    h = HallAlgebra(parse_quiver(name), q)
    classes = classes_within(h, dmax)
    for src, dst in itertools.product(classes, repeat=2):
        rows, unknowns = h._coboundary(src.rep, dst.rep)
        rank = len(echelon(zip(*rows), q))
        assert q ** (unknowns - rank) \
            == len(brute_force_homs(h.quiver, src.rep, dst.rep, q))


@pytest.mark.parametrize("n, q", [(n, q) for q in (2, 3) for n in (0, 1, 2, 3)]
                         + [(2, 5)])
def test_gl_generators_generate_gl(n, q):
    order = 1
    for i in range(n):
        order *= q ** n - q ** i
    assert len(generated_group([(s,) for s in _gl_generators(n, q)], (n,),
                               q)) == order


def test_subspaces_are_echelon_bases_counted_by_gaussian_binomials():
    for q in (2, 3, 5):
        for n in range(4):
            for k in range(n + 1):
                gaussian = Fraction(1)
                for i in range(k):
                    gaussian *= Fraction(q ** (n - i) - 1, q ** (i + 1) - 1)
                spaces = subspaces(n, q, k)
                assert len(spaces) == gaussian
                assert all(echelon(s, q) == s and len(s) == k
                           for s in spaces)
                assert len(set(spaces)) == len(spaces)


def _simples(h: HallAlgebra) -> list[dict]:
    nv = h.quiver.n_vertices
    return [{h.classes(tuple(int(w == v) for w in range(nv)))[0].key: 1}
            for v in range(nv)]


def _times(h: HallAlgebra, *factors: dict) -> dict:
    out = factors[0]
    for x in factors[1:]:
        out = h.element_product(out, x)
    return out


def _combination(h: HallAlgebra, *terms) -> dict:
    """The sum of c times the product of the factors over the terms
    (c, factors), without zero coefficients."""
    out: dict = {}
    for c, factors in terms:
        for k, v in _times(h, *factors).items():
            out[k] = out.get(k, 0) + c * v
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("name, q", [("a2", 2), ("a2", 3), ("a3:>>", 2),
                                     ("a3:><", 2), ("d4", 2)])
def test_quantum_serre_relations(name, q):
    # Ringel: the Hall algebra satisfies the quantum Serre relations, so
    # the simples generate a quotient of U_q^+ of the Lie algebra
    h = HallAlgebra(parse_quiver(name), q)
    u = _simples(h)
    zero: dict = {}
    for a, b in h.quiver.edges:
        assert _combination(h, (1, (u[a], u[a], u[b])),
                            (-(q + 1), (u[a], u[b], u[a])),
                            (q, (u[b], u[a], u[a]))) == zero
        assert _combination(h, (q, (u[b], u[b], u[a])),
                            (-(q + 1), (u[b], u[a], u[b])),
                            (1, (u[a], u[b], u[b]))) == zero
    adjacent = {frozenset(e) for e in h.quiver.edges}
    for a, b in itertools.combinations(range(h.quiver.n_vertices), 2):
        if frozenset((a, b)) not in adjacent:
            assert _times(h, u[a], u[b]) == _times(h, u[b], u[a])
    # a relation whose coefficients are off by one fails
    a, b = h.quiver.edges[0]
    assert _combination(h, (1, (u[a], u[a], u[b])),
                        (-q, (u[a], u[b], u[a])),
                        (q, (u[b], u[a], u[a]))) != zero


@pytest.mark.parametrize("name, q, dmax", [("a2", 3, (2, 2)),
                                           ("d4", 2, (2, 1, 1, 1))])
def test_span_route_counts_the_sequences_and_aut_keeps_its_subobjects(
        name, q, dmax):
    # the span coefficient |X|, times |Aut M| |Aut N|, is the number of
    # short exact sequences; and Aut(E) maps X, the subrepresentations W
    # of E with W isomorphic to N and E/W to M, onto itself, so X//Aut(E)
    # is a weak quotient
    h = HallAlgebra(parse_quiver(name), q)
    moved = 0
    for dm, dn in dimvecs_within(dmax, 2):
        for M in h.classes(dm):
            for N in h.classes(dn):
                via = h.product_via_span(M, N)
                total = tuple(a + b for a, b in zip(dm, dn))
                for E in h.classes(total):
                    assert via.get(E.key, 0) * M.aut_order * N.aut_order \
                        == brute_force_ses_count(h, M, N, E)
                    per_vertex = [subspaces(n, q, k)
                                  for n, k in zip(E.dimvec, dn)]
                    matching = {
                        spaces for spaces in itertools.product(*per_vertex)
                        if [h.classify(r).key for r in
                            h._split(E, spaces) or ()] == [N.key, M.key]}
                    assert len(matching) == via.get(E.key, 0)
                    for g in automorphisms(h, E):
                        for spaces in matching:
                            image = tuple(
                                echelon([mat_vec(m, w, q) for w in W], q)
                                for m, W in zip(g, spaces))
                            assert image in matching
                            moved += image != spaces
    assert moved


def test_d4_is_associative_and_the_routes_agree():
    h = HallAlgebra(parse_quiver("d4"), 2)
    dmax = (2, 1, 1, 1)
    assert h.check_associativity(dmax) == []
    for dm, dn in dimvecs_within(dmax, 2):
        for M in h.classes(dm):
            for N in h.classes(dn):
                assert h.product(M, N) == h.product_via_span(M, N)


@pytest.mark.parametrize("dmax", [(), (0,), (2, 1), (1, 0, 2), (2, 1, 1, 1)])
def test_dimvecs_within_is_the_filtered_lexicographic_product(dmax):
    dims = list(itertools.product(*[range(b + 1) for b in dmax]))
    for k in (1, 2, 3):
        expected = [combo for combo in itertools.product(dims, repeat=k)
                    if all(sum(c) <= b for c, b in zip(zip(*combo), dmax))]
        assert list(dimvecs_within(dmax, k)) == expected


@pytest.mark.parametrize("name, q, dmax", [
    ("a2", 2, (2, 2)), ("a2", 3, (2, 2)), ("a3:><", 2, (1, 1, 1)),
    ("d4", 2, (1, 1, 1, 1))])
def test_hall_number_join_matches_the_all_pairs_count(name, q, dmax):
    h = HallAlgebra(parse_quiver(name), q)
    classes = classes_within(h, dmax)
    nonzero = 0
    for M, N in itertools.product(classes, repeat=2):
        total = tuple(a + b for a, b in zip(M.dimvec, N.dimvec))
        if any(t > bound for t, bound in zip(total, dmax)):
            continue
        for E in h.classes(total):
            # a coefficient times |Aut M| |Aut N| is the number of short
            # exact sequences 0 -> N -> E -> M -> 0
            count = h.product(M, N).get(E.key, 0) * M.aut_order * N.aut_order
            assert count == brute_force_ses_count(h, M, N, E)
            nonzero += count > 0
    assert nonzero


def _cli_work(h: HallAlgebra, dmax: tuple[int, ...]) -> None:
    """What ``spancalc hall`` computes: associativity, then both product
    routes on every pair within the bound."""
    assert h.check_associativity(dmax) == []
    for M, N in itertools.product(classes_within(h, dmax), repeat=2):
        if all(a + b <= bound for a, b, bound
               in zip(M.dimvec, N.dimvec, dmax)):
            assert h.product(M, N) == h.product_via_span(M, N)


def test_integrality_guard_catches_a_wrong_aut_order():
    # at q = 3, S1 . S2 has three cocycles and no Hom: the split extension
    # (|Aut| 4) once and the indecomposable (|Aut| 2) twice, so each
    # coefficient is 4 / (|Aut S1| |Aut S2|) = 4 / 4
    h = a2(3)
    S1, S2 = h.classes((1, 0))[0], h.classes((0, 1))[0]    # Aut = F_3^*
    with pytest.raises(AssertionError, match=r"the Hall number of d1,1#0 in "
                       r"d1,0#0 \. d0,1#0 is 4/6, not an integer"):
        h.product(S1, S2._replace(aut_order=3))
    assert h.product(S1, S2) == {((1, 1), 0): 1, ((1, 1), 1): 1}


@pytest.mark.parametrize("quiver, q, dmax", [
    (parse_quiver("a2"), 2, (2, 2)), (parse_quiver("a2"), 3, (2, 2)),
    (parse_quiver("d4"), 2, (2, 1, 1, 1)),
    (parse_quiver("a4"), 2, (2, 2, 2, 2)),
    (Quiver(6, _chain(5, 2)), 2, (1,) * 6)])
def test_gabriel_counts_the_classes_by_kostant_partitions(quiver, q, dmax):
    # Gabriel: the indecomposables of a Dynkin quiver are one per positive
    # root, so a dimension vector has as many classes as ways to split it
    # into positive roots, at every q
    h = HallAlgebra(quiver, q)
    roots = positive_roots(quiver)
    for d in itertools.product(*[range(b + 1) for b in dmax]):
        assert len(h.classes(d)) == kostant_partitions(roots, d), d


@pytest.mark.parametrize("name, q, dmax, n_subreps", [
    ("d4", 2, (2, 1, 1, 1), 811), ("a2", 3, (2, 2), 135)])
def test_each_subrepresentation_is_classified_once(monkeypatch, name, q, dmax,
                                                   n_subreps):
    h = HallAlgebra(parse_quiver(name), q)
    split = collections.Counter()
    tried = collections.Counter()
    split_once = HallAlgebra._split

    def counting(self, E, spaces):
        tried[E.key, spaces] += 1
        result = split_once(self, E, spaces)
        if result is not None:
            split[E.key, spaces] += 1
        return result

    monkeypatch.setattr(HallAlgebra, "_split", counting)
    _cli_work(h, dmax)
    assert set(split.values()) == {1} and len(split) == n_subreps
    assert set(tried.values()) == {1}


def _green_failures(name: str, q: int, dmax: tuple[int, ...], twist) -> tuple:
    """The quadruples (M, N, X, Y) within dmax with dim M + dim N = dim X +
    dim Y, and those that fail Green's formula with the weight q^twist(A,
    D) in place of q^-<A, D>:

        a_M a_N a_X a_Y sum_R g^R_MN g^R_XY / a_R
            = sum_{A,B,C,D} q^-<A,D> g^M_AB g^N_CD g^X_AC g^Y_BD a_A a_B a_C a_D

    with a the |Aut| and g^R_MN the number of subrepresentations U of R
    with U isomorphic to N and R/U to M, read from the span route's table
    of each dim R and dim U."""
    h = HallAlgebra(parse_quiver(name), q)
    dims = list(itertools.product(*[range(b + 1) for b in dmax]))
    g: dict[tuple, dict] = {}       # g[R][M, N], by class key
    for d in dims:
        for R in h.classes(d):
            g[R.key] = {}
        for dw in dims:
            if all(a <= b for a, b in zip(dw, d)):
                for pair, counts in h._span_table(d, dw).items():
                    for R, n in counts.items():
                        g[R][pair] = n
    aut = {R: h.class_by_key(R).aut_order for R in g}
    by_dim = collections.defaultdict(list)
    for (dm, dn) in dimvecs_within(dmax, 2):
        by_dim[tuple(a + b for a, b in zip(dm, dn))].append((dm, dn))
    quadruples = failures = 0
    for splits in by_dim.values():
        for (dm, dn), (dx, dy) in itertools.product(splits, repeat=2):
            for M, N, X, Y in itertools.product(
                    *(h.classes(d) for d in (dm, dn, dx, dy))):
                M, N, X, Y = M.key, N.key, X.key, Y.key
                a = aut[M] * aut[N] * aut[X] * aut[Y]
                left = sum(Fraction(a * table.get((M, N), 0)
                                    * table.get((X, Y), 0), aut[R])
                           for R, table in g.items())
                right = sum(Fraction(q) ** twist(h.quiver, A[0], D[0])
                            * g_ab * g_cd * g[X].get((A, C), 0)
                            * g[Y].get((B, D), 0)
                            * aut[A] * aut[B] * aut[C] * aut[D]
                            for (A, B), g_ab in g[M].items()
                            for (C, D), g_cd in g[N].items())
                quadruples += 1
                failures += left != right
    return quadruples, failures


@pytest.mark.parametrize("name, q, dmax, n_quadruples, n_wrong", [
    ("a2", 2, (2, 2), 663, (98, 86)), ("a2", 3, (2, 2), 663, (98, 86)),
    ("a3:><", 2, (1, 1, 1), 425, (26, 15))])
def test_green_formula_holds_and_its_misordered_twists_fail(
        name, q, dmax, n_quadruples, n_wrong):
    # the negative controls: q^-<D, A> and q^+<A, D> in place of q^-<A, D>
    twists = [lambda quiver, A, D: -euler_form(quiver, A, D),
              lambda quiver, A, D: -euler_form(quiver, D, A),
              lambda quiver, A, D: euler_form(quiver, A, D)]
    runs = [_green_failures(name, q, dmax, twist) for twist in twists]
    assert runs == [(n_quadruples, 0)] + [(n_quadruples, n) for n in n_wrong]


def _a2_table_by_rank(q: int) -> dict:
    """Every product of two classes of a2 within dmax (2, 2), with each
    class named by its dimension vector and the rank of its one matrix,
    which is unique at every q."""
    h = a2(q)

    def name(key):
        c = h.class_by_key(key)
        return c.dimvec, mat_rank(c.rep.mats[0], q)

    table = {}
    for dm, dn in dimvecs_within((2, 2), 2):
        for M in h.classes(dm):
            for N in h.classes(dn):
                for key, coeff in h.product(M, N).items():
                    table[name(M.key), name(N.key), name(key)] = coeff
    return table


def test_hall_numbers_of_a2_are_polynomials_in_q():
    # Ringel: over a Dynkin quiver each Hall number is a polynomial in q.
    # Through its values at q = 2, 3 and 5, Lagrange predicts the tables at
    # q = 7 and q = 11 exactly
    points = [2, 3, 5]
    known = {q: _a2_table_by_rank(q) for q in points}
    entries = set().union(*known.values())
    assert len(entries) == 69

    def predict(entry, x):
        return sum(known[q].get(entry, 0)
                   * math.prod(Fraction(x - p, q - p) for p in points if p != q)
                   for q in points)

    for x in (7, 11):
        assert _a2_table_by_rank(x) == {
            entry: predict(entry, x) for entry in entries
            if predict(entry, x)}
