import itertools
from fractions import Fraction

import numpy as np
import pytest

from spancalc.exact import SizeCapError
from spancalc.groupoid import validate_groupoid
from spancalc.hecke import (
    MAX_RELATION_TERMS,
    ORBIT_LABELS,
    check_caps,
    flag_geometry,
    hecke_structure_constants,
    relation_rows,
    relative_positions,
    row_product,
    sl3_order,
    verify_hecke_relations,
)
from spancalc.spans import degroupoidify_span

from helpers import group_route_constants, iwahori_hecke_s3
from oracles import (basis_vector, bruhat_orbits, build_group, build_L,
                     build_P, degroupoidify_equivariant, enumerate_flags,
                     hecke_product, materialize_span, triple_block_span)


def test_flag_counts():
    assert len(enumerate_flags(2)) == 21
    assert len(enumerate_flags(3)) == 52
    assert len(enumerate_flags(5)) == 186
    with pytest.raises(ValueError):
        enumerate_flags(4)


def test_points_per_line():
    for q in (2, 3, 5):
        geo = flag_geometry(q)
        per_line = {}
        for _p, l in geo.flags:
            per_line[l] = per_line.get(l, 0) + 1
        assert set(per_line.values()) == {q + 1}
        per_point = {}
        for p, _l in geo.flags:
            per_point[p] = per_point.get(p, 0) + 1
        assert set(per_point.values()) == {q + 1}


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_flags_match_the_incidence_scan(q):
    # the oracle: every normalized vector of F_q^3 is a point, and every
    # (point, line) pair with zero dot product is a flag
    points = sorted({tuple(x * pow(next(filter(None, v)), q - 2, q) % q
                           for x in v)
                     for v in itertools.product(range(q), repeat=3)
                     if any(v)})
    geo = flag_geometry(q)
    assert list(geo.points) == points == list(geo.lines)
    assert list(geo.flags) == [
        (pi, li) for pi, p in enumerate(points) for li, c in enumerate(points)
        if sum(a * b for a, b in zip(p, c)) % q == 0]
    assert geo.flag_index == {f: i for i, f in enumerate(geo.flags)}


def test_relation_row_sums_and_symmetry():
    for q in (2, 3):
        P = build_P(q)
        L = build_L(q)
        assert set(P.sum(axis=1)) == {q}
        assert set(L.sum(axis=1)) == {q}
        assert np.array_equal(P, P.T)
        assert np.array_equal(L, L.T)
        assert not np.any(np.diagonal(P))
        assert not np.any(np.diagonal(L))


def test_hecke_relations_pass():
    for q in (2, 3, 5):
        report = verify_hecke_relations(q)
        assert report.ok, str(report)


def test_relations_are_group_invariant():
    hg = build_group(2)
    P = build_P(2)
    L = build_L(2)
    act = hg.action.act
    for g in (1, 17, 59, 140):
        perm = act[g]
        assert np.array_equal(P[np.ix_(perm, perm)], P)
        assert np.array_equal(L[np.ix_(perm, perm)], L)


def test_group_orders_and_transitivity():
    hg2 = build_group(2)
    assert hg2.group.n_morphisms == sl3_order(2) == 168
    assert hg2.action.orbits().n_classes == 1   # transitive on flags
    e = hg2.group.identity[0]
    assert hg2.action.act[e] == tuple(range(hg2.geometry.n_flags))
    hg3 = build_group(3)
    assert hg3.group.n_morphisms == sl3_order(3) == 5616
    assert hg3.action.orbits().n_classes == 1
    with pytest.raises(ValueError):
        build_group(5)


def test_group_axioms_spot_check():
    hg = build_group(2)
    # every axiom, as for any groupoid: 168^2 composites, associativity by
    # Light's test
    assert validate_groupoid(hg.group) == []
    assert hg.action.orbits().cardinality == Fraction(21, 168)


# The pair-table route (bruhat_orbits, group_route_constants,
# triple_block_span) runs at q = 2: at q = 3 its table has 15.2M entries.
# The q = 3 numbers are checked from flag incidence and against
# iwahori_hecke_s3, which is built from permutations alone.

def test_bruhat_orbit_structure():
    q = 2
    hg = build_group(q)
    orbits, labels = bruhat_orbits(hg)
    assert orbits.n_classes == 6
    assert sorted(labels) == sorted(ORBIT_LABELS)
    by_label = dict(zip(labels, orbits.class_size))
    n = hg.geometry.n_flags
    assert by_label["e"] == n
    assert by_label["P"] == n * q
    assert by_label["L"] == n * q
    assert by_label["PL"] == n * q * q
    assert by_label["LP"] == n * q * q
    assert by_label["PLP"] == n * q ** 3
    # orbit-stabilizer across the pair action
    for size, stab in zip(orbits.class_size, orbits.aut_order):
        assert size * stab == hg.group.n_morphisms


def test_structure_constants_match_relation_count_oracle():
    tensor = group_route_constants(build_group(2))
    assert tensor.tensor == hecke_structure_constants(2).tensor


def test_alpha_one_tensor_is_the_rescaled_alpha_zero_tensor():
    # the weight moves from the x foot |Stab w| to the y foot |Stab u||Stab v|;
    # the stabilizer orders are |G| / |orbit|, read off the group at q = 2
    orbits, labels = bruhat_orbits(build_group(2))
    group_stab = dict(zip(labels, orbits.aut_order))
    for q in (2, 3):
        _position, sizes = relative_positions(flag_geometry(q))
        stab = {lbl: sl3_order(q) // size
                for lbl, size in zip(ORBIT_LABELS, sizes)}
        if q == 2:
            assert stab == group_stab
        t0 = hecke_structure_constants(q, alpha=0)
        t1 = hecke_structure_constants(q, alpha=1)
        assert t1.labels == t0.labels
        for ui, u in enumerate(t0.labels):
            for vi, v in enumerate(t0.labels):
                for wi, w in enumerate(t0.labels):
                    assert t1.tensor[ui][vi][wi] == t0.tensor[ui][vi][wi] * \
                        Fraction(stab[u] * stab[v], stab[w])
        assert t1.tensor != t0.tensor


def test_hecke_relations_hold_in_structure_constants():
    for q in (2, 3):
        tensor = hecke_structure_constants(q)
        e = basis_vector(tensor, "e")
        for d in ("P", "L"):
            psi = basis_vector(tensor, d)
            lhs = hecke_product(tensor, psi, psi)
            rhs = [(q - 1) * a + q * b for a, b in zip(psi, e)]
            assert lhs == rhs
        p, l = basis_vector(tensor, "P"), basis_vector(tensor, "L")
        assert hecke_product(tensor, hecke_product(tensor, p, l), p) == \
            hecke_product(tensor, hecke_product(tensor, l, p), l)


def test_identity_orbit_is_the_unit():
    tensor = hecke_structure_constants(2)
    e = basis_vector(tensor, "e")
    for label in tensor.labels:
        v = basis_vector(tensor, label)
        assert hecke_product(tensor, e, v) == v
        assert hecke_product(tensor, v, e) == v


def test_structure_constants_are_associative():
    tensor = hecke_structure_constants(2)
    basis = [basis_vector(tensor, lbl) for lbl in tensor.labels]
    for x in basis:
        for y in basis:
            for z in basis:
                assert hecke_product(tensor, hecke_product(tensor, x, y),
                                     z) == \
                    hecke_product(tensor, x, hecke_product(tensor, y, z))


def test_sub_block_fast_path_equals_materialized_path():
    hg = build_group(2)
    tensor = hecke_structure_constants(2)
    labels = tensor.labels
    samples = [("P", "P", "e"), ("P", "P", "P"), ("L", "L", "e"),
               ("L", "L", "L"), ("P", "L", "PL"), ("L", "P", "LP")]
    for u, v, w in samples:
        span = triple_block_span(hg, u, v, w)
        assert span is not None
        assert span.validate() == []
        fast = degroupoidify_equivariant(span, 0)
        slow = degroupoidify_span(materialize_span(span), 0)
        assert fast == slow
        assert fast.n_rows == 1 and fast.n_cols == 1
        entry = tensor.tensor[labels.index(u)][labels.index(v)][labels.index(w)]
        assert fast.data[0][0] == entry


def test_empty_sub_block():
    hg = build_group(2)
    assert triple_block_span(hg, "e", "e", "P") is None


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_structure_constants_match_iwahori_hecke(q):
    tensor = hecke_structure_constants(q)
    assert tensor.labels == ORBIT_LABELS
    assert tensor.tensor == iwahori_hecke_s3(q)


@pytest.mark.parametrize("q", [2])
def test_group_route_equals_group_free_route(q):
    hg = build_group(q)
    for alpha in (0, 1):
        assert group_route_constants(hg, alpha).tensor == \
            hecke_structure_constants(q, alpha).tensor


def test_orbit_sizes_and_group_order_from_incidence():
    lengths = {"e": 0, "P": 1, "L": 1, "PL": 2, "LP": 2, "PLP": 3}
    for q in (2, 3, 5, 7):
        geo = flag_geometry(q)
        _position, sizes = relative_positions(geo)
        n = geo.n_flags
        assert sizes == tuple(n * q ** lengths[w] for w in ORBIT_LABELS)
        assert sum(sizes) == n * n
    # each pair (flag 0, y) lies in the group orbit of its position
    hg = build_group(2)
    orbits, labels = bruhat_orbits(hg)
    position, sizes = relative_positions(hg.geometry)
    for y, w in enumerate(position):
        c = orbits.class_of[y]      # the pair (0, y) is point 0 * n + y
        assert labels[c] == ORBIT_LABELS[w]
        assert orbits.class_size[c] == sizes[w]


def test_sparse_products_equal_dense_products():
    for q in (2, 3):
        geo = flag_geometry(q)
        P_rows, L_rows = relation_rows(geo)
        P, L = build_P(q), build_L(q)
        n = geo.n_flags
        for factors, dense in (((P_rows, P_rows), P @ P),
                               ((L_rows, L_rows), L @ L),
                               ((P_rows, L_rows, P_rows), P @ L @ P),
                               ((L_rows, P_rows, L_rows), L @ P @ L)):
            sparse = np.zeros((n, n), dtype=np.int64)
            for f in range(n):
                for g, c in row_product(factors, f).items():
                    sparse[f, g] = c
            assert np.array_equal(sparse, dense)


def test_hecke_work_is_capped_before_enumeration(monkeypatch):
    with pytest.raises(SizeCapError):
        verify_hecke_relations(101)
    with pytest.raises(SizeCapError):
        hecke_structure_constants(101)
    monkeypatch.setenv("SPANCALC_SIZE_CAP", "100")
    with pytest.raises(SizeCapError):
        flag_geometry(3)


def test_relation_caps_name_the_allocation_or_the_work(monkeypatch):
    check_caps(13)      # 2 * 2562 * 13^3 = 11257428 product terms
    with pytest.raises(SizeCapError, match="relation product terms") as exc:
        check_caps(17)  # 54298476 terms
    assert exc.value.needed == 54298476
    assert f"cap of {MAX_RELATION_TERMS}" in str(exc.value)
    check_caps(17, relations=False)
    # the rows of P and L, 2 * 2562 * 13 entries, are an allocation
    monkeypatch.setenv("SPANCALC_SIZE_CAP", "20000")
    with pytest.raises(SizeCapError, match="relation rows") as exc:
        check_caps(13)
    assert exc.value.needed == 2 * 2562 * 13
    assert "SPANCALC_SIZE_CAP" in str(exc.value)
    check_caps(13, relations=False)


def test_hecke_caps_sit_exactly_at_their_projections(monkeypatch):
    # q = 3 has 52 flags: 7 * 52 middle-flag counts for the constants and
    # 2 * 52 * 3 relation row entries, each admitted at the cap, not past it
    for cap, kwargs, what in [(364, {"relations": False},
                               "Hecke structure constants"),
                              (312, {"constants": False},
                               "Hecke relation rows")]:
        monkeypatch.setenv("SPANCALC_SIZE_CAP", str(cap))
        check_caps(3, **kwargs)
        monkeypatch.setenv("SPANCALC_SIZE_CAP", str(cap - 1))
        with pytest.raises(SizeCapError, match=what) as exc:
            check_caps(3, **kwargs)
        assert exc.value.needed == cap
    monkeypatch.delenv("SPANCALC_SIZE_CAP")
    check_caps(14)      # 2 * 3165 * 14^3 = 17369520 product terms
    with pytest.raises(SizeCapError, match="relation product terms") as exc:
        check_caps(15)
    assert exc.value.needed == 26028000
    assert f"cap of {MAX_RELATION_TERMS}" in str(exc.value)
