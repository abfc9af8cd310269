import random
import re
from fractions import Fraction

import pytest

from spancalc.groupoid import (
    FiniteGroupoid,
    GroupoidFunctor,
    Violations,
    cardinality,
    iso_classes,
    validate_groupoid,
)

from helpers import associative, random_groupoid
from oracles import (cardinality_alt, check_equivalence_certificate, connected,
                     coproduct, cyclic_table, empty, from_group_table,
                     full_inverse_image, identity_functor, product, skeleton,
                     symmetric_table, table_product, terminal)


def test_terminal_is_valid():
    assert validate_groupoid(terminal()) == []


def test_empty_groupoid_everywhere():
    e = empty()
    assert validate_groupoid(e) == []
    assert cardinality(e) == 0
    g = from_group_table(cyclic_table(2))
    both, _, _ = coproduct(g, e)
    assert cardinality(both) == cardinality(g)
    prod, _, _ = product(e, g)
    assert prod.n_objects == 0


def test_z2_multiplication_table_is_a_groupoid():
    g = from_group_table(cyclic_table(2))
    assert validate_groupoid(g) == []
    assert cardinality(g) == Fraction(1, 2)


def test_bad_composability_is_reported():
    # two objects, two identities, plus compose defined on a non-composable pair
    g = FiniteGroupoid(2, (0, 1), (0, 1), (0, 1), (0, 1),
                       {(0, 0): 0, (1, 1): 1, (0, 1): 0})
    report = validate_groupoid(g)
    assert any("composable" in line or "compose" in line for line in report)


def test_broken_identity_is_reported():
    g = FiniteGroupoid(2, (0, 1), (0, 1), (0, 0), (0, 1),
                       {(0, 0): 0, (1, 1): 1})
    report = validate_groupoid(g)
    assert any("identity" in line for line in report)


def test_iso_classes_of_disjoint_groups():
    z2 = from_group_table(cyclic_table(2))
    z3 = from_group_table(cyclic_table(3))
    both, _, _ = coproduct(z2, z3)
    table = iso_classes(both)
    assert table.n_classes == 2
    assert sorted(table.aut_order) == [2, 3]
    assert sum(table.class_size) == both.n_objects


def test_iso_classes_of_free_action_groupoid():
    g = connected(2, cyclic_table(1))
    table = iso_classes(g)
    assert table.n_classes == 1
    assert table.class_size == (2,)
    assert table.aut_order == (1,)


def test_aut_order_constant_across_class():
    rng = random.Random(7)
    for _ in range(20):
        g = random_groupoid(rng)
        table = iso_classes(g)
        for x in range(g.n_objects):
            assert len(g.aut(x)) == table.aut_order[table.class_of[x]]


def test_cardinality_formulas_agree_on_random_groupoids():
    rng = random.Random(11)
    for _ in range(60):
        g = random_groupoid(rng)
        assert cardinality(g) == cardinality_alt(g)


def test_cardinality_additive_and_multiplicative():
    rng = random.Random(13)
    for _ in range(10):
        g = random_groupoid(rng, max_objects=4)
        h = random_groupoid(rng, max_objects=4)
        both, _, _ = coproduct(g, h)
        assert cardinality(both) == cardinality(g) + cardinality(h)
        prod, _, _ = product(g, h)
        assert cardinality(prod) == cardinality(g) * cardinality(h)


def test_full_inverse_image_of_identity_functor():
    z2 = from_group_table(cyclic_table(2))
    z3 = from_group_table(cyclic_table(3))
    both, _, _ = coproduct(z2, z3)
    sub = full_inverse_image(identity_functor(both), 0)
    assert cardinality(sub) == Fraction(1, 2)


def test_full_inverse_image_of_constant_functor():
    g = connected(3, cyclic_table(2))
    term = terminal()
    const = GroupoidFunctor(g, term, (0,) * g.n_objects,
                            (0,) * g.n_morphisms)
    assert const.validate() == []
    sub = full_inverse_image(const, 0)
    assert cardinality(sub) == cardinality(g)


def test_full_inverse_image_rejects_bad_object():
    g = terminal()
    with pytest.raises(ValueError):
        full_inverse_image(identity_functor(g), 3)


def test_equivalence_certificate_identity():
    g = random_groupoid(random.Random(3))
    assert check_equivalence_certificate(identity_functor(g))


def test_equivalence_certificate_inclusion_of_one_object():
    table = cyclic_table(1)
    big = connected(2, table)
    small = connected(1, table)
    inc = GroupoidFunctor(small, big, (0,), (0,))
    assert inc.validate() == []
    assert check_equivalence_certificate(inc)


def test_collapsing_functor_is_not_equivalence():
    z2 = from_group_table(cyclic_table(2))
    z3 = from_group_table(cyclic_table(3))
    both, _, _ = coproduct(z2, z3)
    term = terminal()
    const = GroupoidFunctor(both, term, (0, 0), (0,) * both.n_morphisms)
    assert const.validate() == []
    assert not check_equivalence_certificate(const)


def test_skeleton_of_skeletal_groupoid():
    z3 = from_group_table(cyclic_table(3))
    sk, f = skeleton(z3)
    assert sk.n_objects == 1
    assert sk.n_morphisms == 3
    assert check_equivalence_certificate(f)


def test_skeleton_of_free_action():
    g = connected(2, cyclic_table(1))
    sk, f = skeleton(g)
    assert sk.n_objects == 1
    assert sk.n_morphisms == 1
    assert check_equivalence_certificate(f)


def test_skeleton_certificate_and_invariance_random():
    rng = random.Random(5)
    for _ in range(25):
        g = random_groupoid(rng)
        sk, f = skeleton(g)
        assert f.validate() == []
        assert check_equivalence_certificate(f)
        assert cardinality(sk) == cardinality(g)
        # idempotent up to isomorphism: same class/aut structure
        sk2, f2 = skeleton(sk)
        assert sk2.n_objects == sk.n_objects
        assert sorted(iso_classes(sk2).aut_order) == \
            sorted(iso_classes(sk).aut_order)
        assert check_equivalence_certificate(f2)


def test_functor_validation_catches_broken_composition():
    z2 = from_group_table(cyclic_table(2))
    z4 = from_group_table(cyclic_table(4))
    # map the generator of Z/4 to the generator of Z/2: breaks composites
    bad = GroupoidFunctor(z4, z2, (0,), (0, 1, 0, 0))
    assert bad.validate() != []


def test_functor_validation_reports_maps_that_are_not_indices():
    z2 = from_group_table(cyclic_table(2))
    z4 = from_group_table(cyclic_table(4))
    for mor_map, fault in [((0, 1, 0), "morphism map has 3 entries"),
                           ((0, 1, 0, 2), r"morphism map\[3\]=2 is out"),
                           ((0, 1, 0, -1), r"morphism map\[3\]=-1 is out"),
                           ((0, 1, 0, "1"), r"morphism map\[3\]='1' is out"),
                           ((0, 1, 0, 1.0), r"morphism map\[3\]=1.0 is out")]:
        faults = GroupoidFunctor(z4, z2, (0,), mor_map).validate()
        assert faults and re.match(fault, faults[0])
    assert GroupoidFunctor(z4, z2, (1,), (0,) * 4).validate() == [
        "object map[0]=1 is out of range 0..0"]
    assert GroupoidFunctor(z4, z2, (0,), (0, 1, 0, 1)).validate() == []


def test_json_roundtrip():
    g = connected(2, symmetric_table(3))
    data = g.to_json()
    g2 = FiniteGroupoid.from_json(data)
    assert validate_groupoid(g2) == []
    assert cardinality(g2) == cardinality(g)
    assert g2.src == g.src and g2.tgt == g.tgt


def test_from_json_rejects_indices_out_of_range():
    good = connected(2, cyclic_table(2)).to_json()
    for key, value, message in (
            ("identity", [0, 99], "identity"),
            ("identity", [0], "1 identities and 8 inverses for 2 objects"),
            ("inverse", [-1] + good["inverse"][1:], "inverse")):
        data = dict(good, **{key: value})
        with pytest.raises(ValueError, match=message):
            FiniteGroupoid.from_json(data)
    bad_tgt = dict(good, morphisms=[dict(m) for m in good["morphisms"]])
    bad_tgt["morphisms"][3]["tgt"] = 2
    with pytest.raises(ValueError,
                       match="morphism 3 has out-of-range endpoints"):
        FiniteGroupoid.from_json(bad_tgt)
    # the error carries every violation, for "check" to report
    with pytest.raises(Violations) as exc:
        FiniteGroupoid.from_json(dict(good, identity=[0, 99]))
    assert exc.value.violations != []


def test_aut_generators_generate_each_automorphism_group():
    rng = random.Random(17)
    groupoids = [random_groupoid(rng) for _ in range(10)]
    for g in groupoids + [connected(2, symmetric_table(4))]:
        for x in range(g.n_objects):
            gens = g.aut_generators(x)
            assert g.aut_generators(x) is gens  # cached per object
            aut = set(g.aut(x))
            assert set(gens) <= aut
            assert 2 ** len(gens) <= len(aut)  # each generator doubles
            closure = {g.identity[x]}
            frontier = list(closure)
            while frontier:
                frontier = [b for b in {g.compose(h, c) for h in frontier
                                        for c in gens} if b not in closure]
                closure.update(frontier)
            assert closure == aut


# a loop of order 5 with identity 0 and x;x = 0: unit and inverse laws hold,
# composition is not associative (a group of order 5 is cyclic)
LOOP5 = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]


@pytest.mark.parametrize("g", [from_group_table(LOOP5),
                               connected(3, LOOP5)],
                         ids=["one object", "three objects"])
def test_from_json_rejects_a_non_associative_table(g):
    assert any("associativity fails" in v for v in validate_groupoid(g))
    with pytest.raises(ValueError, match="associativity fails"):
        FiniteGroupoid.from_json(g.to_json())


def test_light_associativity_test_matches_the_triple_scan():
    rng = random.Random(29)
    tables = [LOOP5, cyclic_table(6), symmetric_table(3),
              table_product(LOOP5, cyclic_table(2)),
              table_product(cyclic_table(3), LOOP5),
              table_product(symmetric_table(3), cyclic_table(2))]
    groupoids = []
    for table in tables:
        # relabel the elements, so that other elements become generators
        n = len(table)
        sigma = list(range(n))
        rng.shuffle(sigma)
        inv = {s: i for i, s in enumerate(sigma)}
        relabeled = [[sigma[table[inv[a]][inv[b]]] for b in range(n)]
                     for a in range(n)]
        groupoids += [from_group_table(relabeled),
                      connected(rng.randint(2, 3), relabeled)]
    groupoids += [random_groupoid(rng) for _ in range(4)]
    verdicts = set()
    for g in groupoids:
        report = validate_groupoid(g)
        assert all(v.startswith("associativity fails") for v in report)
        assert (report == []) == associative(g)
        verdicts.add(associative(g))
    assert verdicts == {True, False}


def test_from_json_rejects_broken_composites():
    good = connected(2, cyclic_table(3)).to_json()
    assert good["compose"][3] == [0, 3, 3]  # 0: 0 -> 0, then 3: 0 -> 1
    rest = good["compose"][:3] + good["compose"][4:]
    cases = [
        (rest, r"compose\(0,3\) undefined for a composable pair"),
        (good["compose"] + [[0, 3, 3]], r"the pair \(0, 3\) twice"),
        (rest + [[0, 3, 0]], r"compose\(0,3\)=0 has wrong endpoints"),
        (rest + [[3, 3, 3]], r"compose\(3,3\) defined for a pair that is "
                             "not composable"),
        (rest + [[0, 3]], r"compose\[\d+\]=\[0, 3\] is not \[f, g, h\]"),
        (rest + [[0, 3, True]],
         r"compose\[\d+\]=\[0, 3, True\] is not \[f, g, h\]"),
    ]
    for compose, message in cases:
        data = dict(good, compose=compose)
        with pytest.raises(ValueError, match=message):
            FiniteGroupoid.from_json(data)


def test_from_json_rejects_a_composite_with_the_right_endpoints():
    good = connected(2, cyclic_table(3)).to_json()
    mors = good["morphisms"]
    for i, (f, g, h) in enumerate(good["compose"]):
        for other in range(len(mors)):
            if other != h and mors[other] == mors[h]:
                compose = [list(e) for e in good["compose"]]
                compose[i][2] = other
                with pytest.raises(ValueError,
                                   match="!=|not the identity|associativity"):
                    FiniteGroupoid.from_json(dict(good, compose=compose))


def test_checked_loader_accepts_random_groupoids():
    rng = random.Random(23)
    groupoids = [random_groupoid(rng) for _ in range(12)]
    groupoids.append(connected(3, symmetric_table(4)))
    for g in groupoids:
        g2 = FiniteGroupoid.from_json(g.to_json())
        assert g2.to_json() == g.to_json()
