import random
from fractions import Fraction

import pytest

from spancalc.groupoid import cardinality, iso_classes, validate_groupoid
from spancalc.spans import degroupoidify_span

from helpers import random_cyclic_action, random_equivariant_span
from oracles import (EquivariantSpan, GroupAction, cyclic_table,
                     degroupoidify_equivariant, discrete, from_group_table,
                     materialize, materialize_span, orbit_table, skeleton,
                     symmetric_table, terminal)


Z2 = from_group_table(cyclic_table(2))


def folding_action(n_points: int) -> GroupAction:
    """Z/2 acting by the reflection i -> n-1-i."""
    return GroupAction(Z2, [list(range(n_points)),
                            list(reversed(range(n_points)))])


def test_group_constructors_are_groups():
    for g in (terminal(),
              from_group_table(cyclic_table(5)),
              from_group_table(symmetric_table(3))):
        assert g.n_objects == 1
        assert validate_groupoid(g) == []


def test_trivial_action_on_one_point():
    g = from_group_table(symmetric_table(3))
    act = GroupAction(g, [[0]] * 6)
    table = act.orbits()
    assert table.n_classes == 1
    assert table.aut_order == (6,)
    assert table.cardinality == Fraction(1, 6)


def test_folding_of_six_is_three():
    act = GroupAction(Z2, [[0, 1, 2, 3, 4, 5], [3, 4, 5, 0, 1, 2]])
    assert act.orbits().cardinality == 3


def test_folding_of_five_is_five_halves():
    table = folding_action(5).orbits()
    assert table.cardinality == Fraction(5, 2)
    assert sorted(table.aut_order) == [1, 1, 2]


def test_orbit_table_rejects_a_table_that_is_not_a_group_action():
    # the rows are not closed under composition: sum 1/|Stab| = 3/2, not 1
    with pytest.raises(AssertionError):
        orbit_table([[0, 1, 2], [1, 0, 2], [0, 2, 1]])


def test_orbit_stabilizer_identity():
    rng = random.Random(19)
    for _ in range(20):
        k = rng.choice([2, 3, 4, 6])
        act = random_cyclic_action(rng, k, rng.randint(1, 7))
        table = act.orbits()
        for o in range(table.n_classes):
            assert table.class_size[o] * table.aut_order[o] == k
        for point in range(act.n_points):
            orbit = table.class_of[point]
            stabilizer = sum(row[point] == point for row in act.act)
            assert stabilizer == table.aut_order[orbit]


def test_materialize_agrees_with_weak_quotient():
    rng = random.Random(29)
    for _ in range(10):
        k = rng.choice([2, 3, 4])
        act = random_cyclic_action(rng, k, rng.randint(1, 5))
        g = materialize(act)
        assert validate_groupoid(g) == []
        assert cardinality(g) == act.orbits().cardinality
        assert cardinality(g) == Fraction(act.n_points, k)


def test_materialized_folding_skeleton():
    g = materialize(folding_action(5))
    sk, f = skeleton(g)
    assert sorted(iso_classes(sk).aut_order) == [1, 1, 2]


def test_fast_path_equals_materialized_path():
    rng = random.Random(39)
    for _ in range(12):
        k = rng.choice([2, 3, 4])
        left = random_cyclic_action(rng, k, rng.randint(1, 4))
        right = random_cyclic_action(rng, k, rng.randint(1, 4))
        span = random_equivariant_span(rng, k, left, right)
        assert span.validate() == []
        for alpha in (0, 1):
            fast = degroupoidify_equivariant(span, alpha)
            slow = degroupoidify_span(materialize_span(span), alpha)
            assert fast == slow


def test_identity_equivariant_span():
    rng = random.Random(49)
    act = random_cyclic_action(rng, 4, 5)
    n = act.n_points
    span = EquivariantSpan(act.group, act, act, act,
                           tuple(range(n)), tuple(range(n)))
    assert span.validate() == []
    m = degroupoidify_equivariant(span, 0)
    assert all(m.data[i][j] == (1 if i == j else 0)
               for i in range(m.n_rows) for j in range(m.n_cols))


def test_action_validation_catches_bad_table():
    bad = GroupAction(Z2, [[0, 1], [1, 1]])   # non-bijective row
    assert bad.validate() != []


@pytest.mark.parametrize("rows, message", [
    ([[0, 1], [1, 0], [0, 1], [1, 0]], "4 action rows for a group of order 2"),
    ([[0, 1]], "1 action rows for a group of order 2"),
    ([[0, 1], [1, 0, 2]], r"action rows of unequal lengths \[2, 3\]"),
], ids=["four rows", "one row", "ragged"])
def test_action_table_must_fit_the_group(rows, message):
    with pytest.raises(ValueError, match=message):
        GroupAction(Z2, rows)


def test_action_on_a_groupoid_with_two_objects_is_rejected():
    with pytest.raises(ValueError, match="one-object groupoid"):
        GroupAction(discrete(2), [[0], [0]])


def test_action_validation_reports_points_out_of_range():
    assert GroupAction(Z2, [[0, 1], [1, 5]]).validate() == [
        "act(1, 1)=5 is not a point"]
    assert GroupAction(Z2, [[0, -1], [1, 0]]).validate() == [
        "act(0, 1)=-1 is not a point"]


def test_action_validation_names_the_composite():
    # Z/3 acting on 3 points by the rotation for 1 and by the same rotation
    # again for 2, where the action needs its inverse
    z3 = from_group_table(cyclic_table(3))
    bad = GroupAction(z3, [[0, 1, 2], [1, 2, 0], [1, 2, 0]])
    errors = bad.validate()
    assert "act(1, act(1, -)) != act(compose(1, 1)=2, -)" in errors
    assert all("compose(" in e for e in errors)


def test_restrict_requires_invariant_subset():
    act = folding_action(5)
    with pytest.raises(ValueError):
        act.restrict([0])
    sub = act.restrict([0, 4])
    assert sub.orbits().cardinality == 1


def test_materialize_respects_size_cap(monkeypatch):
    monkeypatch.setenv("SPANCALC_SIZE_CAP", "5")
    from spancalc.exact import SizeCapError
    with pytest.raises(SizeCapError):
        materialize(folding_action(5))

