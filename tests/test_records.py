"""The package's records: immutable, and compared by value where they were.

Every record is a ``typing.NamedTuple`` except ``hall.Quiver``, a slotted
class that validates its graph; these tests pin the semantics that the
records had as frozen dataclasses.
"""

import random

import pytest

from spancalc.fock import generating_function, verify_ccr
from spancalc.groupoid import iso_classes
from spancalc.hall import HallAlgebra, Quiver, QuiverRep, parse_quiver

from helpers import random_cyclic_action, random_equivariant_span
from oracles import build_E, discrete, identity_functor, identity_span, psi_n


@pytest.fixture(scope="module")
def records():
    """One instance of each record type, with a field to assign to."""
    E = build_E(3)
    g = discrete(2)
    stuff = psi_n(2, E)
    algebra = HallAlgebra(parse_quiver("a2"), 2)
    cls = algebra.classes((1, 1))[0]
    rng = random.Random(5)
    action = random_cyclic_action(rng, 3, 4)
    return {
        "GroupoidFunctor": (identity_functor(g), "obj_map"),
        "IsoClassTable": (iso_classes(g), "class_of"),
        "SpanOfGroupoids": (identity_span(g), "apex"),
        "TruncatedE": (E, "N"),
        "StuffType": (stuff, "E"),
        "PowerSeriesVector": (generating_function([(2, 2)], 3),
                              "coefficients"),
        "CcrReport": (verify_ccr(3), "ok"),
        "Quiver": (algebra.quiver, "edges"),
        "QuiverRep": (cls.rep, "mats"),
        "RepClass": (cls, "aut_order"),
        "EquivariantSpan": (
            random_equivariant_span(rng, 3, action, action), "left_map"),
    }


RECORD_NAMES = ["GroupoidFunctor", "IsoClassTable", "SpanOfGroupoids",
                "TruncatedE", "StuffType", "PowerSeriesVector", "CcrReport",
                "Quiver", "QuiverRep", "RepClass", "EquivariantSpan"]


@pytest.mark.parametrize("name", RECORD_NAMES)
def test_assigning_a_field_raises_attribute_error(records, name):
    record, field = records[name]
    assert type(record).__name__ == name
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is before


def test_quiver_hashes_and_compares_by_value():
    a2 = Quiver(2, ((0, 1),))
    assert a2 == parse_quiver("a2") and hash(a2) == hash(parse_quiver("a2"))
    assert a2 != Quiver(2, ((1, 0),))
    assert len({a2, parse_quiver("a2"), Quiver(2, ((1, 0),))}) == 2
    assert a2 != (2, ((0, 1),))     # not a tuple
    with pytest.raises(AttributeError):
        a2.extra = 1
    with pytest.raises(ValueError, match="Tits form is not positive"):
        Quiver(3, ((0, 1), (1, 2), (2, 0)))


def test_quiver_reps_and_classes_hash_and_compare_by_value():
    # two algebras share no objects, so only values can make them agree
    first = HallAlgebra(parse_quiver("a2"), 3).classes((1, 1))
    second = HallAlgebra(parse_quiver("a2"), 3).classes((1, 1))
    assert first == second and len(first) == 2
    assert [hash(c) for c in first] == [hash(c) for c in second]
    assert first[0] != first[1] and first[0].rep != first[1].rep
    assert {c.rep: c for c in first}[second[1].rep] == first[1]
    rep = QuiverRep((1, 1), (((1,),),))
    assert rep == QuiverRep((1, 1), (((1,),),)) and \
        hash(rep) == hash(QuiverRep((1, 1), (((1,),),)))
    assert rep != QuiverRep((1, 1), (((0,),),))

