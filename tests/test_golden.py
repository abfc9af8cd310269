"""The runs of ``tests/golden/regen.py`` print exactly their golden files,
regenerated in-process and compared byte for byte."""

import pytest

from golden.regen import HERE, RUNS, differences, render
from helpers import span_pair_json

HALL = sorted(name for name, argv in RUNS.items() if argv[0] == "hall")


@pytest.mark.parametrize("name", HALL)
def test_hall_outputs_match_the_golden_files(name):
    assert differences(render(name)) == []


@pytest.mark.parametrize("name", sorted(set(RUNS) - set(HALL)))
def test_outputs_match_the_golden_files(name):
    assert differences(render(name)) == []


@pytest.mark.parametrize("seed", [777, 778])
def test_span_inputs_come_from_the_seeded_generator(seed):
    first, second = span_pair_json(seed)
    assert (HERE / f"spans{seed}.first.json").read_text() == first
    assert (HERE / f"spans{seed}.second.json").read_text() == second


def test_a_one_digit_change_is_caught():
    fname = "a2_q5_dmax2,1.table.json"
    data = (HERE / fname).read_bytes()
    assert differences({fname: data}) == []
    at = data.index(b"/1") - 1     # the numerator of the first coefficient
    digit = b"%d" % ((int(data[at:at + 1]) + 1) % 10)
    assert differences({fname: data[:at] + digit + data[at + 1:]}) == [fname]
