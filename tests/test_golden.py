"""The Hall runs of ``tests/golden/regen.py`` print exactly their golden
files, regenerated in-process and compared byte for byte."""

import pytest

from golden.regen import HERE, RUNS, differences, render


@pytest.mark.parametrize("name", sorted(RUNS))
def test_hall_outputs_match_the_golden_files(name):
    assert differences(render(name)) == []


def test_a_one_digit_change_is_caught():
    fname = "a2_q5_dmax2,1.table.json"
    data = (HERE / fname).read_bytes()
    assert differences({fname: data}) == []
    at = data.index(b"/1") - 1     # the numerator of the first coefficient
    digit = b"%d" % ((int(data[at:at + 1]) + 1) % 10)
    assert differences({fname: data[:at] + digit + data[at + 1:]}) == [fname]
