"""Fuzzed span files: one field of a valid file mutated, run through the CLI.

Whatever the mutation, ``compose`` and ``degroupoidify`` must exit 0 (the
file is still a valid span) or 2 (an input error), never raise.
"""

import contextlib
import copy
import io
import json
import os
import random
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from spancalc import cli
from spancalc.fock import annihilation_span, build_E
from spancalc.spans import span_to_json

from helpers import random_cyclic_action, random_span


def _bases() -> list[dict]:
    rng = random.Random(5)
    x = random_cyclic_action(rng, 4, 3)
    return [span_to_json(annihilation_span(build_E(2))),
            span_to_json(random_span(rng, 4, x, x))]


BASES = _bases()
PARTS = ("apex", "left", "right", "left_codomain", "right_codomain")


def _paths(node, prefix=()):
    """Every position in a JSON tree, as key/index tuples, the root first."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def _get(node, path):
    for key in path:
        node = node[key]
    return node


JUNK = st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=3),
                 st.lists(st.integers(-2, 9), max_size=3),
                 st.dictionaries(st.text(max_size=3), st.integers(),
                                 max_size=2))


@st.composite
def mutated_span_files(draw) -> dict:
    data = copy.deepcopy(draw(st.sampled_from(BASES)))
    part = draw(st.sampled_from(PARTS))
    paths = list(_paths(data[part], (part,)))
    kind = draw(st.sampled_from(["index", "drop", "duplicate", "composite",
                                 "type", "missing key"]))
    if kind == "index":
        path = draw(st.sampled_from(
            [p for p in paths if type(_get(data, p)) is int]))
        _get(data, path[:-1])[path[-1]] = draw(st.integers(-3, 40))
    elif kind in ("drop", "duplicate"):
        path = draw(st.sampled_from(
            [p for p in paths if isinstance(_get(data, p[:-1]), list)]))
        container = _get(data, path[:-1])
        if kind == "drop":
            del container[path[-1]]
        else:
            container.append(copy.deepcopy(container[path[-1]]))
    elif kind == "composite" and "compose" in data[part]:
        entries = data[part]["compose"]
        entry = entries[draw(st.integers(0, len(entries) - 1))]
        entry[2] = draw(st.integers(0, len(data[part]["morphisms"]) - 1))
    elif kind == "type":
        path = draw(st.sampled_from(paths))
        value = draw(JUNK)
        if len(path) == 1:
            data[part] = value
        else:
            _get(data, path[:-1])[path[-1]] = value
    elif kind == "missing key":
        path = draw(st.sampled_from(
            [p for p in paths if isinstance(_get(data, p[:-1]), dict)]))
        del _get(data, path[:-1])[path[-1]]
    return data


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(mutated_span_files())
def test_mutated_span_files_exit_0_or_2(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "span.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        out = os.path.join(tmp, "out.json")
        for argv in (["compose", "--first", path, "--second", path,
                      "-o", out],
                     ["degroupoidify", "--span", path, "-o", out]):
            with contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(argv) in (0, 2)
