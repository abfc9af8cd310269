"""Fuzzed CLI inputs: span files, groupoid files and argument vectors.

Whatever one field of a valid span file is mutated to, ``compose`` and
``degroupoidify`` must exit 0 (the file is still a valid span) or 2 (an
input error), never raise.  Whatever one field of a valid groupoid file
is mutated to, ``check`` and ``card`` must both exit 0 or both reject it:
with 2 on a parse fault, and with 1 and 2 on an axiom fault.  A float, a
bool, a string or null in any integer field of a groupoid or span file
makes ``check``, ``card``, ``compose`` and ``degroupoidify`` exit 2.
Whatever arguments ``fock``, ``hecke`` and ``hall`` are given, they must
exit 0, 1 (a failed check) or 2, never raise, and finish within the
deadline.
"""

import contextlib
import copy
import io
import json
import os
import random
import tempfile
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spancalc import cli
from spancalc.spans import span_to_json

from helpers import random_cyclic_action, random_span
from oracles import annihilation_span, build_E, connected, cyclic_table


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


def _mutate(draw, data: dict, part: str) -> None:
    """Mutate one field of ``data[part]``, or the whole of it, in place."""
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


@st.composite
def mutated_span_files(draw) -> dict:
    data = copy.deepcopy(draw(st.sampled_from(BASES)))
    _mutate(draw, data, draw(st.sampled_from(PARTS)))
    return data


GROUPOIDS = [connected(2, cyclic_table(2)).to_json(),
             BASES[0]["right_codomain"], BASES[1]["apex"]]


@st.composite
def mutated_groupoid_files(draw) -> dict:
    data = {"groupoid": copy.deepcopy(draw(st.sampled_from(GROUPOIDS)))}
    _mutate(draw, data, "groupoid")
    return data.get("groupoid", {})     # "missing key" may drop it all


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


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(mutated_groupoid_files())
def test_check_and_card_agree_on_mutated_groupoid_files(data):
    """A parse fault exits 2 in both; an axiom fault is a report, exit 1,
    for ``check`` and an input error, exit 2, for ``card``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "groupoid.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            status = (cli.main(["check", path]), cli.main(["card", path]))
    assert status in ((0, 0), (1, 2), (2, 2))


def _int_paths(node, prefix=()):
    """The position of every integer in a JSON tree."""
    return [p for p in _paths(node, prefix) if type(_get(node, p)) is int]


def _swapped(data, path, value):
    data = copy.deepcopy(data)
    _get(data, path[:-1])[path[-1]] = value
    return data


GROUPOID = connected(2, cyclic_table(2)).to_json()
SMALL_SPAN = span_to_json(annihilation_span(build_E(1)))


@pytest.mark.parametrize("junk", [float, lambda v: True, str, lambda v: None],
                         ids=["float", "bool", "string", "null"])
def test_a_non_integer_in_any_integer_field_exits_2(junk, tmp_path, capsys):
    path = str(tmp_path / "in.json")
    out = str(tmp_path / "out.json")
    cases = [(["check", path], GROUPOID), (["card", path], GROUPOID),
             (["compose", "--first", path, "--second", path, "-o", out],
              SMALL_SPAN),
             (["degroupoidify", "--span", path, "-o", out], SMALL_SPAN)]
    for argv, base in cases:
        for where in _int_paths(base):
            data = _swapped(base, where, junk(_get(base, where)))
            with open(path, "w") as fh:
                json.dump(data, fh)
            assert cli.main(argv) == 2, (argv[0], where)
            assert capsys.readouterr().err.startswith("error: ")


# -- argument vectors for the computing subcommands -------------------------

MALFORMED_NUMBERS = st.one_of(
    st.integers(-10, -1).map(str),
    st.sampled_from([str(10 ** 25), str(-10 ** 25), str(2 ** 63), "1.5",
                     "3e2", "1/2", "abc", "", "0x7", "--"]))

# names with their vertex counts; the first eleven are valid
QUIVERS = [("a1", 1), ("a2", 2), ("a3", 3), ("a4", 4), ("d4", 4), ("A2", 2),
           (" d4 ", 4), ("a3:<>", 3), ("a4:><<", 4), ("a2:>", 2), ("a5", 5),
           ("a3:>", 3), ("a3:>><", 3), ("a4:<<", 4), ("a3:ab", 3),
           ("d4:<<<", 4), ("a0", 1), ("e6", 6), ("", 1), ("a", 1), (":", 1)]

MALFORMED_DMAX_ENTRIES = st.sampled_from(
    ["-1", "-3", str(10 ** 25), "x", "", " ", "1.5"])

FLAGS = {"fock": ["--json", "--check-ccr"], "hecke": ["--json", "--verify"],
         "hall": ["--json", "--table"]}


@st.composite
def computing_argvs(draw, command: str) -> list[str]:
    """Half the vectors are well formed, with small valid values; in the
    rest any value may be negative, huge, non-integer or junk, and a flag
    may belong to another subcommand."""
    well_formed = draw(st.booleans())

    def number(valid: st.SearchStrategy) -> str:
        return draw(valid.map(str) if well_formed
                    else st.one_of(valid.map(str), MALFORMED_NUMBERS))

    if command == "fock":
        argv = ["fock", "--truncate", number(st.integers(0, 5))]
        if draw(st.booleans()):
            argv += ["--psi", number(st.integers(0, 5))]
        if draw(st.booleans()):
            argv += ["--series", "two-colored"]
    elif command == "hecke":
        argv = ["hecke", "--q", number(st.integers(0, 7))]
        if draw(st.booleans()):
            argv += ["--constants", "{out}"]
    else:
        name, n_vertices = draw(st.sampled_from(
            QUIVERS[:11] if well_formed else QUIVERS))
        entry = st.sampled_from(["0", "1"])
        if well_formed:
            dmax = ",".join(draw(st.lists(entry, min_size=n_vertices,
                                          max_size=n_vertices)))
        else:
            size = draw(st.one_of(st.just(n_vertices), st.integers(0, 5)))
            dmax = draw(st.one_of(
                st.lists(st.one_of(entry, MALFORMED_DMAX_ENTRIES),
                         min_size=size, max_size=size).map(",".join),
                st.sampled_from(["1;1", "1,,1", ",", "2,1,", "--"])))
        argv = ["hall", "--quiver", name,
                "--q", number(st.sampled_from([2, 3, 5]) if well_formed
                              else st.integers(0, 5)),
                "--dmax", dmax]
    own = FLAGS[command]
    flags = draw(st.lists(st.sampled_from(
        own if well_formed else own + ["--verify", "--check-ccr"]),
        max_size=2, unique=True))
    for flag in flags:
        argv += [flag, "{out}"] if flag == "--table" else [flag]
    return argv


@pytest.mark.parametrize("command", sorted(FLAGS))
@settings(derandomize=True, database=None, max_examples=200,
          deadline=timedelta(seconds=5))
@given(data=st.data())
def test_fuzzed_argv_exits_0_1_or_2(command, data):
    argv = data.draw(computing_argvs(command))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.json")
        argv = [a.format(out=out) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                status = cli.main(argv)
            except SystemExit as exc:   # argparse rejects with exit 2
                status = exc.code
    assert status in (0, 1, 2)
