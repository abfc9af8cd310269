import argparse
import contextlib
import itertools
import json
import os
import pkgutil
import random
import re
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spancalc
from spancalc import cli, spans
from spancalc.groupoid import (MAX_VIOLATIONS, FiniteGroupoid,
                               GroupoidFunctor, iso_classes)
from spancalc.spans import (
    SpanOfGroupoids,
    degroupoidify_span,
    matrix_to_json,
    span_to_json,
)

from helpers import (S3_WORDS, iwahori_hecke_s3, random_cyclic_action,
                     random_span, z5_and_its_relabelling)
from oracles import (annihilation_span, build_E, compose_literal, connected,
                     cyclic_table, discrete, from_group_table, identity_span,
                     span_matrix, terminal)


def run_cli(*args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "spancalc.cli", *args],
        capture_output=True, text=True, env=full_env)


@pytest.fixture(scope="module")
def terminal_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "terminal.json"
    path.write_text(json.dumps(terminal().to_json()))
    return str(path)


def test_card_terminal(terminal_file):
    result = run_cli("card", terminal_file)
    assert result.returncode == 0
    assert result.stdout.strip() == "1/1"


def test_card_z2(tmp_path):
    path = tmp_path / "z2.json"
    g = from_group_table(cyclic_table(2))
    path.write_text(json.dumps(g.to_json()))
    result = run_cli("card", str(path))
    assert result.stdout.strip() == "1/2"


def test_check_valid_and_invalid(terminal_file, tmp_path):
    assert run_cli("check", terminal_file).returncode == 0
    bad = tmp_path / "bad.json"
    data = terminal().to_json()
    data["identity"] = [5]
    bad.write_text(json.dumps(data))
    result = run_cli("check", str(bad))
    assert result.returncode == 1


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"objects": 1,,}')
    result = run_cli("card", str(path))
    assert result.returncode == 2
    assert "line 1" in result.stderr


def test_missing_file_exits_2():
    result = run_cli("card", "/nonexistent/g.json")
    assert result.returncode == 2


@pytest.fixture
def span_file(tmp_path):
    path = tmp_path / "span.json"
    path.write_text(json.dumps(span_to_json(annihilation_span(build_E(2)))))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["degroupoidify", "--span", "{span}", "-o", "{out}"],
    ["degroupoidify", "--span", "{span}", "--csv", "-o", "{out}"],
    ["compose", "--first", "{span}", "--second", "{span}", "-o", "{out}"],
    ["hecke", "--q", "2", "--constants", "{out}"],
    ["hall", "--quiver", "a2", "--q", "2", "--dmax", "1,0", "--table",
     "{out}"],
])
@pytest.mark.parametrize("out", ["missing directory", "directory"])
def test_unwritable_output_path_exits_2_naming_it(argv, out, span_file,
                                                  tmp_path, capsys):
    path = tmp_path / "no such dir" / "x.json" if out == "missing directory" \
        else tmp_path
    argv = [a.format(span=span_file, out=path) for a in argv]
    assert cli.main(argv) == 2     # in-process: an escaped OSError fails
    captured = capsys.readouterr()
    assert f"error: {path}: cannot write (" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["check", "{input}"],
    ["card", "{input}"],
    ["degroupoidify", "--span", "{input}"],
    ["compose", "--first", "{span}", "--second", "{input}"],
])
@pytest.mark.parametrize("kind, message", [
    ("directory", "cannot read ("),
    ("missing", "cannot read (No such file"),
    ("binary", "not UTF-8 text ("),
    ("deep", "JSON nested too deeply"),
    ("long integer", "unreadable JSON (Exceeds the limit"),
])
def test_unreadable_input_exits_2_naming_it(argv, kind, message, span_file,
                                            tmp_path, capsys):
    path = {"directory": tmp_path, "missing": tmp_path / "missing.json",
            "binary": tmp_path / "image.png", "deep": tmp_path / "deep.json",
            "long integer": tmp_path / "long.json"}[kind]
    if kind == "binary":
        path.write_bytes(b"\x89PNG\r\n\x1a\n\x00")
    elif kind == "deep":
        path.write_text("[" * 200_000)
    elif kind == "long integer":
        path.write_text('{"objects": ' + "9" * 5000 + "}")
    argv = [a.format(span=span_file, input=path) for a in argv]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert f"error: {path}: {message}" in captured.err
    assert captured.out == ""


def test_degroupoidify_span_file(tmp_path):
    E = build_E(3)
    span = annihilation_span(E)
    path = tmp_path / "span.json"
    path.write_text(json.dumps(span_to_json(span)))
    result = run_cli("degroupoidify", "--span", str(path))
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["entries"][0][1] == "1/1"
    assert payload["entries"][1][2] == "2/1"
    csv = run_cli("degroupoidify", "--span", str(path), "--csv")
    assert csv.stdout.splitlines()[0].split(",")[1] == "1/1"


def test_compose_round_trip(tmp_path):
    E = build_E(3)
    span = annihilation_span(E)
    path = tmp_path / "span.json"
    path.write_text(json.dumps(span_to_json(span)))
    out = tmp_path / "composed.json"
    result = run_cli("compose", "--first", str(path), "--second", str(path),
                     "-o", str(out))
    assert result.returncode == 0
    matrix = run_cli("degroupoidify", "--span", str(out))
    payload = json.loads(matrix.stdout)
    # the square of the derivative: entry n(n-1) at (n-2, n)
    assert payload["entries"][0][2] == "2/1"
    assert payload["entries"][1][3] == "6/1"
    # the file holds the skeletal composite: one apex object per class
    apex = FiniteGroupoid.from_json(json.loads(out.read_text())["apex"])
    assert iso_classes(apex).n_classes == apex.n_objects
    again = tmp_path / "again.json"
    run_cli("compose", "--first", str(path), "--second", str(path),
            "-o", str(again))
    assert again.read_bytes() == out.read_bytes()


def test_compose_of_spans_with_different_middle_feet_exits_2(tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    first.write_text(json.dumps(span_to_json(annihilation_span(build_E(3)))))
    second.write_text(json.dumps(span_to_json(annihilation_span(build_E(4)))))
    result = run_cli("compose", "--first", str(first), "--second",
                     str(second))
    assert result.returncode == 2
    assert "spans are not composable: middle feet differ" in result.stderr
    assert "Traceback" not in result.stderr and result.stdout == ""


def test_compose_of_middle_feet_that_differ_only_in_composition_exits_2(
        tmp_path):
    # the same objects, identities and inverses: only the composition
    # tables tell the feet apart
    paths = []
    for g, name in zip(z5_and_its_relabelling(), ("first", "second")):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(span_to_json(identity_span(g))))
    result = run_cli("compose", "--first", str(paths[0]), "--second",
                     str(paths[1]))
    assert result.returncode == 2
    assert "spans are not composable: middle feet differ" in result.stderr
    assert "Traceback" not in result.stderr and result.stdout == ""


def test_cli_composite_matches_the_literal_oracle(tmp_path):
    rng = random.Random(41)
    k = 6
    for trial in range(3):
        ax, ay, az, aw = (random_cyclic_action(rng, k, rng.randint(2, 5))
                          for _ in range(4))
        s = random_span(rng, k, ay, ax)   # X -> Y
        t = random_span(rng, k, az, ay)   # Y -> Z
        u = random_span(rng, k, aw, az)   # Z -> W
        paths = {}
        for name, span in (("s", s), ("t", t), ("u", u)):
            paths[name] = str(tmp_path / f"{name}{trial}.json")
            with open(paths[name], "w") as fh:
                json.dump(span_to_json(span), fh)
        ts = str(tmp_path / f"ts{trial}.json")
        assert cli.main(["compose", "--first", paths["t"], "--second",
                         paths["s"], "-o", ts]) == 0
        literal = compose_literal(t, s)
        for alpha in ("0", "1", "1/2"):
            out = tmp_path / f"m{trial}.json"
            assert cli.main(["degroupoidify", "--span", ts, "--alpha", alpha,
                             "-o", str(out)]) == 0
            oracle = matrix_to_json(
                degroupoidify_span(literal, Fraction(alpha)),
                iso_classes(literal.target), iso_classes(literal.source))
            assert json.loads(out.read_text()) == oracle
        # the composite file composes further: u (t s) at alpha 0
        uts = str(tmp_path / f"uts{trial}.json")
        assert cli.main(["compose", "--first", paths["u"], "--second", ts,
                         "-o", uts]) == 0
        out = tmp_path / f"uts_m{trial}.json"
        assert cli.main(["degroupoidify", "--span", uts, "-o",
                         str(out)]) == 0
        product = span_matrix(u) @ span_matrix(literal)
        assert json.loads(out.read_text())["entries"] == \
            matrix_to_json(product)["entries"]


def test_fock_ccr_exit_codes():
    result = run_cli("fock", "--truncate", "6", "--check-ccr")
    assert result.returncode == 0
    assert "PASS" in result.stdout


@pytest.mark.parametrize("N, cardinality", [(7, "685/252"),
                                             (8, "109601/40320")])
def test_fock_ccr_large_truncations(N, cardinality):
    result = run_cli("fock", "--truncate", str(N), "--check-ccr", "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["cardinality"] == cardinality
    assert payload["ccr"]["pass"] is True
    assert payload["ccr"]["boundary"] == [[N, N, f"-{N + 1}/1"]]


def test_span_file_without_morphisms_exits_2(tmp_path):
    data = span_to_json(annihilation_span(build_E(2)))
    del data["apex"]["morphisms"]
    path = tmp_path / "span.json"
    path.write_text(json.dumps(data))
    for args in (("degroupoidify", "--span", str(path)),
                 ("compose", "--first", str(path), "--second", str(path))):
        result = run_cli(*args)
        assert result.returncode == 2
        assert str(path) in result.stderr
        assert "Traceback" not in result.stderr


def _broken_annihilation_span(how: str) -> dict:
    """The JSON of the annihilation span of E_<=2, its left leg broken."""
    data = span_to_json(annihilation_span(build_E(2)))
    left = data["left"]
    if how == "object out of range":
        left["objects"][0] = 99
    elif how == "morphism map one short":
        left["morphisms"].pop()
    elif how == "morphism image with wrong endpoints":
        mors = data["left_codomain"]["morphisms"]
        src = mors[left["morphisms"][0]]["src"]
        left["morphisms"][0] = next(m for m, e in enumerate(mors)
                                    if e["src"] != src)
    elif how == "right leg sends an identity to the swap":
        assert data["right"]["morphisms"][1] == 2  # id of 2 in Aut(2) = S_2
        data["right"]["morphisms"][1] = 3
    return data


@pytest.mark.parametrize("how, message", [
    ("object out of range", "object map[0]=99 is out of range"),
    ("morphism map one short", "morphism map has"),
    ("morphism image with wrong endpoints", "morphism map[0]="),
])
def test_span_file_with_bad_leg_maps_exits_2(tmp_path, how, message):
    path = tmp_path / "span.json"
    path.write_text(json.dumps(_broken_annihilation_span(how)))
    for args in (("degroupoidify", "--span", str(path)),
                 ("compose", "--first", str(path), "--second", str(path),
                  "-o", str(tmp_path / "out.json"))):
        result = run_cli(*args)
        assert result.returncode == 2
        assert str(path) in result.stderr and message in result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == ""
    assert not (tmp_path / "out.json").exists()


def _broken_foot_composite(how: str) -> dict:
    """The JSON of the annihilation span of E_<=3, one composite of its
    source foot broken (morphism 3 is the swap in Aut of the object 2)."""
    data = span_to_json(annihilation_span(build_E(3)))
    compose = data["right_codomain"]["compose"]
    i = compose.index([3, 3, 2])
    if how == "missing":
        del compose[i]
    elif how == "duplicated":
        compose.append([3, 3, 2])
    elif how == "wrong endpoints":
        compose[i] = [3, 3, 4]   # 4 is an automorphism of the object 3
    elif how == "right endpoints, wrong value":
        compose[i] = [3, 3, 3]
    return data


@pytest.mark.parametrize("how, message", [
    ("missing", "compose(3,3) undefined for a composable pair"),
    ("duplicated", "compose lists the pair (3, 3) twice"),
    ("wrong endpoints", "compose(3,3)=4 has wrong endpoints"),
    ("right endpoints, wrong value", "compose(3, inverse) is not the identity"),
])
def test_span_file_with_bad_composites_exits_2(tmp_path, how, message):
    data = _broken_foot_composite(how)
    path = tmp_path / "span.json"
    path.write_text(json.dumps(data))
    foot = tmp_path / "foot.json"
    foot.write_text(json.dumps(data["right_codomain"]))
    for args in (("degroupoidify", "--span", str(path)),
                 ("compose", "--first", str(path), "--second", str(path),
                  "-o", str(tmp_path / "out.json")),
                 ("card", str(foot))):
        result = run_cli(*args)
        assert result.returncode == 2
        assert str(foot if args[0] == "card" else path) in result.stderr
        assert message in result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == ""
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("alpha", ["1000000", "100000", "-7000"])
def test_degroupoidify_rejects_alpha_beyond_the_digit_limit(tmp_path, alpha):
    # the classes this span joins have |Aut| ratios up to 5, so entries
    # reach |alpha| log10 5 digits: 4893 at alpha -7000
    path = tmp_path / "span.json"
    path.write_text(json.dumps(span_to_json(annihilation_span(build_E(5)))))
    result = subprocess.run(
        [sys.executable, "-m", "spancalc.cli", "degroupoidify", "--span",
         str(path), "--alpha", alpha],
        capture_output=True, text=True, timeout=10)
    assert result.returncode == 2
    assert f"alpha {alpha} is too large" in result.stderr
    assert "Traceback" not in result.stderr and result.stdout == ""
    # and alpha = 5000 stays within 4300 digits
    assert cli.main(["degroupoidify", "--span", str(path), "--alpha",
                     "-5000", "-o", str(tmp_path / "m.json")]) == 0


def test_degroupoidify_without_a_digit_limit_stops_at_the_size_cap(tmp_path):
    # at alpha 6500 the entry n^(1 - alpha) at (n - 1, n) of this span
    # has a 4543-digit denominator at n = 5, past the default limit of
    # 4300, and 36 entries of at most 6500 log10(5) + 7 digits stay under
    # the size cap
    path = tmp_path / "span.json"
    path.write_text(json.dumps(span_to_json(annihilation_span(build_E(5)))))
    unlimited = dict(os.environ, PYTHONINTMAXSTRDIGITS="0")
    argv = [sys.executable, "-m", "spancalc.cli", "degroupoidify", "--span",
            str(path), "--alpha"]
    result = subprocess.run(argv + ["6500"], capture_output=True, text=True,
                            env=unlimited, timeout=10)
    assert result.returncode == 0, result.stderr
    assert max(len(entry) for row in json.loads(result.stdout)["entries"]
               for entry in row) > 4300
    # the 5 joined entries, of up to 3e6 log10 n digits at n = 1..5, have
    # 6.2e6 digits together, past the size cap of 5e6
    result = subprocess.run(argv + ["3000000"], capture_output=True,
                            text=True, env=unlimited, timeout=5)
    assert result.returncode == 2
    assert ("degroupoidify at alpha 3000000, counted in digits of its exact "
            "values, needs") in result.stderr
    assert "Traceback" not in result.stderr and result.stdout == ""


@contextlib.contextmanager
def recorded_digit_bounds():
    """The list of the (longest, total) digit bounds that the kernel's
    ``spans._entry_digits`` returns on its join while inside."""
    bounds = []
    entry_digits = spans._entry_digits

    def record(*args):
        bounds.append(entry_digits(*args))
        return bounds[-1]

    with mock.patch.object(spans, "_entry_digits", record):
        yield bounds


@pytest.mark.parametrize("alpha, longest", [("2000", 1556), ("-2000", 1558)])
def test_degroupoidify_prints_what_the_digit_bound_admits(monkeypatch, capsys,
                                                          alpha, longest):
    # the annihilation span of E truncated at 6 joins classes whose |Aut|
    # ratios reach 6, so its longest entries have about 2000 log10 6
    # digits; the span is passed in memory, as its file takes seconds to
    # read
    span = annihilation_span(build_E(6))
    monkeypatch.setattr(cli, "_from_file", lambda path, noun, reader: span)
    with recorded_digit_bounds() as bounds:
        assert cli.main(["degroupoidify", "--span", "E6.json", "--alpha",
                         alpha]) == 0
    assert bounds[0][0] == 1565
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert max(len(d) for row in entries for entry in row
               for d in re.findall(r"\d+", entry)) == longest


def test_degroupoidify_counts_digits_per_joined_entry_against_the_cap(
        tmp_path):
    # the annihilation span of E truncated at 5 joins 5 of its 36 entries;
    # at alpha 2000 each joined one has at most 1404 digits, and the other
    # 31 print 0/1
    path = tmp_path / "span.json"
    path.write_text(json.dumps(span_to_json(annihilation_span(build_E(5)))))
    argv = ("degroupoidify", "--span", str(path), "--alpha", "2000")
    assert run_cli(*argv, env={"SPANCALC_SIZE_CAP": "20000"}).returncode == 0
    result = run_cli(*argv, env={"SPANCALC_SIZE_CAP": "4205"})
    assert result.returncode == 2
    assert "counted in digits of its exact values, needs 4206 entries" \
        in result.stderr


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(rng=st.randoms(use_true_random=False),
       k=st.sampled_from([2, 3, 4, 6]),
       alpha=st.integers(-4000, 4000).map(lambda n: Fraction(n, 2)))
def test_alpha_digit_projection_is_never_below_the_printed_digits(rng, k,
                                                                  alpha):
    ax, ay = (random_cyclic_action(rng, k, rng.randint(1, 4))
              for _ in range(2))
    # twelve apex classes over the one pair of the point print 12/1, past
    # the digit of each 1/|Aut s|
    twelve = discrete(12)
    leg = GroupoidFunctor(twelve, terminal(), (0,) * 12, (0,) * 12)
    for span in (random_span(rng, k, ay, ax), annihilation_span(build_E(4)),
                 SpanOfGroupoids(twelve, leg, leg)):
        with recorded_digit_bounds() as bounds:
            matrix = degroupoidify_span(span, alpha)
        entries = matrix_to_json(matrix)["entries"]
        printed = [max(len(d) for d in re.findall(r"\d+", entry))
                   for row in entries for entry in row]
        [(longest, total)] = bounds
        assert longest >= max(printed) and total >= sum(printed)


def test_degroupoidify_refuses_a_power_of_three_past_the_limit(tmp_path,
                                                               capsys):
    # one apex class over classes with |Aut| 2 and 3: 3^10000 has 4772
    # digits, past the default limit of 4300
    z2, z3 = from_group_table(cyclic_table(2)), from_group_table(
        cyclic_table(3))
    apex = terminal()
    path = tmp_path / "span.json"
    path.write_text(json.dumps(span_to_json(SpanOfGroupoids(
        apex, GroupoidFunctor(apex, z3, (0,), (0,)),
        GroupoidFunctor(apex, z2, (0,), (0,))))))
    assert cli.main(["degroupoidify", "--span", str(path), "--alpha",
                     "10000"]) == 2
    assert "alpha 10000 is too large" in capsys.readouterr().err


def test_degroupoidify_names_alpha_as_typed_in_a_refusal():
    # |alpha| is taken as 10^300 in the digit bound, so the count is 300
    # digits of 10^300 log10 4 and more
    composite = Path(__file__).parent / "golden" / "compose_777.stdout"
    result = run_cli("degroupoidify", "--span", str(composite), "--alpha",
                     "1e5000")
    assert result.returncode == 2 and result.stdout == ""
    assert re.fullmatch(
        r"error: degroupoidify at alpha 1e5000 is too large: it prints "
        r"numbers of up to 6020599913279\d{287} digits, over the "
        r"interpreter's limit of 4300 \(PYTHONINTMAXSTRDIGITS\)\n",
        result.stderr)


@pytest.mark.parametrize("alpha, digit_limit", [
    ("1e300", None), ("1e10", "0"), ("-20000000001/2", "0")])
def test_degroupoidify_forms_no_power_that_the_entries_do_not_need(
        tmp_path, alpha, digit_limit):
    # the identity span of Z/2 joins classes of equal |Aut|, so its entry
    # is 1 at every alpha; a weight taken as 2^(1-alpha) 2^alpha would
    # form 2^alpha first and not finish in time.  The child's address
    # space is capped so that such a run fails instead of filling memory.
    z2 = from_group_table(cyclic_table(2))
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(span_to_json(identity_span(z2))))
    env = dict(os.environ)
    if digit_limit is not None:
        env["PYTHONINTMAXSTRDIGITS"] = digit_limit
    result = subprocess.run(
        [sys.executable, "-m", "spancalc.cli", "degroupoidify", "--span",
         str(path), f"--alpha={alpha}"],
        capture_output=True, text=True, env=env, timeout=10,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (2 ** 30, 2 ** 30)))
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["entries"] == [["1/1"]]


def test_span_file_with_a_leg_that_is_not_a_functor_exits_2(tmp_path):
    path = tmp_path / "span.json"
    path.write_text(json.dumps(_broken_annihilation_span(
        "right leg sends an identity to the swap")))
    for argv in (["degroupoidify", "--span", str(path)],
                 ["compose", "--first", str(path), "--second", str(path)]):
        result = run_cli(*argv)
        assert result.returncode == 2
        assert str(path) in result.stderr
        assert "does not preserve the composite of 1 and 1" in result.stderr
        assert "Traceback" not in result.stderr and result.stdout == ""


def test_card_rejects_identity_out_of_range(tmp_path):
    data = terminal().to_json()
    data["identity"] = [5]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    result = run_cli("card", str(path))
    assert result.returncode == 2
    assert str(path) in result.stderr and "identity" in result.stderr
    assert result.stdout == ""


def _broken_z2_pair(how: str) -> dict:
    """The JSON of two isomorphic objects with automorphisms Z/2, broken."""
    data = connected(2, cyclic_table(2)).to_json()
    if how == "tgt out of range":
        data["morphisms"][3]["tgt"] = 7
    elif how == "composite missing":
        data["compose"].remove([1, data["inverse"][1], 0])
    elif how == "composite out of range":
        data["compose"][8][2] = 99
    elif how == "identity not an endomorphism":
        data["identity"] = [0, 5]
    elif how == "inverse with wrong endpoints":
        data["inverse"][2] = 0
    return data


@pytest.mark.parametrize("how, violation", [
    ("tgt out of range", "morphism 3 has out-of-range endpoints"),
    ("composite missing", "compose(1,1) undefined"),
    ("composite out of range", "compose(2,4)=99 has wrong endpoints"),
    ("identity not an endomorphism", "identity of object 1 has endpoints"),
    ("inverse with wrong endpoints", "inverse[2]=0 has wrong endpoints"),
])
def test_check_reports_violations_without_traceback(tmp_path, how, violation):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_broken_z2_pair(how)))
    result = run_cli("check", str(path))
    assert result.returncode == 1
    assert violation in result.stdout
    assert result.stderr == ""


def test_check_stops_at_the_violation_limit(tmp_path):
    # Z/60 with every morphism's target out of range: 60 violations
    data = from_group_table(cyclic_table(60)).to_json()
    for m in data["morphisms"]:
        m["tgt"] = 7
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    result = run_cli("check", str(path))
    assert result.returncode == 1
    lines = result.stdout.splitlines()
    assert len(lines) == MAX_VIOLATIONS == 50
    assert lines[-1] == "morphism 49 has out-of-range endpoints"
    assert result.stderr == ""


WRONG_ENDPOINTS = {
    "identity not an endomorphism": "identity of object 1 has endpoints",
    "inverse with wrong endpoints": "inverse[2]=0 has wrong endpoints",
}


@pytest.mark.parametrize("how", sorted(WRONG_ENDPOINTS))
def test_card_rejects_wrong_endpoints(tmp_path, how):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_broken_z2_pair(how)))
    result = run_cli("card", str(path))
    assert result.returncode == 2
    assert str(path) in result.stderr and WRONG_ENDPOINTS[how] in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_cli_import_leaves_numpy_out():
    code = "import sys, spancalc.cli; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_hecke_run_leaves_numpy_out(tmp_path):
    out = tmp_path / "constants.json"
    code = ("import sys; from spancalc import cli; "
            f"status = cli.main(['hecke', '--q', '3', '--verify', '--constants', "
            f"{str(out)!r}, '--json']); "
            "print('numpy' in sys.modules); "
            "sys.exit(status)")
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("command", ["fock", "card", "compose",
                                     "degroupoidify", "hecke", "hall"])
def test_subcommand_run_leaves_numpy_out(command, loaded_modules):
    assert "numpy" not in loaded_modules(command)


def _modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    code += "; import json, sys; print(json.dumps(sorted(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


def _package_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m.startswith("spancalc.")}


def test_every_module_imports_without_numpy():
    # numpy = None makes each import of numpy raise ImportError
    code = ("import sys; sys.modules['numpy'] = None; "
            "import importlib, pkgutil, spancalc; "
            "names = [m.name for m in pkgutil.iter_modules(spancalc.__path__)]; "
            "[importlib.import_module('spancalc.' + n) for n in names]; "
            "print(' '.join(names))")
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert {"cli", "hall", "hecke"} <= set(result.stdout.split())


def test_package_import_loads_no_submodule():
    assert _package_modules(_modules_after("import spancalc")) == set()


def test_cli_import_loads_only_the_exact_core():
    assert _package_modules(_modules_after("import spancalc.cli")) == {
        "spancalc.cli", "spancalc.exact"}


# one successful run of each subcommand; {tmp} holds z2.json and span.json
SUBCOMMAND_ARGV = {
    "hecke": ["hecke", "--q", "2", "--verify", "--constants",
              "{tmp}/constants.json"],
    "hall": ["hall", "--quiver", "a2", "--q", "3", "--dmax", "2,1",
             "--table", "{tmp}/table.json"],
    "check": ["check", "{tmp}/z2.json"],
    "card": ["card", "{tmp}/z2.json"],
    "compose": ["compose", "--first", "{tmp}/span.json", "--second",
                "{tmp}/span.json", "-o", "{tmp}/composite.json"],
    "degroupoidify": ["degroupoidify", "--span", "{tmp}/span.json",
                      "--alpha", "1/2"],
    "fock": ["fock", "--truncate", "4", "--check-ccr", "--json"],
}

# dataclasses would pull in inspect, and with it ast and dis
NEVER_LOADED = {"dataclasses", "inspect", "numpy"}


@pytest.fixture(scope="module")
def loaded_modules(tmp_path_factory):
    """The modules a fresh interpreter holds after running a subcommand's
    ``SUBCOMMAND_ARGV`` through ``cli.main``, which must succeed; each
    subcommand runs once per module."""
    tmp = tmp_path_factory.mktemp("runs")
    (tmp / "z2.json").write_text(json.dumps(
        from_group_table(cyclic_table(2)).to_json()))
    (tmp / "span.json").write_text(json.dumps(
        span_to_json(annihilation_span(build_E(3)))))
    runs: dict[str, set[str]] = {}

    def loaded(command: str) -> set[str]:
        if command not in runs:
            argv = [a.format(tmp=tmp) for a in SUBCOMMAND_ARGV[command]]
            runs[command] = _modules_after(
                f"from spancalc import cli; status = cli.main({argv!r}); "
                "assert status == 0, status")
        return runs[command]

    return loaded


@pytest.mark.parametrize("argv, absent", [
    (SUBCOMMAND_ARGV[command], NEVER_LOADED | extra)
    for command, extra in [
        ("hecke", {"spancalc.groupoid", "spancalc.spans"}),
        ("hall", {"spancalc.groupoid", "spancalc.spans"}),
        ("check", {"spancalc.spans", "spancalc.fq"}),
        ("card", {"spancalc.spans", "spancalc.fq"}),
        ("compose", {"spancalc.fock", "spancalc.fq"}),
        ("degroupoidify", {"spancalc.fock", "spancalc.fq"}),
        ("fock", {"spancalc.fq", "spancalc.hall", "spancalc.hecke",
                  "spancalc.groupoid", "spancalc.spans"}),
    ]])
def test_subcommand_run_loads_only_its_modules(argv, absent, loaded_modules):
    assert not loaded_modules(argv[0]) & absent


def test_every_package_module_runs_in_some_subcommand(loaded_modules):
    package = {f"spancalc.{m.name}"
               for m in pkgutil.iter_modules(spancalc.__path__)}
    assert set().union(*(_package_modules(loaded_modules(command))
                         for command in SUBCOMMAND_ARGV)) == package


def _readme_module_table() -> dict[str, set[str]]:
    """README's "subcommand | spancalc modules loaded" table: per
    subcommand, the modules named in its row."""
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| subcommand | spancalc modules loaded |")
    table = {}
    for row in itertools.takewhile(lambda line: line.startswith("|"),
                                   lines[start + 2:]):
        commands, modules = row.strip("|").split("|")
        for command in re.findall(r"`([^`]+)`", commands):
            table[command] = set(re.findall(r"`([^`]+)`", modules))
    return table


def test_readme_module_table_lists_every_subcommand():
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert set(_readme_module_table()) == set(subparsers.choices) \
        == set(SUBCOMMAND_ARGV)


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGV))
def test_readme_module_table_matches_the_modules_loaded(command,
                                                        loaded_modules):
    loaded = {m.removeprefix("spancalc.")
              for m in _package_modules(loaded_modules(command))}
    assert _readme_module_table()[command] == loaded


@pytest.mark.parametrize("dmax", ["1,1", "0,0"])
def test_hall_huge_prime_q_exits_quickly(dmax):
    # 10^18 + 3 is prime: 0,0 needs no matrix at all, 1,1 breaches a cap
    result = subprocess.run(
        [sys.executable, "-m", "spancalc.cli", "hall", "--quiver", "a2",
         "--q", str(10 ** 18 + 3), "--dmax", dmax],
        capture_output=True, text=True, timeout=5)
    assert result.returncode in (0, 2)
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("quiver, q, dmax", [
    ("a2", "1", f"{10 ** 25},1"),
    ("a2", "0", f"{10 ** 25},1"),
    ("a2", "-1", "1,1"),
    ("a2", "2", f"{10 ** 25},1"),
    ("a1", "1", str(10 ** 11)),
])
def test_hall_caps_hold_for_any_q_and_dmax(quiver, q, dmax):
    # below q = 2 the capped counts never grow, and an exponent past the
    # machine word must not reach itertools.repeat whole
    result = subprocess.run(
        [sys.executable, "-m", "spancalc.cli", "hall", "--quiver", quiver,
         "--q", q, "--dmax", dmax], capture_output=True, text=True,
        timeout=5)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr and result.stdout == ""


def test_hall_q_past_the_primality_bound_exits_2():
    result = run_cli("hall", "--quiver", "a2", "--q", str(10 ** 25),
                     "--dmax", "0,0")
    assert result.returncode == 2
    assert "primality" in result.stderr
    assert "Traceback" not in result.stderr and result.stdout == ""


def test_hecke_q3_within_budget(tmp_path):
    out = tmp_path / "constants.json"
    start = time.perf_counter()
    result = run_cli("hecke", "--q", "3", "--verify", "--constants",
                     str(out), "--json")
    elapsed = time.perf_counter() - start
    assert result.returncode == 0
    assert json.loads(result.stdout)["relations"] == {
        "P^2 = (3-1)P + 3I": True, "L^2 = (3-1)L + 3I": True,
        "PLP = LPL (Yang-Baxter)": True}
    assert elapsed < 0.8, f"took {elapsed:.2f} s"


def test_hecke_q5_constants_match_iwahori_hecke(tmp_path):
    out = tmp_path / "constants.json"
    result = run_cli("hecke", "--q", "5", "--constants", str(out))
    assert result.returncode == 0, result.stderr
    payload = json.loads(out.read_text())
    names = list(S3_WORDS)
    assert payload["labels"] == names
    oracle = iwahori_hecke_s3(5)
    assert payload["tensor"] == {
        u: {v: {w: f"{c.numerator}/{c.denominator}"
                for w, c in zip(names, oracle[ui][vi]) if c}
            for vi, v in enumerate(names)}
        for ui, u in enumerate(names)}


@pytest.mark.parametrize("args, env", [
    (["hecke", "--q", "101", "--verify"], None),
    (["hecke", "--q", "3"], {"SPANCALC_SIZE_CAP": "100"}),
])
def test_hecke_caps_are_checked_before_any_work(args, env):
    full_env = dict(os.environ, **(env or {}))
    result = subprocess.run([sys.executable, "-m", "spancalc.cli", *args],
                            capture_output=True, text=True, env=full_env,
                            timeout=5)
    assert result.returncode == 2
    assert "SPANCALC_SIZE_CAP" in result.stderr
    assert "Traceback" not in result.stderr and result.stdout == ""


def test_hecke_cap_breach_past_the_printed_digit_limit_names_its_cap():
    # about 2 q^3 flags: a count of 4501 digits, past the 4300 that Python
    # prints by default, is printed as a bound
    result = subprocess.run(
        [sys.executable, "-m", "spancalc.cli", "hecke", "--q",
         str(10 ** 1500 + 1), "--verify"], capture_output=True, text=True,
        env=dict(os.environ, PYTHONINTMAXSTRDIGITS="4300"), timeout=5)
    assert result.returncode == 2
    assert "flag geometry at q=" in result.stderr
    assert "needs more than 10^4500 entries, over the size cap" \
        in result.stderr
    assert "SPANCALC_SIZE_CAP" in result.stderr
    assert "Traceback" not in result.stderr and result.stdout == ""


def test_hecke_verify_past_the_work_cap_exits_2():
    # q = 17 needs 5.4e7 product terms: the work cap, not the size cap
    result = subprocess.run(
        [sys.executable, "-m", "spancalc.cli", "hecke", "--q", "17",
         "--verify"], capture_output=True, text=True,
        env=dict(os.environ, SPANCALC_SIZE_CAP=str(10 ** 12)), timeout=5)
    assert result.returncode == 2
    assert "relation product terms" in result.stderr
    assert "SPANCALC_SIZE_CAP" not in result.stderr
    assert "Traceback" not in result.stderr and result.stdout == ""


def _digits_of_ten_times_factorial() -> list[int]:
    """The decimal digits of 10 * N! for N = 0, 1, ..., up to 700 digits,
    counted by comparison with powers of 10, so no int is printed."""
    out, factorial, digits, power = [], 10, 2, 100
    for N in itertools.count():
        factorial *= max(N, 1)
        while factorial >= power:
            digits += 1
            power *= 10
        if digits > 700:
            return out
        out.append(digits)


def test_fock_refuses_numbers_past_the_digit_limit_exactly():
    # every number printed at truncation N is below 10 * N!; at the least
    # digit limit Python allows, N0 is the last truncation whose bound fits
    limit = 640
    digits = _digits_of_ten_times_factorial()
    N0 = max(N for N, d in enumerate(digits) if d <= limit)
    env = {"PYTHONINTMAXSTRDIGITS": str(limit)}
    result = run_cli("fock", "--truncate", str(N0), "--json", env=env)
    assert result.returncode == 0, result.stderr
    assert len(json.loads(result.stdout)["cardinality"]) > limit
    result = run_cli("fock", "--truncate", str(N0 + 1), env=env)
    assert result.returncode == 2
    assert (f"prints numbers of up to {digits[N0 + 1]} digits, over the "
            f"interpreter's limit of {limit} (PYTHONINTMAXSTRDIGITS)") \
        in result.stderr
    assert "Traceback" not in result.stderr and result.stdout == ""


def test_fock_series_json():
    result = run_cli("fock", "--truncate", "4", "--series", "two-colored",
                     "--json")
    payload = json.loads(result.stdout)
    assert payload["series"] == ["1/1", "2/1", "2/1", "4/3", "2/3"]


def test_fock_checks_the_size_cap_exactly():
    # at N = 12 a run forms N + 2 values for the cardinality and psi,
    # 3N + 1 for the truncated A, A* and their commutator, and
    # (N + 1)(N + 2)/2 two-colored classes: 142 values of at most 10
    # digits, those of 10 * 12! = 4790016000
    argv = ("fock", "--truncate", "12", "--check-ccr", "--series",
            "two-colored")
    result = run_cli(*argv, env={"SPANCALC_SIZE_CAP": "1419"})
    assert result.returncode == 2
    assert ("error: fock --truncate 12, counted in digits of its exact "
            "values, needs 1420 entries") in result.stderr
    assert "Traceback" not in result.stderr and result.stdout == ""
    result = run_cli(*argv, env={"SPANCALC_SIZE_CAP": "1420"})
    assert result.returncode == 0, result.stderr
    assert "PASS" in result.stdout


@pytest.mark.parametrize("N", [12, 1000, 10 ** 6, 10 ** 18])
def test_fock_truncation_ladder_exits_0_or_2_quickly(N):
    result = subprocess.run(
        [sys.executable, "-m", "spancalc.cli", "fock", "--truncate", str(N),
         "--check-ccr"], capture_output=True, text=True, timeout=5)
    assert result.returncode in (0, 2)
    assert "Traceback" not in result.stderr


def test_hecke_verify_and_constants(tmp_path):
    result = run_cli("hecke", "--q", "2", "--verify")
    assert result.returncode == 0
    assert result.stdout.count("PASS") == 3
    out = tmp_path / "constants.json"
    result = run_cli("hecke", "--q", "2", "--constants", str(out))
    assert result.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["labels"] == ["e", "P", "L", "PL", "LP", "PLP"]
    assert payload["tensor"]["P"]["P"] == {"e": "2/1", "P": "1/1"}


def test_hall_cli_table(tmp_path):
    out = tmp_path / "table.json"
    result = run_cli("hall", "--quiver", "a2", "--q", "2",
                     "--dmax", "1,1", "--table", str(out))
    assert result.returncode == 0
    payload = json.loads(out.read_text())
    key = "d1,0#0*d0,1#0"
    assert payload["products"][key] == {"d1,1#0": "1/1", "d1,1#1": "1/1"}


@pytest.mark.parametrize("args, message", [
    (["fock", "--truncate", "3", "--psi", "-2"], "n=-2"),
    (["fock", "--truncate", "-1"], "--truncate -1"),
    (["hall", "--quiver", "a2", "--q", "2", "--dmax=-1,1"], "--dmax -1,1"),
])
def test_negative_integer_arguments_exit_2(args, message):
    result = run_cli(*args)
    assert result.returncode == 2
    assert message in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_hall_caps_are_checked_before_any_work():
    result = subprocess.run(
        [sys.executable, "-m", "spancalc.cli", "hall", "--quiver", "a2",
         "--q", "7", "--dmax", "3,3"],
        capture_output=True, text=True, timeout=5)
    assert result.returncode == 2
    assert "representation enumeration" in result.stderr
    assert "cap of 1000000" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("quiver, dmax", [("a1", "20"), ("a2", "12,0")])
def test_hall_subspace_cap_stops_the_vertices_no_edge_constrains(quiver,
                                                                 dmax):
    # no edge means one representation, but the span route would list
    # every subspace of F_2^20 or F_2^12
    result = subprocess.run(
        [sys.executable, "-m", "spancalc.cli", "hall", "--quiver", quiver,
         "--q", "2", "--dmax", dmax],
        capture_output=True, text=True, timeout=5)
    assert result.returncode == 2
    assert "subspace enumeration" in result.stderr
    assert "Traceback" not in result.stderr and result.stdout == ""


def test_hall_a2_q3_dmax_2_2_within_budget():
    start = time.perf_counter()
    result = run_cli("hall", "--quiver", "a2", "--q", "3", "--dmax", "2,2")
    elapsed = time.perf_counter() - start
    assert result.returncode == 0
    assert result.stdout.count("PASS") == 2
    assert elapsed < 3.0, f"took {elapsed:.2f} s"


def test_output_is_deterministic(tmp_path):
    runs = [run_cli("hecke", "--q", "2", "--verify", "--json").stdout
            for _ in range(2)]
    assert runs[0] == runs[1]
    E = build_E(3)
    path = tmp_path / "span.json"
    path.write_text(json.dumps(span_to_json(annihilation_span(E))))
    outs = [run_cli("degroupoidify", "--span", str(path)).stdout
            for _ in range(2)]
    assert outs[0] == outs[1]


def test_size_cap_env_override(tmp_path):
    E = build_E(3)
    path = tmp_path / "span.json"
    path.write_text(json.dumps(span_to_json(annihilation_span(E))))
    result = run_cli("compose", "--first", str(path), "--second", str(path),
                     env={"SPANCALC_SIZE_CAP": "2"})
    assert result.returncode == 2
    assert "SPANCALC_SIZE_CAP" in result.stderr


@pytest.mark.parametrize("value", ["abc", "-5"])
def test_size_cap_must_be_a_count(monkeypatch, capsys, value):
    monkeypatch.setenv("SPANCALC_SIZE_CAP", value)
    assert cli.main(["fock", "--truncate", "4"]) == 2
    assert capsys.readouterr().err == \
        f"error: SPANCALC_SIZE_CAP={value!r} is not an integer >= 0\n"


def test_compose_past_the_cap_stops_at_the_pullback(tmp_path):
    # point <- 100 points -> point, composed with itself: 10^4 objects
    apex = discrete(100)
    leg = GroupoidFunctor(apex, terminal(), (0,) * 100,
                          (0,) * 100)
    path = tmp_path / "span.json"
    path.write_text(json.dumps(span_to_json(SpanOfGroupoids(apex, leg, leg))))
    result = run_cli("compose", "--first", str(path), "--second", str(path),
                     env={"SPANCALC_SIZE_CAP": "1000"})
    assert result.returncode == 2
    assert "error: weak pullback objects needs 10000 entries" in result.stderr
    assert "serialization" not in result.stderr
    assert "Traceback" not in result.stderr and result.stdout == ""
