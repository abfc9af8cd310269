"""Command-line surface: batch verification and exact file-to-file computation.

Exit status: 0 on success, 1 when a verification check fails, 2 on input
errors (malformed JSON, unsupported parameters, size-cap breaches).
All rationals are printed as reduced "p/q" strings; output is
deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .exact import SizeCapError, format_rational

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2


class InputError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"{path}: cannot read ({exc.strerror})")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno} "
                         f"column {exc.colno}: {exc.msg}")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc})")
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply")
    except ValueError as exc:       # such as an integer past the digit limit
        raise InputError(f"{path}: unreadable JSON ({exc})")


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"{path}: cannot write ({exc.strerror})")


def _parse_alpha(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"invalid alpha {text!r}")


def _from_file(path: str, noun: str, reader):
    """``reader`` applied to the JSON in ``path``: the one reader of
    groupoid and span files.  If it fails, an InputError says the file is
    not a ``noun`` file, with the reader's error as its cause."""
    data = _load_json(path)
    try:
        return reader(data)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise InputError(f"{path}: not a {noun} file ({exc})") from exc


def cmd_check(args) -> int:
    from .groupoid import FiniteGroupoid, Violations

    # a file that parses but breaks an axiom is a report, not an input error
    try:
        _from_file(args.groupoid, "groupoid", FiniteGroupoid.from_json)
        report = []
    except InputError as exc:
        if not isinstance(exc.__cause__, Violations):
            raise
        report = exc.__cause__.violations
    if args.json:
        print(json.dumps({"valid": not report, "violations": report}))
    else:
        if report:
            for line in report:
                print(line)
        else:
            print("valid")
    return EXIT_OK if not report else EXIT_VERIFICATION


def cmd_card(args) -> int:
    from .groupoid import FiniteGroupoid, cardinality

    g = _from_file(args.groupoid, "groupoid", FiniteGroupoid.from_json)
    value = cardinality(g)
    if args.json:
        print(json.dumps({"cardinality": format_rational(value)}))
    else:
        print(format_rational(value))
    return EXIT_OK


def cmd_degroupoidify(args) -> int:
    from .groupoid import iso_classes
    from .spans import (degroupoidify_span, matrix_to_csv, matrix_to_json,
                        span_from_json)

    span = _from_file(args.span, "span", span_from_json)
    alpha = _parse_alpha(args.alpha)
    matrix = degroupoidify_span(span, alpha, label=f"alpha {args.alpha}")
    if args.csv:
        _write_output(matrix_to_csv(matrix), args.output)
    else:
        payload = matrix_to_json(matrix, iso_classes(span.target),
                                 iso_classes(span.source))
        _write_output(json.dumps(payload, indent=None), args.output)
    return EXIT_OK


def cmd_compose(args) -> int:
    from .spans import compose_spans, span_from_json, span_to_json

    t = _from_file(args.first, "span", span_from_json)
    s = _from_file(args.second, "span", span_from_json)
    composed = compose_spans(t, s)
    _write_output(json.dumps(span_to_json(composed)), args.output)
    return EXIT_OK


def cmd_fock(args) -> int:
    N = args.truncate
    if N < 0:
        raise InputError(f"--truncate {N} is negative")
    from . import fock  # imported only when needed

    fock.check_size(N, args.check_ccr, args.series == "two-colored")
    cardinality = format_rational(fock.e_partial_sum(N))
    status = EXIT_OK
    out: dict = {"truncation": N, "cardinality": cardinality}
    lines = [f"|E_<={N}| = {cardinality}"]
    if args.check_ccr:
        report = fock.verify_ccr(N)
        out["ccr"] = {
            "pass": report.ok,
            "block": report.block,
            "boundary": [[i, j, format_rational(v)]
                         for i, j, v in report.discrepancies],
        }
        lines.append(str(report))
        if not report.ok:
            status = EXIT_VERIFICATION
    if args.series == "two-colored":
        series = fock.generating_function(fock.two_colored_stuff(N), N)
        out["series"] = [format_rational(c) for c in series.coefficients]
        lines.append(str(series))
    if args.psi is not None:
        series = fock.generating_function(fock.psi_n(args.psi, N), N)
        out["psi"] = [format_rational(c) for c in series.coefficients]
        lines.append(str(series))
    print(json.dumps(out) if args.json else "\n".join(lines))
    return status


def cmd_hecke(args) -> int:
    from . import hecke  # imported only when needed

    verify = args.verify or not args.constants
    hecke.check_caps(args.q, relations=verify,
                     constants=bool(args.constants))   # before any work
    status = EXIT_OK
    out: dict = {"q": args.q}
    lines = []
    if verify:
        report = hecke.verify_hecke_relations(args.q)
        out["relations"] = {name: passed for name, passed in report.checks}
        lines.append(str(report))
        if not report.ok:
            status = EXIT_VERIFICATION
    if args.constants:
        tensor = hecke.hecke_structure_constants(args.q)
        payload = {
            "q": args.q,
            "labels": list(tensor.labels),
            "tensor": {
                u: {v: {w: format_rational(
                    tensor.tensor[ui][vi][wi])
                    for wi, w in enumerate(tensor.labels)
                    if tensor.tensor[ui][vi][wi] != 0}
                    for vi, v in enumerate(tensor.labels)}
                for ui, u in enumerate(tensor.labels)},
        }
        _write_output(json.dumps(payload), args.constants)
        lines.append(f"structure constants written to {args.constants}")
    print(json.dumps(out) if args.json else "\n".join(lines))
    return status


def cmd_hall(args) -> int:
    from . import hall  # imported only when needed

    quiver = hall.parse_quiver(args.quiver)
    dmax = tuple(int(d) for d in args.dmax.split(","))
    if len(dmax) != quiver.n_vertices:
        raise InputError(
            f"--dmax needs {quiver.n_vertices} entries for {args.quiver}")
    if min(dmax) < 0:
        raise InputError(f"--dmax {args.dmax} has a negative entry")
    hall.check_caps(quiver, args.q, dmax)   # before any work, even primality
    algebra = hall.HallAlgebra(quiver, args.q)
    failures = algebra.check_associativity(dmax)
    agree = True
    products = {}
    for dm, dn in hall.dimvecs_within(dmax, 2):
        for M in algebra.classes(dm):
            for N in algebra.classes(dn):
                direct = algebra.product(M, N)
                via = algebra.product_via_span(M, N)
                if direct != via:
                    agree = False
                products[f"{M.label}*{N.label}"] = {
                    algebra.class_by_key(k).label: format_rational(v)
                    for k, v in sorted(direct.items())}
    lines = [
        f"{'PASS' if agree else 'FAIL'}: direct product = span product "
        f"(alpha = 1) on all pairs",
        f"{'PASS' if not failures else 'FAIL'}: associativity on all "
        f"class triples within dmax",
    ]
    out = {"q": args.q, "quiver": args.quiver, "dmax": list(dmax),
           "span_agrees": agree, "associative": not failures}
    if args.table:
        payload = {"q": args.q, "quiver": args.quiver,
                   "convention": "second factor is the subobject",
                   "products": products}
        _write_output(json.dumps(payload), args.table)
        lines.append(f"multiplication table written to {args.table}")
    print(json.dumps(out) if args.json else "\n".join(lines))
    return EXIT_OK if agree and not failures else EXIT_VERIFICATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spancalc",
        description="exact degroupoidification of finite groupoids and spans")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a groupoid JSON file")
    p.add_argument("groupoid")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("card", help="exact cardinality of a groupoid")
    p.add_argument("groupoid")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_card)

    p = sub.add_parser("degroupoidify", help="matrix of a span")
    p.add_argument("--span", required=True)
    p.add_argument("--alpha", default="0")
    p.add_argument("--csv", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_degroupoidify)

    p = sub.add_parser("compose", help="compose two spans by weak pullback")
    p.add_argument("--first", required=True, help="outer span (applied second)")
    p.add_argument("--second", required=True, help="inner span (applied first)")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("fock", help="truncated finite-sets groupoid checks")
    p.add_argument("--truncate", type=int, required=True)
    p.add_argument("--check-ccr", action="store_true")
    p.add_argument("--series", choices=["two-colored"])
    p.add_argument("--psi", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_fock)

    p = sub.add_parser("hecke", help="A2 Hecke relations and constants")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--constants", metavar="OUT")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_hecke)

    p = sub.add_parser("hall", help="Hall algebra of a quiver")
    p.add_argument("--quiver", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--dmax", required=True, help="comma-separated bounds")
    p.add_argument("--table", metavar="OUT")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_hall)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, SizeCapError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
