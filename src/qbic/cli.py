"""Command line interface.

Subcommands map one-to-one onto the library modules: `type` and
`normal-form` classify a Gram matrix file, `aut` and `hermitian` report
on its symmetry, `moduli`, `specialize`, and `witness` work with the
specialization order on types.  All reports are deterministic JSON.

Exit codes: 0 success; 1 specialize verdict "no"/"unknown" under
--strict; 2 input error; 3 cost-guard refusal; 4 a computed certificate or
an invariant of its construction failed its check (VerificationError).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import CostGuardError, VerificationError
from .fields import parse_field_spec
from .forms import (QBicForm, hermitian_gram, hermitian_space, parse_type,
                    type_report)
from .linalg import parse_matrix_file
from .classify import NeedsExtension, normal_form, standard_gram
from .auts import aut_report, dimensions_report
from . import moduli as moduli_mod


class InputError(Exception):
    pass


def _read_form(path, field_spec):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as ex:
        raise InputError(f"{path}: {ex}") from None
    if field_spec and "field:" not in text:
        text = f"field: {field_spec}\n" + text
    try:
        field, gram = parse_matrix_file(text)
    except ValueError as ex:
        raise InputError(f"{path}: {ex}") from None
    if field_spec:
        try:
            wanted = parse_field_spec(field_spec)
        except ValueError as ex:
            raise InputError(f"--field: {ex}") from None
        if wanted != field:
            raise InputError(f"{path}: file field {field.spec_string()!r} "
                             f"does not match --field {field_spec!r}")
    return QBicForm(field, gram)


def _require_finite(f, command):
    if f.field.kind != "finite":
        raise InputError(f"{command} needs a finite field, not "
                         f"{f.field.spec_string()!r}")


def _matrix_json(M):
    return [[str(M[i, j]) for j in range(M.ncols)] for i in range(M.nrows)]


def _emit(data, out_path=None):
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_type_arg(text):
    try:
        return parse_type(text)
    except ValueError as ex:
        raise InputError(str(ex)) from None


def cmd_type(args):
    f = _read_form(args.gram, args.field)
    _emit(type_report(f), args.output)
    return 0


def cmd_normal_form(args):
    f = _read_form(args.gram, args.field)
    _require_finite(f, "normal-form")
    try:
        cert = normal_form(f, allow_extension=args.allow_extension)
    except NeedsExtension as ex:
        _emit({"verified": False, "needs_extension": ex.degree}, args.output)
        return 0
    _emit({
        "type": str(cert.target),
        "extension_degree": cert.extension_degree,
        "field": cert.extension_field.spec_string(),
        "transform": _matrix_json(cert.transform),
        "target": _matrix_json(standard_gram(cert.target,
                                             cert.extension_field)),
        "verified": cert.verified,
    }, args.output)
    return 0


def cmd_aut(args):
    if (args.type is None) == (args.gram is None):
        raise InputError("aut needs exactly one of --type or a gram file")
    if args.type is not None:
        if args.points:
            raise InputError("--points needs a gram file, not --type")
        _emit(dimensions_report(_parse_type_arg(args.type)), args.output)
        return 0
    f = _read_form(args.gram, args.field)
    if args.points:
        _require_finite(f, "aut --points")
    _emit(aut_report(f, points=args.points), args.output)
    return 0


def cmd_hermitian(args):
    if args.ext < 1:
        raise InputError("--ext must be a positive integer")
    f = _read_form(args.gram, args.field)
    _require_finite(f, "hermitian")
    h = hermitian_space(f, args.ext)
    _emit({
        "r": h.r,
        "d": h.d,
        "point_count": h.point_count,
        "gram": _matrix_json(hermitian_gram(h)),
    }, args.output)
    return 0


def cmd_moduli(args):
    if args.dim < 1:
        raise InputError("--dim must be a positive integer")
    restrict = None
    if args.restrict:
        restrict = [_parse_type_arg(s) for s in args.restrict.split(",")]
    try:
        poset = moduli_mod.build_poset(args.dim, restrict=restrict)
    except ValueError as ex:
        raise InputError(f"--restrict: {ex}") from None
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(poset.to_dot())
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(poset.to_json())
    _emit({"n": poset.n, "nodes": len(poset.nodes),
           "edges": len(poset.edges), "unknown": 0},
          args.output)
    return 0


def cmd_specialize(args):
    tA = _parse_type_arg(args.src)
    tB = _parse_type_arg(args.dst)
    if tA.n != tB.n:
        raise InputError(f"types have dimensions {tA.n} and {tB.n}")
    verdict, detail = moduli_mod.specialize_query(tA, tB)
    data = {"from": str(tA), "to": str(tB), "verdict": verdict}
    if verdict == "yes":
        data["evidence"] = detail
    elif verdict == "no":
        data["violated_psi_index"] = detail
    _emit(data, args.output)
    if args.strict and verdict in ("no", "unknown"):
        return 1
    return 0


def cmd_witness(args):
    try:
        w = moduli_mod.witness(args.family, args.s, args.t, q=args.q)
    except ValueError as ex:
        raise InputError(str(ex)) from None
    _emit({
        "family": f"F{w.family}",
        "s": w.s,
        "t": w.t,
        "field": w.form.field.spec_string(),
        "gram": _matrix_json(w.form.gram),
        "generic_type": str(w.generic_type),
        "special_type": str(w.special_type),
        "claimed_generic": str(w.claimed_generic),
        "claimed_special": str(w.claimed_special),
        "verified": w.verified,
    }, args.output)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qbic", description="Exact classification of q-bic forms.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("gram", help="Gram matrix file")
        sp.add_argument("--field", help="field spec, e.g. "
                        "'2^2 q=2 mod=[1,1,1]'")
        sp.add_argument("--output", help="write the JSON report here "
                        "instead of stdout")

    sp = sub.add_parser("type", help="type invariant of a Gram matrix")
    add_common(sp)
    sp.set_defaults(fn=cmd_type)

    sp = sub.add_parser("normal-form", help="normal form certificate")
    add_common(sp)
    sp.add_argument("--allow-extension", action="store_true",
                    help="permit passing to a finite extension field")
    sp.set_defaults(fn=cmd_normal_form)

    sp = sub.add_parser("aut", help="automorphism group dimensions")
    sp.add_argument("gram", nargs="?", help="Gram matrix file")
    sp.add_argument("--field", help="field spec")
    sp.add_argument("--type", help="type string instead of a matrix file")
    sp.add_argument("--points", action="store_true",
                    help="enumerate rational points (tiny instances only)")
    sp.add_argument("--output")
    sp.set_defaults(fn=cmd_aut)

    sp = sub.add_parser("hermitian", help="Hermitian vectors over an "
                        "extension")
    add_common(sp)
    sp.add_argument("--ext", type=int, default=1, metavar="R",
                    help="extension degree r (default 1)")
    sp.set_defaults(fn=cmd_hermitian)

    sp = sub.add_parser("moduli", help="specialization poset for "
                        "dimension n")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--dot", help="write the Hasse diagram here as DOT")
    sp.add_argument("--json", help="write the full poset dump here")
    sp.add_argument("--restrict", help="comma-separated list of types")
    sp.add_argument("--output")
    sp.set_defaults(fn=cmd_moduli)

    sp = sub.add_parser("specialize", help="decide a specialization query")
    sp.add_argument("--from", dest="src", required=True, metavar="TYPE")
    sp.add_argument("--to", dest="dst", required=True, metavar="TYPE")
    sp.add_argument("--strict", action="store_true",
                    help="exit 1 on verdict no/unknown")
    sp.add_argument("--output")
    sp.set_defaults(fn=cmd_specialize)

    sp = sub.add_parser("witness", help="degeneration witness over "
                        "GF(q^2)(t)")
    sp.add_argument("--family", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--t", type=int)
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--output")
    sp.set_defaults(fn=cmd_witness)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except CostGuardError as ex:
        print(f"cost guard: {ex}", file=sys.stderr)
        return 3
    except VerificationError as ex:
        print(f"verification failed: {ex}", file=sys.stderr)
        return 4
    except OSError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
