"""Command line interface.

Subcommands map one-to-one onto the library modules: `type` and
`normal-form` classify a Gram matrix file, `aut` and `hermitian` report
on its symmetry, `moduli`, `specialize`, and `witness` work with the
specialization order on types.  Each subcommand returns its report, and
any further files it asks for; `main` alone writes them, the report as
deterministic JSON to stdout or to `--output` (which every subcommand
takes), and writes refusals to stderr.  A command that fails leaves none
of the files it wrote behind.  `run`, the process entry point, ends the
process once main's output is flushed.

Exit codes: 0 success; 1 specialize verdict "no"/"unknown" under
--strict; 2 input error (InputError, which the library raises where it
refuses a value) or a file that cannot be read or written; 3 cost-guard
refusal (CostGuardError); 4 a computed certificate or an invariant of its
construction failed its check (VerificationError).  Anything else is a bug.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import NamedTuple

from . import CostGuardError, InputError, VerificationError
from .fields import parse_field_spec
from .forms import (QBicForm, hermitian_gram, hermitian_space, parse_type,
                    type_of, type_report)
from .linalg import parse_matrix_file
from .classify import extension_degree, normal_form, standard_gram
from .auts import dimensions_report, enumerate_points
from . import moduli as moduli_mod


class _Result(NamedTuple):
    """A subcommand's report with its exit code and the further files
    (path, text) it asks for, such as moduli's --dot and --json."""
    report: dict
    code: int = 0
    files: tuple = ()


def _write_files(files):
    """Write each (path, text) in order.  When one cannot be written, the
    ones already written are removed, so a failed command leaves no file."""
    done = []
    try:
        for path, text in files:
            with open(path, "w") as fh:
                done.append(path)
                fh.write(text)
    except OSError:
        for path in done:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _read_form(args):
    """The form in the UTF-8 file args.gram, over the field args.field when
    given; the library refuses a field that a command cannot work over."""
    wanted = None
    if args.field is not None:
        try:
            wanted = parse_field_spec(args.field)
        except InputError as ex:
            raise InputError(f"--field: {ex}") from None
    path = args.gram
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if wanted is not None and "field:" not in text:
            text = f"field: {args.field}\n" + text
        field, gram = parse_matrix_file(text)
    except (OSError, UnicodeDecodeError, InputError) as ex:
        raise InputError(f"{path}: {ex}") from None
    if wanted is not None and wanted != field:
        raise InputError(f"{path}: file field {field.spec_string()!r} "
                         f"does not match --field {args.field!r}")
    return QBicForm(field, gram)


def _matrix_json(M):
    return [[str(x) for x in row] for row in M.rows]


def cmd_type(args):
    return type_report(_read_form(args))


def cmd_normal_form(args):
    f = _read_form(args)
    if not args.allow_extension and (r := extension_degree(f)) > 1:
        return {"verified": False, "needs_extension": r}
    cert = normal_form(f)
    return {
        "type": str(cert.target),
        "extension_degree": cert.extension_degree,
        "field": cert.extension_field.spec_string(),
        "transform": _matrix_json(cert.transform),
        "target": _matrix_json(standard_gram(cert.target,
                                             cert.extension_field)),
        "verified": cert.verified,
    }


def cmd_aut(args):
    if (args.type is None) == (args.gram is None):
        raise InputError("aut needs exactly one of --type or a gram file")
    if args.type is not None:
        if args.points:
            raise InputError("--points needs a gram file, not --type")
        if args.field is not None:
            raise InputError("--field needs a gram file, not --type")
        return dimensions_report(parse_type(args.type))
    f = _read_form(args)
    # counted first: its guard reads only n and |F|, and typing costs more
    points = ({"field": f"{f.field.p}^{f.field.k}",
               "count": enumerate_points(f)[0]} if args.points else None)
    return {**dimensions_report(type_of(f)), "points": points}


def cmd_hermitian(args):
    if args.ext < 1:
        raise InputError("--ext must be a positive integer")
    h = hermitian_space(_read_form(args), args.ext)
    return {
        "r": h.r,
        "d": h.d,
        "point_count": h.point_count,
        "gram": _matrix_json(hermitian_gram(h)),
    }


def cmd_moduli(args):
    if args.dim < 1:
        raise InputError("--dim must be a positive integer")
    try:
        restrict = (None if args.restrict is None
                    else [parse_type(s) for s in args.restrict.split(",")])
        poset = moduli_mod.build_poset(args.dim, restrict=restrict)
    except InputError as ex:
        raise InputError(f"--restrict: {ex}") from None
    dumps = ((args.dot, poset.to_dot), (args.json, poset.to_json))
    files = tuple((path, dump()) for path, dump in dumps if path)
    return _Result({"n": poset.n, "nodes": len(poset.nodes),
                    "edges": len(poset.edges), "unknown": 0}, files=files)


def cmd_specialize(args):
    tA = parse_type(args.src)
    tB = parse_type(args.dst)
    verdict, detail = moduli_mod.specialize_query(tA, tB)
    report = {"from": str(tA), "to": str(tB), "verdict": verdict}
    if verdict == "yes":
        report["evidence"] = detail
    elif verdict == "no":
        report["violated_psi_index"] = detail
    return _Result(report, int(args.strict and verdict in ("no", "unknown")))


def cmd_witness(args):
    w = moduli_mod.witness(args.family, args.s, args.t, q=args.q)
    return {
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
    }


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qbic", description="Exact classification of q-bic forms.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(name, fn, help, gram=True):
        """The subcommand `name`, run by fn, with --output; with a Gram
        file and --field unless gram is False ("?": the file is optional)."""
        sp = sub.add_parser(name, help=help)
        if gram:
            sp.add_argument("gram", nargs=None if gram is True else gram,
                            help="Gram matrix file")
            sp.add_argument("--field", help="field spec, e.g. "
                            "'2^2 q=2 mod=[1,1,1]'")
        sp.add_argument("--output", help="write the JSON report here "
                        "instead of stdout")
        sp.set_defaults(fn=fn)
        return sp

    add_common("type", cmd_type, "type invariant of a Gram matrix")

    sp = add_common("normal-form", cmd_normal_form, "normal form certificate")
    sp.add_argument("--allow-extension", action="store_true",
                    help="permit passing to a finite extension field")

    sp = add_common("aut", cmd_aut, "automorphism group dimensions", gram="?")
    sp.add_argument("--type", help="type string instead of a matrix file")
    sp.add_argument("--points", action="store_true",
                    help="enumerate rational points (tiny instances only)")

    sp = add_common("hermitian", cmd_hermitian,
                    "Hermitian vectors over an extension")
    sp.add_argument("--ext", type=int, default=1, metavar="R",
                    help="extension degree r (default 1)")

    sp = add_common("moduli", cmd_moduli,
                    "specialization poset for dimension n", gram=False)
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--dot", help="write the Hasse diagram here as DOT")
    sp.add_argument("--json", help="write the full poset dump here")
    sp.add_argument("--restrict", help="comma-separated list of types")

    sp = add_common("specialize", cmd_specialize,
                    "decide a specialization query", gram=False)
    sp.add_argument("--from", dest="src", required=True, metavar="TYPE")
    sp.add_argument("--to", dest="dst", required=True, metavar="TYPE")
    sp.add_argument("--strict", action="store_true",
                    help="exit 1 on verdict no/unknown")

    sp = add_common("witness", cmd_witness,
                    "degeneration witness over GF(q^2)(t)", gram=False)
    sp.add_argument("--family", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--t", type=int)
    sp.add_argument("--q", type=int, default=2)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        result = args.fn(args)
        if not isinstance(result, _Result):
            result = _Result(result)
        text = json.dumps(result.report, indent=2, sort_keys=True) + "\n"
        out = ((args.output, text),) if args.output else ()
        _write_files(out + result.files)
        if not args.output:
            sys.stdout.write(text)
        return result.code
    except (InputError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except CostGuardError as ex:
        print(f"cost guard: {ex}", file=sys.stderr)
        return 3
    except VerificationError as ex:
        print(f"verification failed: {ex}", file=sys.stderr)
        return 4


def run():
    """The process entry point, of the `qbic` script and of `python -m
    qbic.cli`: main(), then stdout and stderr flushed and the process
    ended at once by os._exit with main's code.  That skips interpreter
    teardown, which frees every module and object one at a time just
    before the OS reclaims the whole process.  Nothing in qbic needs it:
    the package registers no atexit hook and starts no thread or process,
    and main has closed every file it wrote.  When main raises (argparse's
    SystemExit too) or a flush fails, this returns or raises, and the
    process ends the usual way with the usual status."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):
        # a stream that fails, is closed, or is None (its fd was closed at
        # start): the usual ending flushes what it can and sets the status
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(run())
