"""The four workloads: their seeded inputs, the operation each input
drives, and the independent check of each output.

An operation is one Case.  `run` performs it against the qbic package and
returns a plain, comparable output; `check` decides whether that output is
right without trusting anything the program says about itself.  Module
functions are always reached as attributes of their module (linalg.x, not
an imported x), so the tracer's patches see every call.
"""

import json
import os
import random

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_DIR = os.path.join(HERE, "cli")

with open(os.path.join(HERE, "pinned.json")) as _fh:
    PINNED = json.load(_fh)

WORKLOADS = ("classify-ladder", "normal-form", "points", "cli")

# Field descriptors each workload builds during set-up, and the extension
# degrees whose fields and embeddings it builds, so that no lazy field
# construction lands inside the timed phase.
SETUP_FIELDS = {
    "classify-ladder": (list(gen.SPECS), ()),
    "normal-form": (["gf4", "gf9", "gf16"], (1,)),
    "points": (["gf4", "gf9", "gf16"], (1, 2, 3)),
    "cli": ([], ()),
}

# A run repeats its round of operations until --seconds have passed, and at
# least MIN_ROUNDS times, and takes each operation's median time.  Every
# in-process round is kept near 2 s of operations that each take well under
# a second, so a run of 20 s gives each operation about eight samples.
MIN_ROUNDS = {"classify-ladder": 4, "normal-form": 4, "points": 4, "cli": 2}
GF256_TYPES = 1
ENUM_CONJUGATES = 10


class Case:
    __slots__ = ("kind", "label", "text", "arg", "expect")

    def __init__(self, kind, label, text, arg, expect):
        self.kind = kind      # which operation runs
        self.label = label    # field/type label, for reports
        self.text = text      # matrix-file text (or cli argv)
        self.arg = arg        # extra argument (extension degree, ...)
        self.expect = expect  # what check() compares against


def setup(workload):
    """Import qbic and build the workload's field descriptors; returns the
    module namespace the operations use."""
    from qbic import auts, classify, fields, forms, linalg
    names, degrees = SETUP_FIELDS[workload]
    for key in names:
        F = fields.parse_field_spec(gen.SPECS[key])
        for r in degrees:
            fields.embed(F, fields.extension_field(F, r))
    return {"fields": fields, "linalg": linalg, "forms": forms,
            "classify": classify, "auts": auts}


# -- input generation ---------------------------------------------------------


_GF = {}


def _field(key):
    """The benchmark's own GF for a ladder key, built once."""
    if key not in _GF:
        _GF[key] = gen.GF(gen.SPECS[key])
    return _GF[key]


def _types_upto(n):
    return [t for m in range(1, n + 1) for t in gen.all_types(m)]


def _conjugates(rng, key, types):
    R = gen.Ring(gen.SPECS[key])
    return [(f"{key}:{gen.type_str(a, b)}", gen.conjugate_text(R, a, b, rng),
             (a, b)) for a, b in types]


def _classify_cases(rng):
    cases = []
    # n <= 5 over the tabled fields and n <= 4 over GF(2^10) keep a round
    # near 2 s; GF(2^10), without tables, still costs the most per operation
    for key, nmax in (("gf4", 5), ("gf9", 5), ("gf16", 5), ("gf25", 5),
                      ("gf1024", 4)):
        for label, text, (a, b) in _conjugates(rng, key, _types_upto(nmax)):
            cases.append(Case("type", label, text, None, gen.type_str(a, b)))
    # GF(2^8): its per-operation cost is the 256x256 table every parse
    # rebuilds (~0.45 s), nearly the same for every type, so a run takes
    # GF256_TYPES type(s) from a seeded start instead of all of them
    every = _types_upto(6)
    start = rng.randrange(len(every))
    pick = [every[(start + i) % len(every)] for i in range(GF256_TYPES)]
    for label, text, (a, b) in _conjugates(rng, "gf256", pick):
        cases.append(Case("type", label, text, None, gen.type_str(a, b)))
    for label, text, (a, b) in _conjugates(rng, "gf4t", _types_upto(4)):
        cases.append(Case("type", label, text, None, gen.type_str(a, b)))
    for fam, s, t in ((1, 1, None), (1, 2, None), (2, 1, None), (2, 2, None),
                      (2, 3, None), (3, 1, None), (3, 2, None), (3, 3, None),
                      (4, 1, 1), (4, 2, 2), (5, 1, 1), (6, 0, None),
                      (6, 1, None), (6, 2, None)):
        text, (a, b) = gen.witness_text(gen.SPECS["gf4t"], fam, s, t)
        cases.append(Case("type", f"gf4t:F{fam}", text, None,
                          gen.type_str(a, b)))
    return cases


# Left out: the matching searches that take 0.4-11 s each (GF(9) 1+N5, N5
# and 0+N5; GF(16) N5) and the GF(9) n = 6 types (up to 0.45 s, 1.4 s a
# round together).  One sample of a seconds-long operation takes in every
# swing of the shared CPU, so a few of them decided a run's throughput.
# GF(4) 1+N5 and 0+N5 (0.05-0.2 s) keep the search's blow-up in the mix,
# and GF(16) n <= 5 against GF(4) its growth with |F|.
NF_LEFT_OUT = {("gf9", "1+N5"), ("gf9", "N5"), ("gf9", "0+N5"),
               ("gf16", "N5")}


def _normal_form_cases(rng):
    cases = []
    for key, nmax in (("gf4", 6), ("gf9", 5), ("gf16", 5)):
        for label, text, (a, b) in _conjugates(rng, key, _types_upto(nmax)):
            if (key, gen.type_str(a, b)) in NF_LEFT_OUT:
                continue
            cases.append(Case("nf", label, text, None, (key, a, b)))
    return cases


def _points_cases(rng):
    cases = []
    # point enumeration over GF(4) only: one n = 2 form over GF(9) scans
    # 6561 matrices in ~1 s and over GF(16) 65536 in ~5 s, too long to
    # sample often in a run.  ENUM_CONJUGATES conjugates of each n = 2 type
    # make the enumerations over a tenth of the operations, so p90 sits on
    # them.
    for rep in range(ENUM_CONJUGATES):
        for label, text, (a, b) in _conjugates(rng, "gf4", gen.all_types(2)):
            cases.append(Case("enum", f"{label}#{rep}", text, None,
                              _enum_expect("gf4", a, b)))
    for key in ("gf4", "gf9", "gf16"):
        for label, text, (a, b) in _conjugates(rng, key, _types_upto(4)):
            ts = gen.type_str(a, b)
            for ext in (1, 2, 3):
                cases.append(Case("herm", f"{label}:r{ext}", text, ext,
                                  PINNED["hermitian_point_count"][key][ts]
                                  [ext - 1]))
            order = _field(key).order
            n = a + sum(m * bm for m, bm in b.items())
            cases.append(Case("lie", label, text, None,
                              order ** (n * sum(b.values()))))
    return cases


def _enum_expect(key, a, b):
    if not b:  # 1^n: the unitary group over F_q, in closed form
        return gen.unitary_order(_field(key).q, a)
    return PINNED["enumerate_points"][key][gen.type_str(a, b)]


# The cli mix.  Input files are committed under cli/: seeded conjugates of
# the listed types, written with the benchmark's own arithmetic.  Expected
# exit codes and stdout, produced once by the program at the commit that
# added this benchmark, are in cli/golden.json.
def cli_file(key, type_text):
    return f"{key}_{type_text.replace('+', '_').replace('^', 'x')}.txt"


CLI_FILES = (
    ("gf4", "N3"), ("gf4", "1+N2^2"), ("gf4", "0+1"), ("gf4", "1^2"),
    ("gf4", "N2"), ("gf4", "0^2"), ("gf4", "1^4"), ("gf4", "0^2+N2"),
    ("gf4", "N2+N3"), ("gf4", "1+N4"), ("gf9", "N3"), ("gf9", "1^3"),
    ("gf9", "0+N2"), ("gf9", "1+N2^2"), ("gf9", "N5"), ("gf16", "N4"),
    ("gf16", "1+N3"), ("gf16", "0+1^3"), ("gf25", "1+N2"), ("gf25", "N3"),
    ("gf25", "1^4"), ("gf256", "1+N2"), ("gf256", "0+N3"), ("gf4t", "1+N2"),
    ("gf4t", "N3"), ("gf4t", "0+1^2"),
)
CLI_NORMAL_FORM = (
    ("gf4", "N3"), ("gf4", "1+N2^2"), ("gf4", "0+1"), ("gf4", "1^2"),
    ("gf4", "N2+N3"), ("gf4", "1+N4"), ("gf9", "N3"), ("gf9", "1^3"),
    ("gf9", "0+N2"), ("gf16", "1+N3"), ("gf25", "1+N2"), ("gf256", "1+N2"),
)
CLI_HERMITIAN = (
    ("gf4", "N3", 1), ("gf4", "N3", 2), ("gf4", "N3", 3),
    ("gf4", "1+N2^2", 1), ("gf4", "1+N2^2", 2), ("gf4", "1+N2^2", 3),
    ("gf4", "1^2", 2), ("gf9", "N3", 1), ("gf9", "N3", 2), ("gf9", "1^3", 1),
    ("gf16", "N4", 1), ("gf16", "N4", 2), ("gf25", "1+N2", 1),
    ("gf256", "1+N2", 1),
)
CLI_AUT_FILES = (("gf4", "1+N2^2"), ("gf9", "N5"), ("gf25", "N3"))
CLI_AUT_POINTS = (("gf4", "0+1"), ("gf4", "1^2"), ("gf4", "N2"),
                  ("gf4", "0^2"))
CLI_AUT_TYPES = ("1+N2^2", "0+N3^2", "N5", "1^3+N2", "0^2+N4", "N2^3",
                 "1^6", "0+1+N2+N3")
CLI_MODULI = (["--dim", "4"], ["--dim", "5"], ["--dim", "6"],
              ["--dim", "7"], ["--dim", "8"],
              ["--dim", "5", "--restrict",
               "1^5,1^3+N2,1^2+N3,1+N4,N5,1+N2^2,N2+N3,0+1^4,0+1^2+N2"],
              ["--dim", "6", "--restrict", "1+N2+N3,N2^3"])
# verdicts yes (by the sufficient test and by a generator path), no, and
# unknown (the open pair at n = 15); --strict turns no/unknown into exit 1
CLI_SPECIALIZE = (
    ("N3^2", "0+N5", 0), ("1^5", "0^5", 0), ("1^3", "N3", 0),
    ("N4", "1+N3", 0), ("1^4", "0+1^3", 0), ("1+N2^2", "0+N4", 0),
    ("0+1^4", "1^2+N3", 0), ("1+N2+N3", "N2^3", 0), ("N2^2", "1^4", 0),
    ("0^2+N2", "N4", 0), ("1+N3^2+N8", "0+N7^2", 0),
    ("1+N3^2+N8", "0+N7^2", 1), ("0+1^4", "1^2+N3", 1),
)
CLI_WITNESS = ((1, 1, None), (1, 2, None), (2, 1, None), (2, 3, None),
               (3, 2, None), (3, 3, None), (4, 1, 1), (4, 2, 1), (5, 1, 1),
               (5, 1, 2), (6, 1, None), (6, 2, None))
# refused inputs: 2 for bad input, 3 when a cost guard trips
CLI_REFUSED = (
    (["type", "bad_token.txt"], 2),
    (["type", "bad_spec.txt"], 2),
    (["type", "no_n_header.txt"], 2),
    (["type", cli_file("gf4", "N3"), "--field", "3^2 q=3 mod=[1,0,1]"], 2),
    (["witness", "--family", "7", "--s", "1"], 2),
    (["specialize", "--from", "1", "--to", "1^2"], 2),
    (["moduli", "--dim", "5", "--restrict", "banana"], 2),
    (["aut", cli_file("gf4", "N3"), "--type", "N3"], 2),
    (["moduli", "--dim", "9"], 3),
    (["aut", cli_file("gf4", "1^4"), "--points"], 3),
    (["aut", cli_file("gf9", "N3"), "--points"], 3),
)


def cli_table():
    """(id, argv, expected exit, normal-form type as (a, b) or None)."""
    out = [(f"type:{k}:{t}", ["type", cli_file(k, t)], 0, None)
           for k, t in CLI_FILES]
    out += [(f"normal-form:{k}:{t}", ["normal-form", cli_file(k, t)], 0,
             gen.parse_type(t)) for k, t in CLI_NORMAL_FORM]
    out += [(f"hermitian:{k}:{t}:r{r}",
             ["hermitian", cli_file(k, t), "--ext", str(r)], 0, None)
            for k, t, r in CLI_HERMITIAN]
    out += [(f"aut:{k}:{t}", ["aut", cli_file(k, t)], 0, None)
            for k, t in CLI_AUT_FILES]
    out += [(f"aut-points:{k}:{t}", ["aut", cli_file(k, t), "--points"], 0,
             None) for k, t in CLI_AUT_POINTS]
    out += [(f"aut-type:{t}", ["aut", "--type", t], 0, None)
            for t in CLI_AUT_TYPES]
    out += [("moduli:" + " ".join(a), ["moduli"] + a, 0, None)
            for a in CLI_MODULI]
    out += [(f"specialize:{a}:{b}" + (":strict" if code else ""),
             ["specialize", "--from", a, "--to", b]
             + (["--strict"] if code else []), code, None)
            for a, b, code in CLI_SPECIALIZE]
    out += [(f"witness:{f}:{s}" + ("" if t is None else f":{t}"),
             ["witness", "--family", str(f), "--s", str(s)]
             + ([] if t is None else ["--t", str(t)]), 0, None)
            for f, s, t in CLI_WITNESS]
    out += [("refused:" + " ".join(a), a, code, None)
            for a, code in CLI_REFUSED]
    return out


def cli_argv(argv):
    """Input file names resolved inside cli/."""
    return [os.path.join(CLI_DIR, a) if a.endswith(".txt") else a
            for a in argv]


def _cli_cases(rng):
    with open(os.path.join(CLI_DIR, "golden.json")) as fh:
        golden = json.load(fh)
    return [Case("cli", cid, cli_argv(argv), nf, (code, golden[cid]))
            for cid, argv, code, nf in cli_table()]


_CASE_MAKERS = {
    "classify-ladder": _classify_cases,
    "normal-form": _normal_form_cases,
    "points": _points_cases,
    "cli": _cli_cases,
}


def make_cases(workload, seed):
    """The round of operations, in a seeded order; the same seed gives the
    same cases."""
    rng = random.Random(f"{workload}/{seed}")
    cases = _CASE_MAKERS[workload](rng)
    rng.shuffle(cases)
    return cases


# -- operations ---------------------------------------------------------------


def run(api, case):
    """Perform one operation; returns a plain output for comparison."""
    if case.kind == "cli":
        return api["cli"](case.text)
    linalg, forms = api["linalg"], api["forms"]
    field, gram = linalg.parse_matrix_file(case.text)
    f = forms.QBicForm(field, gram)
    if case.kind == "type":
        return forms.type_report(f)
    if case.kind == "nf":
        cert = api["classify"].normal_form(f)
        return {"type": str(cert.target),
                "extension_degree": cert.extension_degree,
                "field": cert.extension_field.spec_string(),
                "transform": [[str(x) for x in row]
                              for row in cert.transform.rows]}
    if case.kind == "enum":
        count, samples = api["auts"].enumerate_points(f)
        return {"count": count,
                "samples": [[[str(x) for x in row] for row in A.rows]
                            for A in samples]}
    if case.kind == "herm":
        h = forms.hermitian_space(f, case.arg)
        return {"d": h.d, "point_count": h.point_count}
    if case.kind == "lie":
        return api["auts"].lie_points(f)
    raise ValueError(case.kind)


def check(case, out):
    """True when the output is right by the benchmark's own reckoning."""
    if case.kind == "type":
        return out["type"] == case.expect
    if case.kind == "nf":
        key, a, b = case.expect
        F = _field(key)
        return (out["type"] == gen.type_str(a, b)
                and out["extension_degree"] == 1
                and out["field"] == F.spec
                and gen.is_normal_form(F, case.text, a, b, out["transform"]))
    if case.kind == "enum":
        return out["count"] == case.expect
    if case.kind == "herm":
        return out["point_count"] == case.expect
    if case.kind == "lie":
        return out == case.expect
    if case.kind == "cli":
        return _check_cli(case, out)
    raise ValueError(case.kind)


def _check_cli(case, out):
    code, stdout = out
    want_code, golden = case.expect
    if code != want_code or golden["exit"] != want_code:
        return False
    if case.arg is None:
        return stdout == golden["stdout"]
    # normal-form: byte-identical apart from the transform, which is a
    # certificate and is verified instead
    try:
        got = json.loads(stdout)
    except ValueError:
        return False
    want = json.loads(golden["stdout"])
    rows = got.pop("transform", None)
    want.pop("transform", None)
    rest = json.dumps(got, indent=2, sort_keys=True)
    if rest != json.dumps(want, indent=2, sort_keys=True) or rows is None:
        return False
    with open(case.text[-1]) as fh:
        text = fh.read()
    a, b = case.arg
    F = gen.GF(got["field"])
    return gen.is_normal_form(F, text, a, b, rows)
