"""Every command of the benchmark's cli mix, run in-process through
cli.main, must reproduce the exit code and stdout recorded in
qbicbench/cli/golden.json byte for byte.  The one exception is the
`transform` of a normal-form report: it is a certificate, so it is checked
by the benchmark's own verifier (transpose(U^[1]) . B . U recomputed with
independent arithmetic) instead of matched.  The table of commands is read
from qbicbench/workloads.py."""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from qbic import cli

BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "qbicbench")

sys.path.insert(0, BENCH)
try:
    import workloads
finally:
    sys.path.remove(BENCH)

with open(os.path.join(BENCH, "cli", "golden.json")) as _fh:
    GOLDEN = json.load(_fh)

TABLE = workloads.cli_table()


def test_table_covers_golden():
    assert len(TABLE) == 110
    assert sorted(cid for cid, _, _, _ in TABLE) == sorted(GOLDEN)


@pytest.mark.parametrize("cid, argv, code, nf", TABLE,
                         ids=[cid for cid, _, _, _ in TABLE])
def test_matches_golden(cid, argv, code, nf):
    argv = workloads.cli_argv(argv)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        got = cli.main(argv)
    assert got == code == GOLDEN[cid]["exit"]
    if nf is None:
        assert out.getvalue() == GOLDEN[cid]["stdout"]
    else:
        case = workloads.Case("cli", cid, argv, nf, (code, GOLDEN[cid]))
        assert workloads.check(case, (got, out.getvalue()))


def _run_plain(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return [code, out.getvalue()]


# One python -O process runs cli.main in-process over a list of commands
# read from stdin, and writes {id: [exit code, stdout]} plus the optimize
# flag it ran under.
_DRIVER = """
import contextlib, io, json, sys
from qbic import cli
got = {"optimize": sys.flags.optimize}
for cid, argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    got[cid] = [code, out.getvalue()]
json.dump(got, sys.stdout)
"""


def _run_optimized(rows):
    src = os.path.join(os.path.dirname(BENCH), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", _DRIVER],
                          input=json.dumps(rows), capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got.pop("optimize") == 1
    return got


def _rows(command):
    return [(cid, workloads.cli_argv(argv))
            for cid, argv, _, _ in TABLE if argv[0] == command]


def test_normal_forms_under_optimize():
    # the certificate checks are explicit, so -O (which strips assert)
    # must not change a normal-form report
    rows = _rows("normal-form")
    opt = _run_optimized(rows)
    for cid, argv in rows:
        assert opt[cid] == _run_plain(argv), cid
        assert opt[cid][0] == GOLDEN[cid]["exit"], cid


@pytest.mark.parametrize("command", ["type", "hermitian", "aut", "moduli",
                                     "specialize", "witness"])
def test_reports_under_optimize(command):
    # every check in forms, auts and moduli is explicit as well: under -O
    # each report is the recorded plain run's output, refusals included
    rows = _rows(command)
    assert rows
    opt = _run_optimized(rows)
    for cid, _ in rows:
        assert opt[cid] == [GOLDEN[cid]["exit"], GOLDEN[cid]["stdout"]], cid
