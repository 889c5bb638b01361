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


def _run_cli(flags, argv):
    src = os.path.join(os.path.dirname(BENCH), "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *flags, "-m", "qbic.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=60)


def test_normal_forms_under_optimize():
    # the certificate checks are explicit, so -O (which strips assert)
    # must not change a normal-form report
    for cid, argv, code, nf in TABLE:
        if nf is None:
            continue
        argv = workloads.cli_argv(argv)
        plain, opt = _run_cli([], argv), _run_cli(["-O"], argv)
        assert plain.returncode == opt.returncode == code, cid
        assert opt.stdout == plain.stdout, cid


@pytest.mark.parametrize("command", ["type", "hermitian"])
def test_reports_under_optimize(command):
    # the filtration, type and Hermitian checks in forms are explicit as
    # well: under -O each report is the recorded plain run's output
    for cid, argv, code, nf in TABLE:
        if argv[0] != command:
            continue
        opt = _run_cli(["-O"], workloads.cli_argv(argv))
        assert opt.returncode == code == GOLDEN[cid]["exit"], cid
        assert opt.stdout == GOLDEN[cid]["stdout"], cid
