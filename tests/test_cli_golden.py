"""Every command of the benchmark's cli mix, run in-process through
cli.main, must reproduce the exit code and stdout recorded in
qbicbench/cli/golden.json byte for byte, normal-form transforms included.
The table of commands is read from qbicbench/workloads.py."""

import contextlib
import io
import json
import os
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


@pytest.mark.parametrize("cid, argv, code",
                         [(cid, argv, code) for cid, argv, code, _ in TABLE],
                         ids=[cid for cid, _, _, _ in TABLE])
def test_matches_golden(cid, argv, code):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        got = cli.main(workloads.cli_argv(argv))
    assert (got, out.getvalue()) == (GOLDEN[cid]["exit"],
                                     GOLDEN[cid]["stdout"])
    assert got == code
