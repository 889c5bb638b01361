"""The process entry point.  `python -m qbic.cli` and the `qbic` script end
the process through cli.run, right after flushing the streams and without
interpreter teardown; each must print, write and exit exactly as cli.main
does in-process."""

import contextlib
import io
import os
import pathlib
import re
import subprocess
import sys

import pytest

from qbic import cli

ROOT = pathlib.Path(__file__).parents[1]
SRC = pathlib.Path(cli.__file__).parents[1]
CLI_DIR = ROOT / "qbicbench" / "cli"

# what the installed `qbic` script runs: import the entry point named in
# pyproject.toml and exit with what it returns
_ENTRY = re.search(r'^qbic = "([\w.]+):(\w+)"$',
                   (ROOT / "pyproject.toml").read_text(), re.M)
SCRIPT = (f"import sys; from {_ENTRY[1]} import {_ENTRY[2]}; "
          f"sys.exit({_ENTRY[2]}())")
WAYS = {"module": ["-m", "qbic.cli"], "script": ["-c", SCRIPT]}

IDENTITY_100 = "identity100.txt"  # written per test: a 111 KB report

# argv with {dir} for a directory of its own, and the exit code expected
CASES = {
    "type": (["type", f"{CLI_DIR}/gf4_N3.txt"], 0),
    "type-output": (["type", f"{CLI_DIR}/gf4t_1_N2.txt", "--output",
                     "{dir}/report.json"], 0),
    "normal-form": (["normal-form", f"{CLI_DIR}/gf4_1_N2x2.txt"], 0),
    "aut-points": (["aut", f"{CLI_DIR}/gf4_1x2.txt", "--points"], 0),
    "aut-type": (["aut", "--type", "1+N2^2"], 0),
    # past the 64 KiB of a pipe's buffer
    "hermitian-large": (["hermitian", "{dir}/" + IDENTITY_100], 0),
    "moduli-files": (["moduli", "--dim", "5", "--dot", "{dir}/fig.dot",
                      "--json", "{dir}/poset.json"], 0),
    "specialize-strict": (["specialize", "--from", "0+1^4", "--to",
                           "1^2+N3", "--strict"], 1),
    "witness": (["witness", "--family", "5", "--s", "1", "--t", "1"], 0),
    "bad-file": (["type", f"{CLI_DIR}/bad_token.txt"], 2),
    "usage-error": (["type", f"{CLI_DIR}/gf4_N3.txt", "--ext", "2"], 2),
    "cost-guard": (["moduli", "--dim", "9", "--output",
                    "{dir}/report.json"], 3),
}


def _prepare(directory):
    directory.mkdir()
    rows = "\n".join(" ".join("1" if i == j else "0" for j in range(100))
                     for i in range(100))
    (directory / IDENTITY_100).write_text(
        f"field: 2^2 q=2 mod=[1,1,1]\nn: 100\n{rows}\n")
    return directory


def _written(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()
            if path.name != IDENTITY_100}


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as ex:  # argparse's usage error
            code = ex.code
    return code, out.getvalue().encode(), err.getvalue().encode()


def _env():
    # buffered streams, as PYTHONUNBUFFERED is not set for a user's qbic:
    # a report still in the buffer at os._exit would be lost
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _process(prefix, argv, **kw):
    return subprocess.run([sys.executable, *prefix, *argv], env=_env(),
                          capture_output=True, timeout=120, **kw)


@pytest.mark.parametrize("way", WAYS)
@pytest.mark.parametrize("name", CASES)
def test_process_matches_main(tmp_path, name, way):
    argv, code = CASES[name]
    inside, outside = _prepare(tmp_path / "in"), _prepare(tmp_path / "out")
    want = _in_process([a.format(dir=inside) for a in argv])
    res = _process(WAYS[way], [a.format(dir=outside) for a in argv])
    assert want[0] == code
    assert (res.returncode, res.stdout, res.stderr) == want
    assert _written(outside) == _written(inside)
    if name == "hermitian-large":
        assert len(res.stdout) > 1 << 16


def test_failed_flush_ends_the_usual_way():
    # a pipe nobody reads: the report fits the buffer, so only the flush
    # fails; the interpreter's own ending reports it, with no traceback,
    # and sets status 120
    r, w = os.pipe()
    os.close(r)
    try:
        res = subprocess.run(
            [sys.executable, "-m", "qbic.cli", "type",
             str(CLI_DIR / "gf4_N3.txt")], env=_env(), stdout=w,
            stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(w)
    assert res.returncode == 120
    assert b"BrokenPipeError" in res.stderr
    assert b"Traceback" not in res.stderr


def test_closed_stdout_with_output_file(tmp_path):
    # with fd 1 closed at start sys.stdout is None; --output needs no stdout
    argv = ["type", str(CLI_DIR / "gf4_N3.txt"), "--output"]
    start = ("import os, sys; os.close(1); "
             "os.execv(sys.executable, [sys.executable, *sys.argv[1:]])")
    res = _process(["-c", start, "-m", "qbic.cli"],
                   argv + [str(tmp_path / "process.json")])
    assert (res.returncode, res.stderr) == (0, b"")
    assert _in_process(argv + [str(tmp_path / "main.json")])[0] == 0
    assert ((tmp_path / "process.json").read_bytes()
            == (tmp_path / "main.json").read_bytes())
