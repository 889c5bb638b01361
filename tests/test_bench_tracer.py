"""The benchmark's tracer (qbicbench/tracer.py) patches qbic by name: the
public functions of every layer module, a few MatrixF and Subspace
methods, and FieldElement's arithmetic.  A rename in qbic would break
every traced benchmark run, so a few cases of each in-process workload
run here traced and untraced, and must give the same, correct outputs."""

import os
import sys

import pytest

from qbic import fields

BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "qbicbench")

sys.path.insert(0, BENCH)
try:
    import tracer
    import workloads
finally:
    sys.path.remove(BENCH)

# (operation, label prefix): the first such case of the seed-1 round
CASES = {
    "classify-ladder": [("type", "gf4:"), ("type", "gf1024:"),
                        ("type", "gf4t:F"), ("type", "gf4t:")],
    "normal-form": [("nf", "gf4:"), ("nf", "gf9:")],
    "points": [("enum", "gf4:"), ("herm", "gf9:"), ("lie", "gf4:")],
}


@pytest.mark.parametrize("workload", sorted(CASES))
def test_traced_outputs_equal_untraced(workload):
    api = workloads.setup(workload)
    every = workloads.make_cases(workload, 1)
    cases = [next(c for c in every
                  if c.kind == kind and c.label.startswith(prefix))
             for kind, prefix in CASES[workload]]
    plain = [workloads.run(api, c) for c in cases]
    add = fields.FieldElement.__add__
    t = tracer.Tracer()
    try:
        t.install()
        traced = [workloads.run(api, c) for c in cases]
    finally:
        t.uninstall()
    assert fields.FieldElement.__add__ is add
    assert traced == plain
    assert all(workloads.check(c, out) for c, out in zip(cases, plain))
    got = t.metrics()
    assert got["forms.calls"] > 0 and got["linalg.calls"] > 0
