"""Fixed-sample microbenchmarks: scalar arithmetic per field of the ladder,
descriptor construction, and the interpreter and import floor of the CLI.

The samples do not depend on the run's seed, so these figures compare
across runs and commits directly.
"""

import random
import statistics
import subprocess
import sys
import time

import gen

# operations per timed sample: tabled fields are fast, GF(2^10) and
# GF(4)(t) are not
SAMPLE = {"gf4": 4000, "gf9": 4000, "gf16": 4000, "gf25": 4000,
          "gf256": 4000, "gf1024": 200, "gf4t": 200}
REPEATS = 5
MAKES = {"gf256": 3}


def _element_texts(key, count):
    rng = random.Random(f"microbench/{key}")
    R = gen.Ring(gen.SPECS[key])
    texts = []
    for _ in range(count):
        if R.poly:
            num = R.random(rng, nonzero=True)
            den = R.random(rng, nonzero=True)
            texts.append(f"({R.text(num)})/({R.text(den)})")
        else:
            texts.append(R.text(R.random(rng, nonzero=True)))
    return texts


def _per_op_ns(fn, items):
    """Fastest of REPEATS timings, per operation: the least disturbed one."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn(items)
        times.append(time.perf_counter() - t0)
    return min(times) / len(items) * 1e9


def field_metrics():
    from qbic import fields
    out = {}
    for key, spec in gen.SPECS.items():
        makes = []
        for _ in range(MAKES.get(key, 5)):
            t0 = time.perf_counter()
            F = fields.parse_field_spec(spec)
            makes.append(time.perf_counter() - t0)
        out[f"fields.make_ms.{key}"] = min(makes) * 1e3
        texts = _element_texts(key, SAMPLE[key] + 1)
        xs = [F.parse(t) for t in texts]
        pairs = list(zip(xs, xs[1:]))
        out[f"fields.mul_ns.{key}"] = _per_op_ns(
            lambda ps: [x * y for x, y in ps], pairs)
        out[f"fields.inv_ns.{key}"] = _per_op_ns(
            lambda v: [x.inverse() for x in v], xs)
        out[f"fields.frob_ns.{key}"] = _per_op_ns(
            lambda v: [fields.frobenius(x, 1) for x in v], xs)
        out[f"fields.parse_ns.{key}"] = _per_op_ns(
            lambda v: [F.parse(t) for t in v], texts)
    return out


def _wall_ms(argv, env, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def cli_floor_metrics(env, repeats=5):
    """The bare interpreter start, and what importing qbic.cli adds."""
    interp = _wall_ms([sys.executable, "-c", "pass"], env, repeats)
    with_import = _wall_ms([sys.executable, "-c", "import qbic.cli"], env,
                           repeats)
    return {"cli.interpreter_ms": interp,
            "cli.import_ms": with_import - interp}
