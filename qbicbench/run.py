"""The qbic benchmark.

    python3 qbicbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
src/ directory.  One process, one client, closed loop: each operation
starts when the previous one has finished.  Inputs are generated from the
seed before timing starts.

--trace 0 repeats the workload's round of operations until S seconds have
passed (and at least workloads.MIN_ROUNDS times) and reports the
end-to-end metrics of BENCHMARK.json over each operation's median time,
scaled to the speed of a baseline machine (see Ref).
--trace 1 runs one round untraced and the same round traced, and reports
the per-layer metrics of BENCHMARK.json.  Either way the last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 4     # at least this many fresh set-ups ...
SETUP_PROBE_S = 2.0  # ... and more while they have taken less than this
DEADLINE_S = 170

class Deadline(Exception):
    pass


def child_env():
    """Serial point counting, and bytecode caches written and used, as for
    an installed package, whatever the caller's environment says."""
    env = dict(os.environ)
    env.pop("QBIC_JOBS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


# -- machine speed ------------------------------------------------------------
#
# The CPUs are shared with other tenants, whose load slows every instruction
# here by up to 60% for phases of seconds to minutes, often longer than a
# run; rare idle phases make it faster than usual.  So every timing is
# scaled by how fast the machine ran next to it, read from reference work
# that touches nothing of qbic, and an operation's figure is the median of
# its scaled times.  A change to the program moves the scaled figures as it
# moves the raw ones; a phase of the machine moves the reference and the
# program alike and cancels out.  The unscaled figures are printed with
# every run.


class Ref:
    """Reference work, timed as the median of `tries` runs and read again
    after every `every_s` of operations.  `nominal_s` is what it took on
    the quiet baseline machine (2 shared CPUs, Python 3.11.7); timings are
    scaled by nominal_s / (the readings next to them)."""

    def __init__(self, work, tries, every_s, nominal_s):
        self.work, self.tries = work, tries
        self.every_s, self.nominal_s = every_s, nominal_s

    def read(self):
        """Seconds the reference work takes now."""
        times = []
        for _ in range(self.tries):
            t0 = time.perf_counter()
            self.work()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def scale(self, before, after):
        """Factor that turns a time measured between two readings into
        baseline-machine time."""
        return self.nominal_s / ((before + after) / 2)


def _loop():
    s = 0
    for i in range(30_000):
        s += i * i % 7
    return s


def _spawn():
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True)


# In-process work is scaled by a pure-Python loop.  A cli operation is a
# fresh interpreter, whose cost (exec, page faults, reading bytecode) the
# loop tracks poorly: in paired runs it widened the cli spread while a bare
# interpreter start halved it, so cli is scaled by that.
LOOP = Ref(_loop, tries=3, every_s=0.25, nominal_s=0.0018)
SPAWN = Ref(_spawn, tries=3, every_s=1.0, nominal_s=0.0095)


def reference(workload):
    return SPAWN if workload == "cli" else LOOP


# -- set-up -------------------------------------------------------------------

PROBE = """\
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
t0 = time.perf_counter()
workloads.setup(sys.argv[3])
print(time.perf_counter() - t0)
"""


def measure_setup(workload, env):
    """Median over fresh interpreters of importing qbic and building the
    workload's field descriptors; for cli, the wall time of a fresh
    interpreter running `import qbic.cli`.  A first, discarded probe makes
    sure bytecode caches exist, as they do for an installed package."""
    samples, raw = [], []
    ref = reference(workload)
    last = ref.read()
    start = time.perf_counter()
    while (len(samples) <= SETUP_PROBES
           or time.perf_counter() - start < SETUP_PROBE_S):
        if workload == "cli":
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import qbic.cli"],
                           env=env, cwd=ROOT, check=True)
            t = time.perf_counter() - t0
        else:
            res = subprocess.run(
                [sys.executable, "-c", PROBE, SRC, BENCH, workload],
                env=env, cwd=ROOT, check=True, capture_output=True,
                text=True)
            t = float(res.stdout)
        last, before = ref.read(), last
        samples.append(t * ref.scale(before, last))
        raw.append(t)
    return statistics.median(samples[1:]), statistics.median(raw[1:])


def cli_subprocess(env):
    def call(argv):
        res = subprocess.run([sys.executable, "-m", "qbic.cli"] + argv,
                             env=env, cwd=ROOT, capture_output=True,
                             text=True, timeout=120)
        return res.returncode, res.stdout
    return call


def cli_inprocess():
    from qbic import cli

    def call(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue()
    return call


# -- running ------------------------------------------------------------------


def run_cases(workloads, api, cases, results, latencies):
    for case in cases:
        t0 = time.perf_counter()
        try:
            out, err = workloads.run(api, case), None
        except Deadline:
            raise
        except Exception as ex:  # a failed operation is counted, not fatal
            out, err = None, f"{type(ex).__name__}: {ex}"
        latencies.append(time.perf_counter() - t0)
        results.append((case, out, err))


def judge(workloads, results):
    """(label, reason) for every operation whose output is rejected."""
    bad = []
    for case, out, err in results:
        if err is None:
            try:
                ok = workloads.check(case, out)
            except Exception as ex:  # malformed output: rejected
                ok, err = False, f"check raised {type(ex).__name__}: {ex}"
            if not ok:
                err = err or "output rejected by the check"
        if err is not None:
            bad.append((case.label, err))
    return bad


def timed_round(workloads, api, cases, results, ref, refs):
    """One round of the cases: their times, and their times scaled by the
    readings of ref taken before and after each ref.every_s stretch of
    them.  Readings are appended to refs, whose last one opens the round."""
    lat, scaled, chunk = [], [], []
    mark = time.perf_counter()
    for i, case in enumerate(cases):
        run_cases(workloads, api, [case], results, chunk)
        if (i == len(cases) - 1
                or time.perf_counter() - mark >= ref.every_s):
            refs.append(ref.read())
            k = ref.scale(refs[-2], refs[-1])
            lat += chunk
            scaled += [t * k for t in chunk]
            chunk = []
            mark = time.perf_counter()
    return lat, scaled


def end_to_end(workloads, workload, seed, seconds, env):
    setup_s, raw_setup_s = measure_setup(workload, env)
    api = workloads.setup(workload)
    if workload == "cli":
        api["cli"] = cli_subprocess(env)
    cases = workloads.make_cases(workload, seed)
    min_rounds = workloads.MIN_ROUNDS[workload]
    results = []
    samples = [[] for _ in cases]
    raw_samples = [[] for _ in cases]
    ref = reference(workload)
    refs = [ref.read()]
    rounds = 0
    start = time.perf_counter()
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        lat, scaled = timed_round(workloads, api, cases, results, ref,
                                  refs)
        for ts, t in zip(samples, scaled):
            ts.append(t)
        for ts, t in zip(raw_samples, lat):
            ts.append(t)
        rounds += 1
    elapsed = time.perf_counter() - start
    bad = judge(workloads, results)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else \
        resource.RUSAGE_SELF
    values = timing_metrics(samples, setup_s)
    raw = timing_metrics(raw_samples, raw_setup_s)
    values["ok_ratio"] = 1 - len(bad) / len(results)
    values["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    notes = [f"{len(cases)} operations x {rounds} rounds in "
             f"{elapsed:.2f} s; an operation's latency is the median of "
             f"its {rounds} times, scaled to baseline-machine speed",
             f"reference {min(refs) * 1e3:.2f}-{max(refs) * 1e3:.2f} ms"
             f" (baseline {ref.nominal_s * 1e3:.2f} ms); unscaled: "
             + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())]
    return values, len(results), bad, notes


def timing_metrics(samples, setup_s):
    best = [statistics.median(ts) for ts in samples]
    return {
        "setup_s": setup_s,
        "ops_per_s": len(best) / sum(best),
        "latency_p50_ms": statistics.median(best) * 1e3,
        "latency_p90_ms": statistics.quantiles(best, n=10)[8] * 1e3,
    }


def differing(results, reference, what):
    """results, with an error on every output that differs from the
    reference run's output for the same case."""
    return [(case, out, err if err or out == ref else
             f"output differs from the {what} run")
            for (case, out, err), (_, ref, _) in zip(results, reference)]


def traced(workloads, workload, seed, env):
    from tracer import Tracer
    import microbench
    api = workloads.setup(workload)
    cases = workloads.make_cases(workload, seed)
    values, judged = {}, []
    if workload == "cli":
        api["cli"] = cli_subprocess(env)
        sub, sub_lat = [], []
        run_cases(workloads, api, cases, sub, sub_lat)
        judged += sub
        by_cmd = {}
        for case, t in zip(cases, sub_lat):
            by_cmd.setdefault(case.text[0], []).append(t)
        for cmd, ts in by_cmd.items():
            values[f"cli.{cmd}.p50_ms"] = statistics.median(ts) * 1e3
        # the traced pair runs in-process, where spans can see the calls;
        # one round first fills the caches a process keeps between commands
        api["cli"] = cli_inprocess()
        run_cases(workloads, api, cases, [], [])
    ref = []
    t0 = time.perf_counter()
    run_cases(workloads, api, cases, ref, [])
    ref_s = time.perf_counter() - t0
    if workload == "cli":
        ref = differing(ref, sub, "subprocess")
    tracer = Tracer()
    got = []
    tracer.install()
    t0 = time.perf_counter()
    try:
        run_cases(workloads, api, cases, got, [])
    finally:
        tracer.uninstall()
    got_s = time.perf_counter() - t0
    judged += ref + differing(got, ref, "untraced")
    values.update(tracer.metrics())
    values.update(microbench.field_metrics())
    values.update(microbench.cli_floor_metrics(env))
    values["trace.untraced_ops_per_s"] = len(cases) / ref_s
    values["trace.traced_ops_per_s"] = len(cases) / got_s
    values["trace.overhead_ops_per_s"] = (values["trace.untraced_ops_per_s"]
                                          - values["trace.traced_ops_per_s"])
    notes = [f"{len(cases)} operations traced; untraced round {ref_s:.2f} s,"
             f" traced round {got_s:.2f} s"]
    return values, len(judged), judge(workloads, judged), notes


# -- reporting ----------------------------------------------------------------


def emit(kind, values, attempted, bad, notes):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)[kind]
    metrics = {}
    for m in spec:
        name = m["name"]
        if name in values:
            value = values[name]
        elif name.endswith((".calls", ".self_s", ".p50_ms")):
            value = 0  # a layer or subcommand this workload never reaches
        else:
            raise KeyError(f"no value measured for {name}")
        metrics[name] = {"value": value, "unit": m["unit"]}
    for note in notes:
        print(note)
    for label, reason in bad:
        print(f"FAILED {label}: {reason}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": not bad, "attempted": attempted,
                      "failed": len(bad), "metrics": metrics}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "qbic", "__init__.py")):
        print(f"error: no qbic sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    def overdue(signum, frame):
        raise Deadline(f"run exceeded {DEADLINE_S} s")
    signal.signal(signal.SIGALRM, overdue)
    signal.alarm(DEADLINE_S)
    # one CPU for this process and every child it starts, so the machine
    # reference is always read on the CPU the timed work ran on
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = child_env()
    try:
        if args.trace:
            out = traced(workloads, args.workload, args.seed, env)
            emit("per_layer", *out)
        else:
            out = end_to_end(workloads, args.workload, args.seed,
                             args.seconds, env)
            emit("end_to_end", *out)
    except Deadline as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
