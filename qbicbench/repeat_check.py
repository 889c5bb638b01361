"""Check that the traced run's work counts repeat exactly.

    python3 qbicbench/repeat_check.py [--seed N] [WORKLOAD ...]

Runs `run.py --trace 1` twice per workload with the same seed and compares
the counts that stand for work done.  Exits 1 when any differs.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
COUNTS = ("fields.elem_ops", "linalg.calls", "classify.peel.linalg_calls",
          "auts.candidates", "classify.peel.calls",
          "moduli.generator_step.calls")


def counts(workload, seed):
    res = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=os.path.dirname(HERE), capture_output=True, text=True,
        check=True)
    metrics = json.loads(res.stdout.splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in COUNTS}


def main():
    sys.path.insert(0, HERE)
    import workloads
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workload", nargs="*", default=workloads.WORKLOADS)
    args = ap.parse_args()
    same = True
    for w in args.workload:
        first, second = counts(w, args.seed), counts(w, args.seed)
        for name in COUNTS:
            ok = first[name] == second[name]
            same &= ok
            print(f"{w:16s} {name:30s} {first[name]:>12} {second[name]:>12}"
                  f"  {'same' if ok else 'DIFFERENT'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
