"""Measure a baseline: every workload over several seeds, plus one traced run.

    python3 perfbench/ledger.py --seeds 1-10 --out perfbench/baseline.json

For each workload and end-to-end metric it records the median over the
seeds and the quartile spread (q3 - q1) / median, as
``statistics.quantiles(values, n=4)`` gives them; the traced run of the
first seed gives the per-layer numbers.  Run it from the checkout root on
an otherwise idle machine, and compare two commits only with numbers this
script made on the same machine.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s seed %d trace %d failed (exit %d):\n%s"
                         % (workload, seed, trace, proc.returncode, proc.stderr))
    env = json.loads(lines[0].split(" env ", 1)[1])
    return env, json.loads(lines[-1])


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--out", default=None, help="JSON path (default stdout)")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ledger = {"seeds": [args.seeds[0], args.seeds[-1]], "workloads": {}}
    for w in bench["workloads"]:
        name = w["name"]
        values = {}
        for seed in args.seeds:
            env, result = run(name, seed, bench["run_seconds"], 0)
            print("%s seed %d: %s" % (name, seed, json.dumps(result)),
                  file=sys.stderr)
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        e2e = {}
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            e2e[m["name"]] = {"median": med, "spread": (q3 - q1) / med,
                              "bound": m["bound"], "unit": m["unit"]}
        _, traced = run(name, args.seeds[0], bench["run_seconds"], 1)
        ledger["env"] = env
        ledger["workloads"][name] = {
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    text = json.dumps(ledger, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
