"""mbhalf benchmark: time to a verified result on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads are listed in ``workloads.py`` and BENCHMARK.json.

``--trace 0`` repeats the workload, each repetition in a fresh
single-process child so that every cache starts cold, until the next
repetition would overrun ``--seconds`` (at least one), and times
``setup_s`` (fresh interpreter until all eight mbhalf modules are
imported) before and after the repetitions, reporting the median.
``--trace 1`` runs the workload once untraced and once with the outside-in
tracer and reports the per-layer metrics plus ``trace_overhead_frac`` =
traced wall / untraced wall - 1.

Every end-to-end time but ``setup_s`` is in seconds at reference speed:
the measured seconds times the factor by which a fixed reference chunk,
interleaved with the measured work, ran faster or slower than on the
machine the benchmark was defined on (``refclock.py``).  The shared host's
speed drifts by tens of per cent; this takes the drift out of the metrics.
The raw seconds and the factors are printed on the human-readable lines.

Every output is checked; the last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every check passed, 1 when one failed, 2 when the run could not
be made.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import NAMES, make_inputs  # noqa: E402

SETUP_SAMPLES = 12
CHILD_TIMEOUT_S = 170
_IMPORT_ALL = ("import time\n"
               "import mbhalf.mpcore, mbhalf.specfun, mbhalf.meijer, "
               "mbhalf.rhframe, mbhalf.kernel, mbhalf.equilibrium, "
               "mbhalf.finiten, mbhalf.cli\n"
               "print(repr(time.monotonic()))\n")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "req_p50_s": "s",
                    "cold_req_s": "s", "accuracy_margin_digits": "digits",
                    "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The run could not be made (missing program, crashed child)."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    return env


def environment():
    """Facts that shift every number: record them with each result."""
    out = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, mpmath, mpmath.libmp, numpy\n"
         "print(json.dumps({'python': sys.version.split()[0], "
         "'mpmath': mpmath.__version__, "
         "'mpmath_backend': mpmath.libmp.BACKEND, "
         "'numpy': numpy.__version__}))"],
        env=child_env(), capture_output=True, text=True, timeout=60, check=True)
    env = json.loads(out.stdout)
    env["nproc"] = len(os.sched_getaffinity(0))
    env["machine"] = platform.machine()
    return env


def setup_time():
    """Seconds from spawning an interpreter until the modules are imported.

    Not scaled to reference speed: start-up is process creation, file reads
    and C-extension loading, which the reference chunk does not track (its
    speed swung 2x over a minute in which start-up moved by 15%)."""
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "-c", _IMPORT_ALL], env=child_env(),
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S)
    if out.returncode != 0:
        raise BenchError("importing mbhalf failed:\n" + out.stderr)
    return float(out.stdout.strip()) - t0


def run_child(workload, inputs, trace, inject_fail=False):
    spec = {"workload": workload, "inputs": inputs, "trace": trace,
            "inject_fail": inject_fail}
    try:
        out = subprocess.run([sys.executable, os.path.join(HERE, "child.py")],
                             input=json.dumps(spec), env=child_env(), cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("child exceeded %d s" % CHILD_TIMEOUT_S)
    if out.returncode != 0:
        raise BenchError("child exited %d:\n%s" % (out.returncode, out.stderr))
    return json.loads(out.stdout.strip().splitlines()[-1])


def scaled(r):
    """A request's latency in seconds at reference speed."""
    return r["latency_s"] * r["ref_factor"]


def scaled_wall(rep):
    """A repetition's wall time at reference speed: each request scaled by
    its own factor, the little time between requests by the run's."""
    busy = sum(r["latency_s"] for r in rep["requests"])
    return (sum(scaled(r) for r in rep["requests"])
            + (rep["wall_s"] - busy) * rep["ref_factor"])


def end_to_end(setups, reps):
    """Metrics of the repetitions, every time but setup_s at reference
    speed."""
    requests = [r for rep in reps for r in rep["requests"]]
    margins = [c["margin"] for r in requests for c in r["checks"]
               if c["margin"] is not None]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(scaled_wall(rep) for rep in reps),
        "req_p50_s": statistics.median(scaled(r) for r in requests),
        "cold_req_s": statistics.median(scaled(rep["requests"][0])
                                        for rep in reps),
        "accuracy_margin_digits": min(margins) if margins else float("nan"),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}


def report(workload, seed, env, reps, metrics, extra):
    requests = [r for rep in reps for r in rep["requests"]]
    failed = [r for r in requests if r["failed"]]
    print("workload %s  seed %d  repetitions %d  env %s"
          % (workload, seed, len(reps), json.dumps(env, sort_keys=True)))
    for r in failed:
        bad = [c["name"] for c in r["checks"] if not c["ok"]]
        print("FAILED %s: %s" % (r["name"], r["error"] or ", ".join(bad)),
              file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print("%-40s %.6g %s%s" % (name, value, unit, extra.get(name, "")))
    print("%-40s %.6g 1  (%d of %d requests)"
          % ("fail_frac", len(failed) / len(requests), len(failed),
             len(requests)))
    result = {"correct": not failed, "attempted": len(requests),
              "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if not failed else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="a few cheap requests per workload (self-tests)")
    p.add_argument("--inject-fail", action="store_true",
                   help="self-test: make the first check of each repetition "
                        "miss its tolerance")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mbhalf", "__init__.py")):
        print("no mbhalf sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    inputs = make_inputs(args.workload, args.seed, quick=args.quick)
    start = time.monotonic()
    try:
        env = environment()
        if args.trace:
            plain = run_child(args.workload, inputs, False, args.inject_fail)
            traced = run_child(args.workload, inputs, True, args.inject_fail)
            metrics = {k: tuple(v) for k, v in traced["trace"].items()}
            metrics["trace_overhead_frac"] = (
                scaled_wall(traced) / scaled_wall(plain) - 1.0, "ratio")
            return report(args.workload, args.seed, env, [plain, traced],
                          metrics, {})
        setup_time()   # writes the bytecode caches; not a sample
        # half the set-up samples before the repetitions and half after, so
        # that their median spans the run rather than its first seconds
        half = 2 if args.quick else SETUP_SAMPLES // 2
        setups = [setup_time() for _ in range(half)]
        reps = []
        while True:
            t0 = time.monotonic()
            reps.append(run_child(args.workload, inputs, False,
                                  args.inject_fail))
            took = time.monotonic() - t0
            if time.monotonic() - start + took > args.seconds:
                break
        setups += [setup_time() for _ in range(half)]
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print("benchmark run failed: %s" % exc, file=sys.stderr)
        return 2
    n = sum(len(rep["requests"]) for rep in reps)
    raw = {"wall_s": statistics.median(rep["wall_s"] for rep in reps),
           "cold_req_s": statistics.median(rep["requests"][0]["latency_s"]
                                           for rep in reps)}
    raw["req_p50_s"] = statistics.median(r["latency_s"] for rep in reps
                                         for r in rep["requests"])
    extra = {k: "  (raw %.6g s)" % v for k, v in raw.items()}
    extra["req_p50_s"] += "  (median of %d requests)" % n
    extra["wall_s"] += "  (reference factor %s)" % " ".join(
        "%.3f" % rep["ref_factor"] for rep in reps)
    return report(args.workload, args.seed, env, reps,
                  end_to_end(setups, reps), extra)


if __name__ == "__main__":
    sys.exit(main())
