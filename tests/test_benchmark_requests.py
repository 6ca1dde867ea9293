"""The benchmark's requests run against this checkout.

``perfbench/child.py`` calls many names of the package directly, so a
rename or a deletion in ``src`` that it still reads breaks the benchmark
without breaking any other test.  Each workload runs once here, on the
inputs of seed 61, in a fresh interpreter as the benchmark runs it.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_spec = importlib.util.spec_from_file_location("workloads",
                                               PERFBENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_benchmark_request_passes(name):
    spec = {"workload": name, "inputs": workloads.make_inputs(name, 61),
            "trace": False, "inject_fail": False}
    proc = subprocess.run([sys.executable, str(PERFBENCH / "child.py")],
                          input=json.dumps(spec), cwd=PERFBENCH.parent,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    requests = json.loads(proc.stdout.strip().splitlines()[-1])["requests"]
    failed = [(r["name"], r["error"]
               or [c for c in r["checks"] if not c["ok"]])
              for r in requests if r["failed"]]
    assert requests and not failed, failed
