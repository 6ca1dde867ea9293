"""Self-tests of the benchmark, in its shortened (--quick) mode.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from refclock import REF_CHUNK_S, Sampler  # noqa: E402
from workloads import NAMES, make_inputs  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    LEDGER = json.load(fh)


def _run(*extra, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", "log-gas", "--seed", "3",
         "--seconds", "1", "--quick", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("quick", (False, True))
@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_inputs_other_seed_other_inputs(name, quick):
    assert make_inputs(name, 7, quick) == make_inputs(name, 7, quick)
    assert make_inputs(name, 7, quick) != make_inputs(name, 8, quick)


def test_ledger_names_every_workload():
    assert [w["name"] for w in LEDGER["workloads"]] == list(NAMES)


@pytest.mark.parametrize("trace, section",
                         (("0", "end_to_end"), ("1", "per_layer")))
def test_every_metric_printed_with_its_unit(trace, section):
    proc = _run("--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in LEDGER[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    lines = proc.stdout.splitlines()[:-1]
    for name, unit in want.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in lines), name
    assert any(line.startswith("fail_frac") for line in lines)


def test_injected_over_tolerance_residual_is_counted():
    proc = _run("--trace", "0", "--inject-fail")
    assert proc.returncode == 1
    result = _result(proc)
    assert not result["correct"]
    assert result["failed"] == 1 <= result["attempted"]
    frac = [line for line in proc.stdout.splitlines()
            if line.startswith("fail_frac")][0]
    assert float(frac.split()[1]) == pytest.approx(1 / result["attempted"])


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--trace", "0", cwd=tmp_path,
                script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reference_chunks_are_left_out_of_the_measured_time():
    sampler = Sampler(interval=0.01)
    t0, c0 = time.perf_counter(), sampler.now()
    sampler.start()
    end = time.perf_counter() + 0.3
    while time.perf_counter() < end:
        pass
    sampler.stop()
    raw, measured = time.perf_counter() - t0, sampler.now() - c0
    assert len(sampler.samples) >= 3 and sampler.paused > 0
    assert measured == pytest.approx(raw - sampler.paused, abs=1e-3)
    assert sampler.factor() > 0


def test_factor_widens_a_short_window_to_its_neighbours():
    sampler = Sampler()
    sampler.samples = [REF_CHUNK_S] * 4 + [2 * REF_CHUNK_S] * 4
    assert sampler.factor(4, 8, least=4) == pytest.approx(0.5)
    assert sampler.factor(4, 8) == pytest.approx(5 / 9)   # one borrowed
    assert sampler.factor(4, 5, least=1) == pytest.approx(0.5)
    assert sampler.factor(4, 5, least=3) == pytest.approx(3 / 5)
    assert sampler.factor(0, 0, least=100) == pytest.approx(2 / 3)
