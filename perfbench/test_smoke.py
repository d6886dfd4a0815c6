"""Smoke test of the benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py

Each workload runs at its smoke size, untraced and traced, and must
print every metric named in ``BENCHMARK.json`` with its unit and pass
its output checks. A deliberately wrong reference value must show up
as a failed operation, and the command must refuse to run (non-zero
exit, no result) outside a repository checkout.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, *extra: str, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace),
         "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    result = _result(_run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload, path", [
    ("pm_trial", ("pm_trial", "0", "VarF&AppIPC+LinOpt", "mips")),
    ("fleet", ("fleet", "seed0/start0/n128", "freq_ratio", "mean")),
])
def test_wrong_reference_is_a_failed_operation(workload, path, tmp_path):
    reference = json.loads((HERE / "reference.json").read_text(
        encoding="utf-8"))
    node = reference
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] *= 1.01
    wrong = tmp_path / "reference.json"
    wrong.write_text(json.dumps(reference), encoding="utf-8")
    result = _result(_run(workload, 0, "--reference", str(wrong)))
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_host_sampling_is_taken_out_of_the_timed_work():
    sys.path.insert(0, str(HERE))
    try:
        from hostspeed import HostSpeed
    finally:
        sys.path.remove(str(HERE))
    import signal
    import time
    before = signal.getsignal(signal.SIGALRM)
    host = HostSpeed()
    t0 = time.perf_counter()
    with host.every(period_s=0.05):
        while time.perf_counter() - t0 < 0.5:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(host.samples) >= 3
    assert 0 < host.spent_s < time.perf_counter() - t0
    assert host.speed() > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".tmp"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
