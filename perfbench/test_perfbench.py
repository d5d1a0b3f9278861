"""The benchmark's own checks: its oracles catch wrong answers, clean runs
pass, and its metric names match BENCHMARK.json.

    python3 -m pytest perfbench/test_perfbench.py

Runs every workload briefly end to end, so it takes about two minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
from recorder import WINDOW, Recorder, tail  # noqa: E402

ROOT = HERE.parent


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=180)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(worker.WORKLOADS) == sorted(run.WORKLOADS)


def test_tail_is_the_highest_rung_with_ten_samples_beyond():
    assert tail([float(i) for i in range(1, 101)]) == (90.0, 90.0, 10)
    assert tail([float(i) for i in range(1, 45)])[::2] == (75.0, 11)
    assert tail([float(i) for i in range(1, 1001)])[::2] == (99.0, 10)
    assert tail([1.0] * 12)[::2] == (50.0, 6)


def test_corrupted_membership_formula_is_caught():
    worker.use_checkout_source()
    import wl_membership
    rec = Recorder(trace=False)
    wl = wl_membership.Workload(3, rec, mutation="successor")
    rec.phase = WINDOW
    wl.run_pass(rec)
    assert rec.failed > 0
    assert rec.failed / rec.attempted > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_clean_run_checks_every_answer_and_passes(workload):
    r = result(bench("--workload", workload, "--seed", "5",
                     "--seconds", "0.2", "--trace", "0"))
    assert r["correct"] and r["failed"] == 0 and r["attempted"] > 0
    assert set(r["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in r["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    r = result(bench("--workload", "model-ops", "--seed", "5",
                     "--seconds", "0.2", "--trace", "1"))
    assert r["correct"]
    assert set(r["metrics"]) == set(run.PER_LAYER)
    assert r["metrics"]["core.decode_wide.us"]["value"] > 0
    assert r["metrics"]["order.ack_order5_cold_s"]["value"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "membership",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
