"""Smoke test of the benchmark at reduced sizes.  It checks that every metric
is emitted and that failed checks are counted; it checks no timing.

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*argv):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *argv, "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    return "\n".join(lines[:-1]), json.loads(lines[-1])


def test_spec_matches_the_runner():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert WORKLOADS == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    report, result = bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] and result["attempted"] >= 1
    named = ["setup_s", "wall_s", "error_rate", "peak_rss_mb", "provenance", "git_sha", "cpu_model"]
    if workload == "sweep":
        named += ["array_p50_ms", "array_p90_ms"]
    else:
        named += ["decoded_MBps", "demand_p50_ms", "demand_p90_ms"]
    if trace:
        named += list(run.PER_LAYER)
        assert (run.OUT / f"{workload}-seed3-trace1.spans.jsonl").stat().st_size > 0
    for name in named:
        assert f" {name}" in report or f'"{name}"' in report, name


def test_products_counts_its_known_equivalence_failures():
    _, result = bench("--workload", "products", "--seed", "1", "--seconds", "0", "--trace", "0")
    assert result["correct"] and result["failed"] >= 2


def test_error_rate_counts_a_deliberately_failed_check(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "row_closed_form", lambda row: None)
    assert run.main(["--workload", "sweep", "--seed", "1", "--seconds", "0", "--smoke"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    arrays = 20  # legal (a, b, t) at n = 5, one pass
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2 * arrays, arrays)
    assert any(ln.split()[:2] == ["error_rate", "0.5"] for ln in lines)


def test_an_exception_is_a_failed_operation_not_a_wrong_result(monkeypatch, capsys):
    def boom(*args):
        raise RecursionError("deliberate")

    monkeypatch.setattr(workloads.scheme, "decode", boom)
    assert run.main(["--workload", "simulate", "--seed", "1", "--seconds", "0", "--smoke"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    demands = workloads.SMOKE.demands_per_pass
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1 + demands, demands)
