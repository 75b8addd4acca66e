"""The benchmark's own test, at a tiny size.

    python3 -m pytest -q benchmarks/test_bench.py

It checks the metric catalogue against ``BENCHMARK.json``. It checks
that every named metric is printed with its unit, that an injected
wrong value raises the failure fraction above 0, and that a tail
percentile is reported only with ten ops beyond it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import cli_reference  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def test_catalogue_matches_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


def test_tail_percentile_needs_ten_ops_beyond():
    assert harness.tail_percentile(10) is None
    assert harness.tail_percentile(19) is None
    assert harness.tail_percentile(20) == 50.0
    assert harness.tail_percentile(39) == 50.0
    assert harness.tail_percentile(40) == 75.0
    assert harness.tail_percentile(100) == 90.0
    assert harness.tail_percentile(412) == 95.0
    for n in (20, 40, 45, 96, 100, 412, 1000):
        p = harness.tail_percentile(n)
        assert harness.ops_beyond(n, p) >= 10
    values = [float(v) for v in range(1, 21)]
    assert harness.nearest_rank(values, 50.0) == 10.0
    assert harness.nearest_rank(values, 100.0) == 20.0


def test_cli_tail_is_inside_one_invocation_kind():
    # measured latency order of the invocation kinds, fastest first
    order = ["spin", "rindler-scan", "optimize", "optimize-spin-one",
             "squeeze-scan", "rindler-scan-long", "kg-norm",
             "kg-norm-normalize"]
    cfg = cli_reference.CliReference.SIZES["full"]
    n = cfg["min_rounds"] * len(cfg["mix"])
    ranked = [kind for kind in order
              for _ in range(cfg["min_rounds"] * cfg["mix"].count(kind))]
    assert len(ranked) == n
    p = harness.tail_percentile(n)
    rank = n - harness.ops_beyond(n, p) - 1
    # the tail and its neighbours on either side are one kind
    assert ranked[rank - 1] == ranked[rank] == ranked[rank + 1]
    mid = n // 2
    assert ranked[mid - 1] == ranked[mid] == ranked[mid + 1]


def test_raising_op_is_counted_not_fatal():
    rec = harness.Recorder()
    assert rec.op("boom", lambda: 1 / 0) is False
    assert rec.op("fine", lambda: True) is True
    assert [ok for _, _, ok in rec.ops] == [False, True]
    assert "ZeroDivisionError" in rec.errors[0]


def run_tiny(workload: str, trace: int) -> tuple[str, dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=harness.ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return done.stdout, json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["fock-oracle", "field-smearing", "cli-reference"])
def test_every_metric_printed_with_unit(workload, trace):
    stdout, result = run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = {}
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) >= 4 and fields[0] == workload:
            printed[fields[1]] = fields[3]
    assert {name: printed.get(name) for name in expected} == expected
    for name, metric in result["metrics"].items():
        if name.endswith("worst_ratio"):
            assert metric["value"] <= 1.0, name
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0


def test_wrong_reference_raises_fail_frac(monkeypatch):
    monkeypatch.setitem(cli_reference.REFERENCE, "tsirelson", 2.0 * 2 ** 0.5 + 1e-3)
    workload = cli_reference.CliReference(seed=3, size="tiny")
    workload.mix = ["spin", "optimize-spin-one", "rindler-scan"]
    workload.min_rounds = 1
    measured = harness.measure(workload, seconds=0.0, trace=False)
    record = {"ops": measured["rec"].ops, "rounds": measured["rounds"],
              "min_rounds": 1, "ops_per_round": 3, "peak_rss_mb": 1.0}
    values, _ = run.end_to_end(record, setups=[1.0])
    # spin and rindler-scan check 2 sqrt(2); the spin-one optimum does not
    assert [ok for _, _, ok in measured["rec"].ops] == [
        kind == "optimize-spin-one" for kind, _, _ in measured["rec"].ops]
    assert 1.0 - values["ok_frac"] == pytest.approx(2 / 3)


def test_wrong_matrix_value_fails_fock_crosscheck(monkeypatch):
    import inprocess
    workload = inprocess.FockOracle(seed=3, size="tiny")
    real = inprocess.fock.chsh_matrix
    monkeypatch.setattr(inprocess.fock, "chsh_matrix",
                        lambda *args: real(*args) + 1e-6)
    rec = harness.Recorder()
    workload.run_round(rec)
    failed = {kind for kind, _, ok in rec.ops if not ok}
    assert failed == {"point"}
    assert rec.ratios["fock.crosscheck"] > 1.0
