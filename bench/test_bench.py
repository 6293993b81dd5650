"""Tests of the benchmark itself, on tiny cells (d=2, genus 5) that go
through the same four code paths as the real workloads."""

import dataclasses
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("gnsenum_bench_run", HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench
_spec.loader.exec_module(bench)

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())

SMOKE = {w.name: w for w in [
    bench.Workload("full-d2", 2, "all", gmax=5),
    bench.Workload("rep-d6", 2, "representatives", gmax=5),
    bench.Workload("fixed-d2", 2, "representatives", genus=5),
    bench.Workload("engine-d3", 2, "all", gmax=5, threads=2, resume=True),
]}


@pytest.fixture
def smoke(monkeypatch):
    monkeypatch.setattr(bench, "WORKLOADS", SMOKE)


def _result(out):
    return json.loads(out.strip().splitlines()[-1])


def test_smoke_untraced(smoke, capsys):
    assert bench.main(["--seconds", "0", "--trace", "0"]) == 0
    doc = _result(capsys.readouterr().out)
    assert doc["correct"] and doc["failed"] == 0
    # one repetition each: genera 0..5 on three walks, one fixed-genus
    # row, and the engine's walk plus its resume
    assert doc["attempted"] == 6 + 6 + 1 + 2 * 6
    for name in SMOKE:
        for metric in DECLARED["end_to_end"]:
            assert doc["metrics"][f"{name}.{metric['name']}"]["value"] > 0


def test_smoke_traced_predictions(smoke, capsys):
    assert bench.main(["--seconds", "0", "--trace", "1"]) == 0
    out = capsys.readouterr().out
    doc = _result(out)
    assert doc["correct"]
    assert out.count("zero predictions: hold") == len(SMOKE)
    metrics = {k: v["value"] for k, v in doc["metrics"].items()}
    for name in SMOKE:
        for metric in bench.INTERACTIONS:
            assert f"{name}.{metric}" in metrics
    # each workload drives the layer it was chosen for
    assert metrics["fixed-d2.semigroup.extension_generators.calls"] > 0
    assert metrics["fixed-d2.semigroup.special_gaps.calls"] > 0
    assert metrics["rep-d6.canonical.rep_scan.calls"] > 0
    assert metrics["full-d2.trees.children.accept_ratio"] == 1
    assert metrics["engine-d3.trees.write_checkpoint.calls"] > 0
    assert metrics["engine-d3.trees.read_checkpoint.nodes"] > 0
    assert metrics["engine-d3.trees.pickle_bytes"] > 0
    assert metrics["engine-d3.trees.expand_level.wait_share"] > 0
    # a metric name the span summary cannot produce would read 0 everywhere
    for metric in bench.INTERACTIONS:
        assert any(metrics[f"{name}.{metric}"] for name in SMOKE), metric


def test_violated_zero_prediction_fails(smoke, monkeypatch, capsys):
    # the engine's checkpoint spans are predicted to be 0 on full-d2
    monkeypatch.setitem(SMOKE, "full-d2",
                        dataclasses.replace(SMOKE["engine-d3"], name="full-d2"))
    assert bench.main(["--workload", "full-d2", "--seconds", "0",
                       "--trace", "1"]) == 1
    out = capsys.readouterr().out
    assert "VIOLATED by" in out and "trees.write_checkpoint.calls" in out
    doc = _result(out)
    assert not doc["correct"] and doc["failed"] == 0


def test_wrong_reference_fails(smoke, capsys, monkeypatch):
    from gnsenum import counting

    real = counting.reference_value
    monkeypatch.setattr(counting, "reference_value",
                        lambda mode, d, g: real(mode, d, g) + (g == 3))
    assert bench.main(["--workload", "full-d2", "--seconds", "0"]) == 1
    out = capsys.readouterr().out
    doc = _result(out)
    assert not doc["correct"]
    assert doc["failed"] == 1 and doc["attempted"] == 6
    assert "[full-d2] error_rate 0.166667 (1 of 6 cells failed" in out
    # a failed repetition gives no timing
    assert doc["metrics"] == {}


def test_times_scaled_to_reference_speed(smoke, monkeypatch, tmp_path):
    # an invocation whose probe ran at half the reference speed reports
    # half its measured times; peak memory is not a time and stays
    slow = {"code": 0, "probe_s": 2 * bench.REF_PROBE_S, "setup_s": 0.2,
            "wall_s": 3.0, "cpu_s": 2.0, "peak_rss_mb": 10.0}

    def fake_invoke(argv, **_):
        out = Path(argv[argv.index("--output") + 1])
        rows = [{"g": g, "count": c} for g, c in wl.expected().items()]
        out.write_text(json.dumps({"rows": rows}))
        return slow

    wl = SMOKE["full-d2"]
    monkeypatch.setattr(bench, "_invoke", fake_invoke)
    rep = bench._run_rep(wl, tmp_path, trace=False, started=0.0)
    assert rep["failed"] == 0
    assert rep["wall_s"] == 1.5 and rep["cpu_s"] == 1.0
    assert rep["setup"] == [0.1] and rep["peak_rss_mb"] == 10.0
    assert rep["raw_wall_s"] == 3.0


def test_fails_without_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "full-d2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""


def test_declared_names_match():
    assert [w["name"] for w in DECLARED["workloads"]] == list(bench.WORKLOADS)
    assert [m["name"] for m in DECLARED["per_layer"]] == list(bench.INTERACTIONS)
