"""Smoke test of the benchmark itself at tiny sizes.

    python -m pytest benchmarks/test_smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit, in
both modes and on every workload, and that a forced digest mismatch or a
forced oracle mismatch shows up as failed operations.
"""
from __future__ import annotations

import functools
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(scratch, *args, script=HERE / "run.py"):
    argv = [sys.executable, str(script), "--tiny", "--seconds", "0.5",
            "--scratch", str(scratch), *args]
    return subprocess.run(argv, capture_output=True, text=True, timeout=170)


def _result(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_every_metric_printed_with_unit(tmp_path, workload, trace):
    res = _result(_bench(tmp_path, "--workload", workload, "--trace", str(trace)))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    specs = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in specs} == \
        {k: v["unit"] for k, v in res["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_forced_digest_mismatch_counts_as_failed(tmp_path):
    first = _result(_bench(tmp_path, "--workload", "trials-cm-small"))
    assert first["failed"] == 0
    ledger = tmp_path / "digests.json"
    recorded = json.loads(ledger.read_text(encoding="utf-8"))
    ledger.write_text(json.dumps({k: "0" * 64 for k in recorded}), encoding="utf-8")
    second = _result(_bench(tmp_path, "--workload", "trials-cm-small"))
    assert not second["correct"]
    assert second["failed"] > 0
    assert second["metrics"]["ok_frac"]["value"] < 1.0


def test_forced_oracle_mismatch_counts_as_failed(tmp_path, monkeypatch, capsys):
    from fpplab import oracle

    for var in bench.BLAS_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(oracle, "run_corpus",
                        functools.partial(oracle.run_corpus, corrupt=True))
    code = bench.main(["--workload", "trials-cm-small", "--tiny", "--seconds", "0.5",
                       "--trace", "1", "--scratch", str(tmp_path)])
    assert code == 0
    res = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not res["correct"]
    assert res["failed"] > 0
    assert res["metrics"]["oracle.mismatches"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path / "scratch", "--workload", "trials-cm-small",
                  script=tmp_path / "benchmarks" / "run.py")
    assert done.returncode != 0
    assert not done.stdout.strip()
