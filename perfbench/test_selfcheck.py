"""Self-consistency of the benchmark itself; takes about two minutes.

    python -m pytest perfbench/test_selfcheck.py

Not part of the package's test suite (pytest's testpaths is tests/).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(workload: str, trace: int) -> dict:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_traced_counts_repeat_and_tracing_changes_no_output(workload):
    # run.py fails every traced invocation whose stdout, stderr or exit code
    # differs from the untraced invocation's, so failed == 0 covers that.
    first, second = _result(workload, 1), _result(workload, 1)
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0
    counts = [k for k, v in first["metrics"].items() if v["unit"] != "s"]
    assert "rays.landing_point.calls" in counts
    assert {k: first["metrics"][k] for k in counts} == \
        {k: second["metrics"][k] for k in counts}


def test_metrics_match_benchmark_json():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        printed = _result("tails", trace)["metrics"]
        declared = {m["name"]: m["unit"] for m in BENCH[section]}
        assert {k: v["unit"] for k, v in printed.items()} == declared
        assert all(isinstance(v["value"], (int, float)) for v in printed.values())
        if section == "end_to_end":
            assert all(v["value"] > 0 for v in printed.values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("census", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_counters_lose_no_update_across_threads():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import raycensus.rays as rays
    import tracer
    from raycensus import MapModel

    m = MapModel(c=complex(-2.0, 0.0))
    original = rays.inverse_branch
    n_threads, n_calls = 8, 20_000

    def work():
        for _ in range(n_calls):
            rays.inverse_branch(m, 1j, 0)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        trace = tracer.Tracer()
        with trace.installed():
            threads = [threading.Thread(target=work) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert rays.inverse_branch is original
    assert trace.snapshot()["exponential.inverse_branch.calls"] == n_threads * n_calls
