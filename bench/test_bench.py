"""Schema smoke tests for the benchmark (no timing assertions).

    python3 -m pytest bench/
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run
import spans

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench(tmp_root, *args):
    cmd = [sys.executable, str(tmp_root / "bench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=tmp_root, capture_output=True, text=True,
                          timeout=170)


def _result(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert SPEC["command"][1].startswith(SPEC["paths"][0] + "/")
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]:
        assert NAME.match(m["name"])
        names.append(m["name"])
        if "unit" in m:
            assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_end_to_end_result_matches_spec():
    result = _result("run-2d-n64-euler", trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_result_matches_spec():
    result = _result("run-2d-n64-euler", trace=1)
    assert result["correct"] and result["failed"] == 0
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    # 4 sub-steps x 8 transforms + 2 for the budget rates.
    assert result["metrics"]["fields.fft.transforms_per_step"]["value"] == 34


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "run-3d-n32", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_children(tmp_path, monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(spans, "clock", lambda: float(next(ticks)) / 1e3)
    rec = spans.SpanRecorder()
    inner = rec.wrap(lambda: None, "fields.to_physical")
    outer = rec.wrap(lambda: (inner(), inner()), "spectral.l2_norm")
    outer()  # outer spans ticks 0..5, inner ones 1..2 and 3..4
    rec.save(tmp_path / "spans.npz")
    m = spans.layer_metrics(tmp_path / "spans.npz")
    assert m["spectral.norms.self_ms"] == 3.0
    assert m["fields.to_physical.self_ms"] == 2.0


def _execution(tmp_path, name, files, rc=0, finite=True):
    out = tmp_path / name
    out.mkdir()
    for fname, text in files.items():
        (out / fname).write_text(text)
    return run.Execution(False, out, {"rc": rc, "error": None, "finite": finite},
                         0.0, 0.0, "")


def test_run_gate(tmp_path):
    def diag(residual):
        return {"diagnostics.tsv": f"t\tenergy_residual\n0\t0\n1\t{residual}\n"}

    executions = [
        _execution(tmp_path, "ok", diag(1e-9)),
        _execution(tmp_path, "repeat", diag(1e-9)),
        _execution(tmp_path, "residual", diag(1.0)),
        _execution(tmp_path, "differs", diag(2e-9)),
        _execution(tmp_path, "exit", diag(1e-9), rc=3),
        _execution(tmp_path, "nonfinite", diag(1e-9), finite=False),
    ]
    run.gate(executions, run.WORKLOADS["run-3d-n32"])
    assert [bool(e.failure) for e in executions] == [False, False, True, True,
                                                     True, True]


def test_verify_gate(tmp_path):
    def report(**status):
        blocks = [f"check {name}\n  samples      1\n  status       "
                  + status.get(name, "REGIME-SKIP (r = 3 only)"
                               if name in run.EXPECTED_SKIPS else "PASS")
                  for name in spans.VERIFY_CHECKS]
        return {"verify_report.txt": "\n\n".join(blocks) + "\n"}

    executions = [
        _execution(tmp_path, "ok", report(filter="EXPLORATORY")),
        _execution(tmp_path, "fail", report(mvt="FAIL")),
        _execution(tmp_path, "noskip", report(monotone_critical="PASS")),
    ]
    run.gate(executions, run.WORKLOADS["verify-2d-n32"])
    assert [bool(e.failure) for e in executions] == [False, True, True]
