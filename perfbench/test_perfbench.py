"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

They run tiny-n0 versions of the workloads, so they take seconds, not the
minutes of a real run.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time

import pytest

import gate
import run
import spans
from workloads import WORKLOADS, make_inputs

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "spectrum-n18": {"n0": 3, "count": 2},
    "ionization-n10": {"n0": 6, "count": 2},  # mu = -6 opens at n0 >= 6
    "ladder-n16": {"n0": 4, "cold_n0": 2},
}


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], name=name + "-tiny", **TINY[name])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(name, trace):
    record = run.measure(tiny(name), 3, 1, trace, time.monotonic() + 120)
    assert record["correct"], record["failures"]
    assert record["attempted"] > 0 and record["failed"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in record["metrics"].items()} == expected
    for m in record["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_inputs(name):
    workload = WORKLOADS[name]
    assert make_inputs(workload, 7) == make_inputs(workload, 7)
    assert make_inputs(workload, 7) != make_inputs(workload, 8)


def _cli_output(tmp_path, workload):
    """Run a tiny workload's warm call in-process; return (call, csv path)."""
    sys.path.insert(0, str(run.SRC))
    try:
        from laserhydrogen import cli
    finally:
        sys.path.remove(str(run.SRC))
    call = make_inputs(workload, 0)["warm"][0]
    out = tmp_path / "out.csv"
    assert cli.main(list(call.argv) + ["--out", str(out)]) == 0
    return call, out


def _rewrite(path, column, change, row=1):
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[column] = change(cells[column])
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_gate_rejects_perturbed_w(tmp_path):
    call, out = _cli_output(tmp_path, tiny("spectrum-n18"))
    clean = gate.check_call(out, call, 0)
    assert not clean.failed, clean.messages
    _rewrite(out, 7, lambda w: repr(float(w) * 1.001))
    assert gate.check_call(out, call, 0).failed == {0}
    # moving W between two states keeps the sum rule but misses the reference
    call, out = _cli_output(tmp_path, tiny("spectrum-n18"))
    _rewrite(out, 7, lambda w: repr(float(w) - 1e-6), row=1)
    _rewrite(out, 7, lambda w: repr(float(w) + 1e-6), row=2)
    assert not gate.check_call(out, call, 0).failed
    check = gate.check_call(out, call, 0, reference=clean.fingerprint)
    assert check.failed == {0}


def test_gate_rejects_negative_sigma(tmp_path):
    call, out = _cli_output(tmp_path, tiny("ionization-n10"))
    clean = gate.check_call(out, call, 0)
    assert not clean.failed, clean.messages
    _rewrite(out, 8, lambda s: repr(-float(s)))
    check = gate.check_call(out, call, 0)
    assert check.failed == {0}
    assert any("sigma" in m for m in check.messages)


def test_gate_counts_failed_points_from_meta(tmp_path):
    call, out = _cli_output(tmp_path, tiny("spectrum-n18"))
    meta_path = tmp_path / "out.csv.meta.json"
    meta = json.loads(meta_path.read_text())
    meta["failed_points"] = [{"axis_value": call.axis[1], "error": "injected"}]
    meta_path.write_text(json.dumps(meta))
    assert gate.check_call(out, call, 1).failed == {0, 1}  # exit 1 fails all
    assert gate.check_call(out, call, 0).failed == {1}


def test_missing_layer_is_reported_absent(monkeypatch):
    sys.path.insert(0, str(run.SRC))
    try:
        import laserhydrogen  # noqa: F401  (loads every layer module)
    finally:
        sys.path.remove(str(run.SRC))
    monkeypatch.setattr(
        spans, "LAYERS", spans.LAYERS + (("gone.layer", "laserhydrogen", "no_such"),)
    )
    tracer = spans.Tracer()
    tracer.install()
    assert tracer.absent == ["gone.layer"]
    assert "eigensolver.diagonalize" in tracer.present


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ladder-n16",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
