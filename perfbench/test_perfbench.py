"""Self-tests of the benchmark at tiny sizes (``python -m pytest perfbench``)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ("table3_attack", "fl_sealed_rounds", "fl_thousand_clients", "gateway_sealed")


def _run(tmp_path, workload, seed=1, trace=0, cwd=ROOT):
    completed = subprocess.run(
        [
            sys.executable,
            str(Path(cwd) / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "0.5",
            "--trace", str(trace),
            "--size", "tiny",
            "--out", str(tmp_path),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    record = tmp_path / f"{workload}-seed{seed}-trace{trace}-tiny.json"
    return completed, record


def _result(completed) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(tmp_path, workload):
    result = _result(_run(tmp_path, workload)[0])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == END_TO_END
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layers_add_up_to_the_operation(tmp_path, workload):
    completed, record_path = _run(tmp_path, workload, trace=1)
    result = _result(completed)
    assert result["correct"] is True
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == PER_LAYER
    record = json.loads(record_path.read_text())
    assert record["breakdowns"], "no traced operation"
    op_seconds = {str(entry["op"]): entry["seconds"] for entry in record["ops"]}
    for op, breakdown in record["breakdowns"].items():
        layers = breakdown["layers"]
        self_total = sum(row["self_s"] for row in layers.values())
        assert self_total == pytest.approx(breakdown["op_seconds"], rel=1e-9, abs=1e-9)
        assert breakdown["unattributed_s"] == pytest.approx(layers[breakdown["root"]]["self_s"])
        assert breakdown["op_seconds"] <= op_seconds[op]
        assert len(layers) > 1, f"operation {op} recorded no layer below its root"
    assert result["metrics"][f"{workload}.unattributed_s"]["value"] > 0
    assert result["metrics"]["trace.overhead"]["value"] > 0


def test_seed_changes_inputs_but_not_metric_set(tmp_path):
    runs = {}
    for seed in (1, 2):
        completed, record_path = _run(tmp_path, "gateway_sealed", seed=seed)
        runs[seed] = (_result(completed), json.loads(record_path.read_text()))
    (first, first_record), (second, second_record) = runs[1], runs[2]
    assert first["metrics"].keys() == second["metrics"].keys()
    assert (
        first_record["workload_config"]["inputs_sha256"]
        != second_record["workload_config"]["inputs_sha256"]
    )
    again, again_path = _run(tmp_path / "again", "gateway_sealed", seed=1)
    _result(again)
    assert (
        json.loads(again_path.read_text())["workload_config"]["inputs_sha256"]
        == first_record["workload_config"]["inputs_sha256"]
    )


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed, _ = _run(tmp_path / "out", "gateway_sealed", cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def _workloads_module():
    import run

    return run, run._import_program()[1]


def _corrupt_table3(outputs):
    outputs[-1][0][3]["pgd"]["shielded"] += 0.5


def _corrupt_federation(outputs):
    next(iter(outputs[-1]["state"].values())).flat[0] += 1e-12


def _corrupt_gateway(outputs):
    outputs[-1]["opened"] = outputs[-1]["opened"] + 1e-12


CORRUPT = {
    "table3_attack": _corrupt_table3,
    "fl_sealed_rounds": _corrupt_federation,
    "fl_thousand_clients": _corrupt_federation,
    "gateway_sealed": _corrupt_gateway,
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_check_catches_a_corrupted_output(workload):
    _, workloads = _workloads_module()
    runner = workloads.WORKLOADS[workload]("tiny")
    runner.setup(3)
    outputs = [runner.op(index) for index in range(2)]
    assert runner.check(outputs) == []
    CORRUPT[workload](outputs)
    assert runner.check(outputs) != []


def test_mismatch_fails_the_run(tmp_path, monkeypatch, capsys):
    run, workloads = _workloads_module()
    monkeypatch.setattr(workloads.GatewaySealed, "check", lambda self, outputs: ["forced"])
    argv = ["--workload", "gateway_sealed", "--seed", "1", "--seconds", "0.2", "--size", "tiny"]
    assert run.main(argv + ["--out", str(tmp_path)]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
