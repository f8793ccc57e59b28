"""CLI smokes of the serving scenarios: one tiny ``repro.run`` each.

Each test runs the same invocation a user would type, into ``tmp_path``,
and checks the gates and parity flags the run record carries.
"""

from __future__ import annotations

import json

from repro.run import main


def _run(tmp_path, scenario: str, *overrides: str) -> dict:
    args = [scenario, "--scale", "tiny", "--results-dir", str(tmp_path)]
    for override in overrides:
        args += ["--set", override]
    assert main(args) == 0
    return json.loads((tmp_path / "runs" / f"{scenario}.json").read_text())


def test_serving_tail_latency_tiny_passes_slo_gate(tmp_path):
    record = _run(tmp_path, "serving_tail_latency")
    assert record["results"]["gate"]["passed"], "tail-latency SLO gate failed"


def test_serving_throughput_tiny_parity(tmp_path):
    record = _run(tmp_path, "serving_throughput")
    parity = record["results"]["parity"]
    assert parity["captured_vs_eager"], "captured serving diverged from eager"
    assert parity["batched_vs_single"], "batched serving diverged from unbatched"
    assert record["results"]["sealed"]["roundtrip_ok"], "sealed query round trip failed"


def test_serving_throughput_tiny_thread_workers(tmp_path):
    record = _run(tmp_path, "serving_throughput", "worker_backend=thread", "workers=2")
    assert record["results"]["parity"]["captured_vs_eager"], "thread workers diverged from eager"
    transport = record["results"]["batched"]["transport"]
    assert transport == "thread", transport
