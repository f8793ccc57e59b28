"""Tests of the replay executor: every replay runs on the calling thread.

A recording's replay plan is a step list run front to back — fused
elementwise chains and in-place kernel reruns — with no worker pool behind
it.  The invariants under test: replays are byte-identical to eager
execution (outputs and gradients), graphs with non-replayable ops fall back
to eager, and neither replays nor the serving gateway start a thread.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.autodiff import (
    CapturedExecution,
    CapturedInference,
    EagerExecution,
    InferenceHandles,
    InferenceRecording,
    ReplayPlan,
    Tensor,
    TraceHandles,
    no_grad,
    profile_ops,
    replay_thread_count,
)
from repro.autodiff import functional as F

_BRANCH_SCALES = (1.0, 1.25, 1.5, 1.75)


def _wide_grad_trace(weight):
    """Four independent elementwise branches merged into one objective."""

    def trace(array: np.ndarray) -> TraceHandles:
        x = Tensor(array, requires_grad=True, is_input=True)
        branches = [F.sigmoid((x * scale).tanh() + 0.5) for scale in _BRANCH_SCALES]
        merged = branches[0]
        for branch in branches[1:]:
            merged = merged + branch
        return TraceHandles(objective=(merged @ weight).sum(), input=x)

    return trace


def _wide_inference_trace(weight):
    def trace(array: np.ndarray) -> InferenceHandles:
        with no_grad():
            x = Tensor(array, is_input=True)
            branches = [((x * scale).tanh().exp() + 1.0).sqrt() for scale in _BRANCH_SCALES]
            merged = branches[0]
            for branch in branches[1:]:
                merged = merged + branch
            out = merged @ weight
        return InferenceHandles(input=x, output=out)

    return trace


class TestBitIdentity:
    """Same recording, replayed again and again → byte-identical to eager."""

    def test_gradient_replay(self, rng):
        weight = Tensor(rng.normal(size=(16, 4)), requires_grad=True, is_parameter=True)
        trace = _wide_grad_trace(weight)
        eager, captured = EagerExecution(), CapturedExecution()
        for trial in range(4):
            batch = rng.normal(size=(8, 16))
            expected = eager.run(trace, batch)
            actual = captured.run(trace, batch, key="wide")
            np.testing.assert_array_equal(
                np.array(expected.input.grad),
                np.array(actual.input.grad),
                err_msg=f"trial={trial}",
            )
            assert expected.objective.data.tobytes() == actual.objective.data.tobytes()
        recording = next(iter(captured._recordings.values()))
        assert recording.fused_chains >= 1

    def test_inference_replay(self, rng):
        weight = Tensor(rng.normal(size=(16, 4)), requires_grad=True, is_parameter=True)
        trace = _wide_inference_trace(weight)
        captured = CapturedInference()
        for trial in range(4):
            batch = rng.normal(size=(8, 16))
            expected = trace(batch).output.data.copy()
            actual = captured.run(trace, batch, key="wide-inf").output.data
            assert expected.tobytes() == actual.tobytes(), f"trial={trial}"
        recording = next(iter(captured._recordings.values()))
        assert recording.replays == 2  # run 1 is eager warm-up, run 2 records

    def test_eager_fallback_path(self, rng):
        """Graphs with non-replayable ops fall back to eager."""
        drop_rng = np.random.default_rng(3)

        def trace(array):
            x = Tensor(array, requires_grad=True, is_input=True)
            return TraceHandles(
                objective=F.dropout(x.tanh(), rate=0.5, rng=drop_rng).sum(), input=x
            )

        captured = CapturedExecution()
        for _ in range(3):
            handles = captured.run(trace, rng.normal(size=(4, 8)), key="drop")
            assert handles.input.grad is not None
        assert captured.stats.fallbacks >= 1
        assert captured.stats.replays == 0


class TestLargeChains:
    """Fused chains over large buffers replay exactly."""

    def test_large_chain_replay_matches_eager(self, rng):
        def trace(array):
            with no_grad():
                x = Tensor(array, is_input=True)
                out = ((x * 2.0 + 0.5).tanh().exp() + 1.0).sqrt()
            return InferenceHandles(input=x, output=out)

        batch = rng.normal(size=(256, 256))
        recording = InferenceRecording(trace(batch))
        assert recording.fused_ops == len(recording)
        for _ in range(2):
            replayed = recording.replay(batch).output.data
            assert replayed.tobytes() == trace(batch).output.data.tobytes()


class TestCallerThreadOnly:
    def test_replays_and_gateway_start_no_replay_thread(self, rng):
        from repro.models.simple import SimpleCNN, SimpleCNNConfig
        from repro.serve.batching import InferenceRequest
        from repro.serve.gateway import AdmissionPolicy, GatewayPolicy, GatewayService

        weight = Tensor(rng.normal(size=(16, 4)), requires_grad=True, is_parameter=True)
        gradient, inference = CapturedExecution(), CapturedInference()
        for _ in range(3):
            gradient.run(_wide_grad_trace(weight), rng.normal(size=(8, 16)), key="g")
            inference.run(_wide_inference_trace(weight), rng.normal(size=(8, 16)), key="i")
        assert gradient.stats.replays >= 1 and inference.stats.replays >= 1

        model = SimpleCNN(SimpleCNNConfig(in_channels=3, num_classes=4, widths=(4, 8), image_size=8))
        inputs = rng.uniform(size=(6, 3, 8, 8))
        requests = [
            InferenceRequest(request_id=i, payload=inputs[i], arrival_us=i * 100.0, session_id="c")
            for i in range(len(inputs))
        ]
        service = GatewayService(model, GatewayPolicy(
            policy="continuous", max_batch=2, replicas=2,
            admission=AdmissionPolicy(max_queue_depth=64, max_per_session=64),
        ))
        service.open_session("c")
        assert len(service.serve(requests).replies) == len(requests)

        assert replay_thread_count() == 1
        names = [thread.name for thread in threading.enumerate()]
        assert not any(name.startswith("repro-replay") for name in names), names


class TestParallelProfiler:
    def test_serial_replays_keep_the_classic_row(self, rng):
        weight = Tensor(rng.normal(size=(16, 4)), requires_grad=True, is_parameter=True)
        trace = _wide_grad_trace(weight)
        captured = CapturedExecution()
        with profile_ops() as profiler:
            for _ in range(3):
                captured.run(trace, rng.normal(size=(8, 16)), key="prof")
        stats = profiler.as_dict()
        assert stats["captured_replay"]["calls"] == 1
        assert "captured_replay_parallel" not in stats

    def test_profiler_record_is_thread_safe(self):
        from repro.autodiff.profiler import OpProfiler

        profiler = OpProfiler()
        per_thread, workers = 500, 8

        def hammer():
            for _ in range(per_thread):
                profiler.record("hammer", 0.001, 10, 20)

        threads = [threading.Thread(target=hammer) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stat = profiler.as_dict()["hammer"]
        assert stat["calls"] == per_thread * workers
        assert stat["flops"] == 10 * per_thread * workers
        assert stat["bytes_moved"] == 20 * per_thread * workers


class TestPlanBuilderUnits:
    def test_plan_iterates_steps_and_counts(self, rng):
        x = Tensor(rng.normal(size=(4, 4)), requires_grad=True, is_input=True)
        nodes = []
        value = x
        for _ in range(3):
            value = value.tanh()
            nodes.append(value)
        plan = ReplayPlan(nodes)
        assert len(plan) == 1  # one fused chain
        assert (plan.fused_chains, plan.fused_ops) == (1, 3)
        assert list(plan) == plan.steps
