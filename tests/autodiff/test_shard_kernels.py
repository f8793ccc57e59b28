"""Bit-identity tests for the heavyweight kernels' in-place replays.

conv2d computes in *canonical sample bands* whenever its shapes pass
:func:`repro.autodiff.sharding.banded` (a pure function of shapes and
FLOPs), in eager mode and in replays alike; matmul and the pooling ops
always run whole.  The invariants under test: a replay reruns each heavy
kernel **in place** into the node's recorded buffer and reproduces the
eager bytes, and replayed gradients of a banded conv tower equal eager ones
byte for byte.

Most fixtures lower :data:`~repro.autodiff.sharding.MIN_BAND_FLOPS` (the
``low_floor`` fixture) so small test tensors band.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.autodiff import (
    CapturedExecution,
    EagerExecution,
    Tensor,
    TraceHandles,
    frozen_parameters,
    get_default_dtype,
    set_default_dtype,
)
from repro.autodiff import functional as F
from repro.autodiff import ops as op_registry
from repro.autodiff import sharding
from repro.autodiff.capture import _ReplayNode
from repro.autodiff.conv import avg_pool2d, conv2d, max_pool2d
from repro.autodiff.numeric import numerical_gradient, relative_error
from repro.autodiff.tensor import unbroadcast


class TestCostModel:
    def test_banded_is_shape_and_flop_driven(self):
        floor = sharding.MIN_BAND_FLOPS
        assert not sharding.banded(1, 10 * floor)  # one band = nothing to split
        assert sharding.banded(2, floor)
        assert not sharding.banded(2, floor - 1)
        # Many tiny bands fail the per-band floor even when the total passes.
        assert not sharding.banded(floor, floor)


def _apply(name, arrays, params):
    tensors = [Tensor(array, requires_grad=True) for array in arrays]
    return op_registry.apply(name, tensors, params)


def _shard_parity_cases(rng):
    """(name, arrays, params) triples with ragged batch sizes."""
    return [
        ("conv2d", [rng.normal(size=(7, 3, 8, 8)), rng.normal(size=(4, 3, 3, 3)),
                    rng.normal(size=(4,))], {"stride": 1, "padding": 1}),
        ("conv2d", [rng.normal(size=(5, 2, 6, 6)), rng.normal(size=(3, 2, 3, 3))],
         {"stride": 2, "padding": 0}),
        ("matmul", [rng.normal(size=(200, 16)), rng.normal(size=(16, 8))], {}),
        ("matmul", [rng.normal(size=(7, 12, 6)), rng.normal(size=(6, 9))], {}),
        ("matmul", [rng.normal(size=(5, 8, 4)), rng.normal(size=(5, 4, 6))], {}),
        ("max_pool2d", [rng.normal(size=(7, 4, 8, 8))], {"kernel": 2, "stride": 2}),
        ("avg_pool2d", [rng.normal(size=(7, 4, 8, 8))], {"kernel": 2, "stride": 2}),
    ]


class TestShardCountParity:
    def test_in_place_replay_kernel_matches_eager(self, rng, low_floor):
        """Rerunning a heavy kernel into the recorded buffer reproduces eager."""
        scratch = sharding.scratch_pool().stats
        for name, arrays, params in _shard_parity_cases(rng):
            node = _apply(name, arrays, params)
            call = node._op_call
            expected = node.data.copy()
            buffer = node.data
            node.data[...] = 0
            takes = scratch.allocations + scratch.reuses
            assert call.kernel(out=buffer) is buffer, f"{name}: kernel did not write in place"
            assert buffer.tobytes() == expected.tobytes(), name
            if name != "matmul":
                # conv bands and pool unfolds draw their temporaries from
                # the scratch pool instead of allocating per replay.
                assert scratch.allocations + scratch.reuses > takes, name
            step = _ReplayNode(node)
            assert step.call is call, f"{name}: replay step would rerun the thunk"

    def test_matmul_runs_whole(self, rng, low_floor):
        """matmul never bands, whatever its FLOPs: it is one whole GEMM."""
        for a, b in [
            (rng.normal(size=(200, 64)), rng.normal(size=(64, 16))),
            (rng.normal(size=(7, 12, 6)), rng.normal(size=(6, 9))),
        ]:
            node = _apply("matmul", [a, b], {})
            landed = tuple(t.data for t in node._op_call.tensors)
            assert node.data.tobytes() == np.matmul(*landed).tobytes()


@pytest.mark.parametrize(
    "a_shape,b_shape",
    [
        ((68, 64), (64, 256)),      # the attack grid's ViT projections
        ((68, 256), (256, 64)),
        ((1088, 64), (64, 16)),     # a training-sized row count
        ((3, 68, 64), (64, 32)),    # stacked left operand
        ((2, 1, 5, 6), (3, 6, 4)),  # broadcast batch axes on both sides
    ],
    ids=lambda shape: "x".join(map(str, shape)),
)
class TestWholeMatmul:
    """matmul's forward, in-place replay and gradients are plain GEMMs."""

    def test_forward_replay_and_grads_are_plain_matmul(self, rng, low_floor, a_shape, b_shape):
        node = _apply("matmul", [rng.normal(size=a_shape), rng.normal(size=b_shape)], {})
        a, b = (tensor.data for tensor in node._op_call.tensors)
        assert node.data.tobytes() == np.matmul(a, b).tobytes()
        expected, buffer = node.data.copy(), node.data
        buffer[...] = 0
        assert node._op_call.kernel(out=buffer) is buffer
        assert buffer.tobytes() == expected.tobytes()
        grad = rng.normal(size=node.shape).astype(node.data.dtype)
        node.backward(grad)
        grad_a, grad_b = (np.array(tensor.grad) for tensor in node._op_call.tensors)
        want_a = unbroadcast(np.matmul(grad, np.swapaxes(b, -1, -2)), a.shape)
        want_b = unbroadcast(np.matmul(np.swapaxes(a, -1, -2), grad), b.shape)
        assert grad_a.tobytes() == want_a.tobytes()
        assert grad_b.tobytes() == want_b.tobytes()


def _tower_weights(rng, dtype):
    return {
        "w1": Tensor(rng.normal(size=(8, 3, 3, 3)).astype(dtype) * 0.2,
                     requires_grad=True, is_parameter=True),
        "b1": Tensor(rng.normal(size=(8,)).astype(dtype) * 0.1,
                     requires_grad=True, is_parameter=True),
        "w2": Tensor(rng.normal(size=(8, 8, 3, 3)).astype(dtype) * 0.2,
                     requires_grad=True, is_parameter=True),
        "head": Tensor(rng.normal(size=(128, 5)).astype(dtype) * 0.2,
                       requires_grad=True, is_parameter=True),
    }


def _tower_trace(weights):
    """conv → relu → max_pool → conv → avg_pool → flatten → matmul head."""

    def trace(array: np.ndarray) -> TraceHandles:
        x = Tensor(array, requires_grad=True, is_input=True)
        h = conv2d(x, weights["w1"], weights["b1"], stride=1, padding=1)
        h = F.relu(h)
        h = max_pool2d(h, 2)
        h = conv2d(h, weights["w2"], stride=1, padding=1)
        h = avg_pool2d(h, 2)
        logits = h.reshape(h.shape[0], -1) @ weights["head"]
        return TraceHandles(objective=(logits * logits).sum(), input=x)

    return trace


class TestCapturedTowerParity:
    def test_replayed_tower_grads_match_eager(self, rng, low_floor):
        dtype = get_default_dtype()
        weights = _tower_weights(rng, dtype)
        trace = _tower_trace(weights)
        eager, captured = EagerExecution(), CapturedExecution()
        for trial in range(4):
            batch = rng.normal(size=(6, 3, 16, 16)).astype(dtype)
            expected = eager.run(trace, batch)
            actual = captured.run(trace, batch, key="tower")
            assert expected.objective.data.tobytes() == actual.objective.data.tobytes(), (
                f"trial={trial}"
            )
            assert np.array(expected.input.grad).tobytes() == np.array(actual.input.grad).tobytes(), (
                f"trial={trial}"
            )
        assert captured.stats.replays >= 2

    def test_frozen_parameters_skip_weight_grads_in_sharded_replays(self, rng, low_floor):
        dtype = get_default_dtype()
        weights = _tower_weights(rng, dtype)
        trace = _tower_trace(weights)
        eager, captured = EagerExecution(), CapturedExecution()
        with frozen_parameters(weights.values()):
            for trial in range(4):
                batch = rng.normal(size=(6, 3, 16, 16)).astype(dtype)
                expected = eager.run(trace, batch)
                actual = captured.run(trace, batch, key="tower-frozen")
                assert np.array(expected.input.grad).tobytes() == np.array(actual.input.grad).tobytes(), (
                    f"trial={trial}"
                )
        assert captured.stats.replays >= 2
        for tensor in weights.values():
            assert tensor.grad is None


class TestBandedGradcheck:
    """Numeric gradchecks of the banded kernel paths.

    The registry-wide gradcheck sweep runs under the default FLOP floor,
    where most samples stay whole; these re-run the conv2d and pooling
    samples with the floor at 1 so conv2d's banded forward/backward code
    paths are the ones being differentiated.
    """

    @pytest.fixture(autouse=True)
    def _banded_float64(self, monkeypatch):
        monkeypatch.setattr(sharding, "MIN_BAND_FLOPS", 1)
        previous = get_default_dtype()
        set_default_dtype("float64")
        yield
        set_default_dtype(previous)

    @pytest.mark.parametrize("name", ["conv2d", "max_pool2d", "avg_pool2d"])
    def test_banded_gradcheck(self, name):
        op = op_registry.get(name)
        for sample in op.samples:
            seed = zlib.crc32(f"banded:{name}:{sample.shapes}".encode())
            arrays = [
                np.random.default_rng(seed + i).uniform(sample.low, sample.high, size=shape)
                for i, shape in enumerate(sample.shapes)
            ]
            tensors = [Tensor(array.copy(), requires_grad=True) for array in arrays]
            output = op_registry.apply(op, tensors, dict(sample.params))
            probe = np.random.default_rng(seed + 99).normal(size=output.shape)
            output.backward(probe)
            for position, tensor in enumerate(tensors):
                def scalar(array: np.ndarray) -> float:
                    operands = [Tensor(a.copy()) for a in arrays]
                    operands[position] = Tensor(array)
                    out = op_registry.apply(op, operands, dict(sample.params))
                    return float((out.data * probe).sum())

                numeric = numerical_gradient(scalar, arrays[position].copy())
                error = relative_error(tensor.grad, numeric)
                assert error < 1e-5, f"{name} input {position}: {error:.2e}"
