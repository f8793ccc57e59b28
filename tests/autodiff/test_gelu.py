"""GELU's kernel: accuracy, in-place staging, and bit-identity across paths.

The forward computes the tanh-form cube as ``x * x * x`` and stages every
step through the node's ``out`` buffer; eager execution, unfused replays and
fused elementwise chains all run that one kernel, so their outputs and input
gradients must agree to the last bit under both dtypes.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.autodiff import (
    CapturedExecution,
    CapturedInference,
    EagerExecution,
    InferenceHandles,
    Tensor,
    TraceHandles,
    get_default_dtype,
    no_grad,
    ops,
    set_default_dtype,
    use_buffer_pool,
)
from repro.autodiff import capture
from repro.autodiff import functional as F
from repro.autodiff.capture import _FusedChain, _ReplayNode

DTYPES = (np.float32, np.float64)

#: Exponents NumPy's ``ndarray.__pow__`` maps to a dedicated ufunc (positive,
#: reciprocal, ones_like, sqrt, square); any other literal exponent calls
#: libm ``pow`` per element.
POW_FAST_PATH = {-1.0, 0.0, 0.5, 1.0, 2.0}


@pytest.fixture(params=DTYPES, ids=lambda dtype: np.dtype(dtype).name)
def dtype(request):
    previous = get_default_dtype()
    set_default_dtype(request.param)
    yield np.dtype(request.param)
    set_default_dtype(previous)


def _gelu_grid(dtype) -> np.ndarray:
    """0, both signs, |x| up to 10, plus tiny magnitudes."""
    linear = np.linspace(-10.0, 10.0, 4001)
    tiny = np.geomspace(1e-30, 1.0, 61)
    return np.concatenate([linear, tiny, -tiny, [0.0, -0.0]]).astype(dtype)


def _tanh_form(x: np.ndarray) -> np.ndarray:
    """GELU's tanh-form definition in extended precision."""
    wide = x.astype(np.longdouble)
    scale = np.sqrt(np.longdouble(2.0) / np.longdouble(np.pi))
    return 0.5 * wide * (1.0 + np.tanh(scale * (wide + np.longdouble(0.044715) * wide**3)))


class TestForward:
    def test_matches_tanh_form_within_a_few_ulp(self, dtype):
        x = _gelu_grid(dtype)
        out = ops.get("gelu").forward((x,), {}, {}, None)
        assert out.dtype == dtype
        nonzero = x != 0
        error = np.abs(out.astype(np.longdouble) - _tanh_form(x))
        # Near the negative tail 1 + tanh(u) cancels, so the error is bounded
        # by the input's ULP rather than the (tiny) result's.
        ulps = error[nonzero] / np.spacing(np.abs(x[nonzero])).astype(np.longdouble)
        assert float(ulps.max()) <= 4.0
        np.testing.assert_array_equal(out[~nonzero], 0.0)

    def test_out_buffer_and_saved_t_are_refreshed_in_place(self, dtype):
        rng = np.random.default_rng(0)
        kernel = ops.get("gelu").forward
        first, second = (rng.normal(scale=3.0, size=(64, 64)).astype(dtype) for _ in range(2))
        saved: dict = {}
        out = np.empty_like(first)
        assert kernel((first,), {}, saved, out) is out
        t = saved["t"]
        assert kernel((second,), {}, saved, out) is out
        assert saved["t"] is t
        fresh_saved: dict = {}
        np.testing.assert_array_equal(out, kernel((second,), {}, fresh_saved, None))
        np.testing.assert_array_equal(t, fresh_saved["t"])


def _weights(rng):
    w1 = Tensor(rng.normal(size=(6, 64)), requires_grad=True, is_parameter=True)
    w2 = Tensor(rng.normal(size=(64, 3)), requires_grad=True, is_parameter=True)
    return w1, w2


def _gradient_trace(w1, w2):
    def trace(array):
        x = Tensor(array, requires_grad=True, is_input=True)
        hidden = F.gelu(F.gelu(x @ w1) * 1.5 - 0.5)
        labels = np.zeros(len(array), dtype=np.int64)
        objective = F.cross_entropy(hidden @ w2, labels, reduction="sum")
        return TraceHandles(objective=objective, input=x)

    return trace


def _inference_trace(w1):
    def trace(array):
        with no_grad():
            x = Tensor(array, is_input=True)
            out = F.gelu(F.gelu(x @ w1) * 1.5 - 0.5)
        return InferenceHandles(input=x, output=out)

    return trace


def _assert_same_bytes(expected, actual, trial) -> None:
    expected, actual = np.asarray(expected), np.asarray(actual)
    assert (expected.dtype, expected.shape) == (actual.dtype, actual.shape)
    assert expected.tobytes() == actual.tobytes(), f"trial {trial}"


def _gelu_steps(recording) -> list[type]:
    kinds = []
    for step in recording._plan:
        if isinstance(step, _FusedChain):
            kinds += [_FusedChain for call, _ in step.steps if call.op.name == "gelu"]
        elif step.node.op == "gelu":
            assert step.call is not None, "an unfused gelu replay must write in place"
            kinds.append(_ReplayNode)
    return kinds


class TestPathsAreByteIdentical:
    """Eager, pooled eager, unfused replay and fused chain: same bytes."""

    @pytest.mark.parametrize("fused", [True, False], ids=["fused", "unfused"])
    def test_input_gradients(self, dtype, fused, monkeypatch, rng):
        if not fused:
            monkeypatch.setattr(capture, "_fusable", lambda node: False)
        trace = _gradient_trace(*_weights(rng))
        eager, captured = EagerExecution(), CapturedExecution()
        for trial in range(4):
            batch = rng.normal(scale=3.0, size=(32, 6))
            expected = eager.run(trace, batch)
            with use_buffer_pool():
                pooled = np.array(eager.run(trace, batch).input.grad)
            actual = captured.run(trace, batch, key="gelu")
            assert actual.input.grad.dtype == dtype
            _assert_same_bytes(expected.input.grad, pooled, trial)
            _assert_same_bytes(expected.input.grad, actual.input.grad, trial)
            _assert_same_bytes(expected.objective.data, actual.objective.data, trial)
        assert captured.stats.replays == 2
        recording = next(iter(captured._recordings.values()))
        assert _gelu_steps(recording) == [_FusedChain if fused else _ReplayNode] * 2

    @pytest.mark.parametrize("fused", [True, False], ids=["fused", "unfused"])
    def test_forward_outputs(self, dtype, fused, monkeypatch, rng):
        if not fused:
            monkeypatch.setattr(capture, "_fusable", lambda node: False)
        trace = _inference_trace(_weights(rng)[0])
        captured = CapturedInference()
        for trial in range(4):
            batch = rng.normal(scale=3.0, size=(32, 6))
            expected = np.array(trace(batch).output.data)
            with use_buffer_pool():
                pooled = np.array(trace(batch).output.data)
            actual = captured.run(trace, batch, key="gelu").output.data
            assert actual.dtype == dtype
            _assert_same_bytes(expected, pooled, trial)
            _assert_same_bytes(expected, actual, trial)
        recording = next(iter(captured._recordings.values()))
        assert recording.replays == 2
        assert _gelu_steps(recording) == [_FusedChain if fused else _ReplayNode] * 2


def _literal_exponent(node: ast.AST) -> float | None:
    sign = 1.0
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        sign = -1.0 if isinstance(node.op, ast.USub) else 1.0
        node = node.operand
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return sign * float(node.value)
    return None


def test_ops_kernels_use_no_slow_literal_power():
    """A literal exponent outside NumPy's fast path calls libm ``pow``."""
    source = Path(ops.__file__).read_text()
    offenders = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            exponent = node.right
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow):
            exponent = node.value
        else:
            continue
        value = _literal_exponent(exponent)
        if value is not None and value not in POW_FAST_PATH:
            offenders.append(f"line {node.lineno}: ** {value:g}")
    assert not offenders, "spell these powers as products: " + ", ".join(offenders)
