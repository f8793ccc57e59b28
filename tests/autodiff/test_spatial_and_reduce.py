"""Bit-identity tests for conv2d sample bands, batch-1 kernels and tree_reduce.

Three invariants under test, all stronger than "numerically close":

* **Sample bands share the whole unfold.**  A banded conv2d unfolds each
  sample into its own rows of the saved ``col`` matrix; im2col is pure
  copies, so the assembled matrix is byte-identical to the whole-batch
  unfold, and the weight/bias gradients (one whole GEMM and one whole sum
  over ``col``) equal the unbanded kernel's byte for byte.

* **Batch-1 kernels run whole.**  A single sample has no batch axis to band
  over, so batch-1 conv2d and pooling run their whole kernels; a replay
  that reruns them in place reproduces the eager bytes.

* **Fixed-order tree reduce.**  :func:`repro.autodiff.sharding.tree_reduce`
  combines slabs in an order fixed by the slab count, so its bytes are
  identical from one call to the next.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.autodiff import (
    CapturedExecution,
    EagerExecution,
    Tensor,
    TraceHandles,
    get_default_dtype,
    profile_ops,
)
from repro.autodiff import functional as F
from repro.autodiff import ops as op_registry
from repro.autodiff import sharding
from repro.autodiff.conv import avg_pool2d, conv2d, im2col, im2col_into, max_pool2d
from repro.autodiff.pool import BufferPool


def _tower_weights(rng, dtype, head_features=128):
    return {
        "w1": Tensor(rng.normal(size=(8, 3, 3, 3)).astype(dtype) * 0.2,
                     requires_grad=True, is_parameter=True),
        "b1": Tensor(rng.normal(size=(8,)).astype(dtype) * 0.1,
                     requires_grad=True, is_parameter=True),
        "w2": Tensor(rng.normal(size=(8, 8, 3, 3)).astype(dtype) * 0.2,
                     requires_grad=True, is_parameter=True),
        "head": Tensor(rng.normal(size=(head_features, 5)).astype(dtype) * 0.2,
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


def _sha(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


class TestTreeReduce:
    def test_single_slab_copies(self, rng):
        slab = rng.normal(size=(3, 4))
        out = np.empty_like(slab)
        sharding.tree_reduce([slab.copy()], out)
        assert out.tobytes() == slab.tobytes()

    @pytest.mark.parametrize("count", [2, 3, 5, 7, 8, 13])
    def test_sums_are_close_and_deterministic(self, rng, count):
        slabs = [rng.normal(size=(6, 5)) for _ in range(count)]
        out = np.empty((6, 5))
        sharding.tree_reduce([s.copy() for s in slabs], out)
        np.testing.assert_allclose(out, np.sum(slabs, axis=0), rtol=1e-9, atol=1e-12)
        again = np.empty((6, 5))
        sharding.tree_reduce([s.copy() for s in slabs], again)
        assert out.tobytes() == again.tobytes()

    def test_combine_order_is_a_function_of_count_alone(self, rng):
        """Filling leaves in any order (any worker schedule) changes nothing."""
        slabs = [rng.normal(size=(4, 4)) for _ in range(5)]
        expected = np.empty((4, 4))
        sharding.tree_reduce([s.copy() for s in slabs], expected)
        # Simulate out-of-order leaf completion: the slab *list* is always
        # indexed by band, so arrival order cannot matter — but prove the
        # tree itself differs from a naive left fold only in bits, not value.
        fold = slabs[0].copy()
        for slab in slabs[1:]:
            fold = fold + slab
        np.testing.assert_allclose(expected, fold, rtol=1e-9, atol=1e-12)


class TestBandedGradParity:
    """Banded conv weight/bias gradients equal the whole kernel's bytes."""

    def _grads(self, arrays, params):
        tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        node = op_registry.apply("conv2d", tensors, dict(params))
        node.backward(np.random.default_rng(7).normal(size=node.shape))
        return [np.array(t.grad) for t in tensors]

    def test_weight_and_bias_grads_equal_whole(self, rng, monkeypatch):
        cases = [
            ((6, 3, 8, 8), (4, 3, 3, 3), {"stride": 1, "padding": 1}),
            ((5, 2, 9, 7), (3, 2, 3, 5), {"stride": 2, "padding": 2}),
        ]
        for x_shape, w_shape, params in cases:
            arrays = [rng.normal(size=x_shape), rng.normal(size=w_shape),
                      rng.normal(size=(w_shape[0],))]
            whole = self._grads(arrays, params)
            monkeypatch.setattr(sharding, "MIN_BAND_FLOPS", 1)
            operands = [Tensor(a).data for a in arrays]
            assert op_registry._conv2d_band_count(operands, params) == x_shape[0]
            banded = self._grads(arrays, params)
            monkeypatch.undo()
            assert _sha(banded[1]) == _sha(whole[1]), f"grad_weight {x_shape}"
            assert _sha(banded[2]) == _sha(whole[2]), f"grad_bias {x_shape}"
            tol = 1e4 * np.finfo(banded[0].dtype).eps
            np.testing.assert_allclose(banded[0], whole[0], rtol=tol, atol=tol,
                                       err_msg=f"grad_x {x_shape}")


#: (h, w, kh, kw, stride, padding) unfold geometries.
_GEOMETRIES = [
    (11, 11, 3, 3, 1, 1),
    (16, 16, 3, 3, 1, 0),
    (15, 15, 5, 5, 2, 2),   # stride>1 with a wide kernel
    (9, 13, 3, 5, 2, 1),    # asymmetric kernel and image
    (8, 8, 2, 2, 2, 0),     # pooling geometry
    (7, 7, 3, 3, 1, 3),     # padding wider than the kernel overlap
]


@pytest.mark.parametrize("h,w,kh,kw,stride,padding", _GEOMETRIES)
class TestBandUnfold:
    """Per-sample unfolds tile back into the whole-batch im2col byte for byte."""

    def test_unfold_matches_whole(self, rng, h, w, kh, kw, stride, padding):
        images = rng.normal(size=(3, 2, h, w))
        full, out_h, out_w = im2col(images, kh, kw, stride, padding)
        assembled = np.empty(full.shape, full.dtype)
        rows = out_h * out_w
        for sample in range(images.shape[0]):
            band = assembled[sample * rows : (sample + 1) * rows]
            im2col_into(images[sample : sample + 1], kh, kw, stride, padding, band)
        assert assembled.tobytes() == full.tobytes()


@pytest.mark.parametrize("h,w,kh,kw,stride,padding", _GEOMETRIES)
class TestBandedConvForward:
    """A banded conv2d saves the whole im2col and computes the whole output."""

    def test_saved_col_and_output_match_whole(self, rng, monkeypatch, h, w, kh, kw,
                                              stride, padding):
        arrays = [rng.normal(size=(3, 2, h, w)), rng.normal(size=(4, 2, kh, kw)),
                  rng.normal(size=(4,))]
        params = {"stride": stride, "padding": padding}
        whole = op_registry.apply("conv2d", [Tensor(a) for a in arrays], dict(params))
        monkeypatch.setattr(sharding, "MIN_BAND_FLOPS", 1)
        banded = op_registry.apply("conv2d", [Tensor(a) for a in arrays], dict(params))
        call = banded._op_call
        assert op_registry._conv2d_band_count(call.inputs, call.params) == 3
        full, _, _ = im2col(call.inputs[0], kh, kw, stride, padding)
        assert call.saved["col"].tobytes() == full.tobytes()
        assert whole._op_call.saved["col"].tobytes() == full.tobytes()
        tol = 1e4 * np.finfo(banded.data.dtype).eps
        np.testing.assert_allclose(banded.data, whole.data, rtol=tol, atol=tol)


class TestSampleBanding:
    """Batches of two or more band per sample; batch-1 kernels run whole."""

    def _batch1_cases(self, rng):
        return [
            ("conv2d", [rng.normal(size=(1, 3, 11, 11)), rng.normal(size=(4, 3, 3, 3)),
                        rng.normal(size=(4,))], {"stride": 1, "padding": 1}),
            ("conv2d", [rng.normal(size=(1, 2, 15, 15)), rng.normal(size=(3, 2, 5, 5))],
             {"stride": 2, "padding": 2}),
            ("max_pool2d", [rng.normal(size=(1, 4, 18, 18))], {"kernel": 2, "stride": 2}),
            ("avg_pool2d", [rng.normal(size=(1, 4, 18, 18))], {"kernel": 2, "stride": 2}),
        ]

    def test_batch1_in_place_replay_matches_eager(self, rng, low_floor):
        for name, arrays, params in self._batch1_cases(rng):
            tensors = [Tensor(a, requires_grad=True) for a in arrays]
            node = op_registry.apply(name, tensors, dict(params))
            call = node._op_call
            if name == "conv2d":
                assert op_registry._conv2d_band_count(call.inputs, call.params) == 0, name
            expected = node.data.copy()
            node.data[...] = 0
            assert call.kernel(out=node.data) is node.data, name
            assert node.data.tobytes() == expected.tobytes(), name

    def test_batch_of_two_still_bands_on_samples(self, rng, low_floor):
        """n >= 2 keeps the batch axis: units == n."""
        arrays = [rng.normal(size=(2, 3, 16, 16)), rng.normal(size=(4, 3, 3, 3))]
        tensors = [Tensor(a) for a in arrays]
        node = op_registry.apply("conv2d", tensors, {"stride": 1, "padding": 1})
        call = node._op_call
        assert op_registry._conv2d_band_count(call.inputs, call.params) == 2

    def test_banded_conv_profiles_as_one_conv2d_row(self, rng, low_floor):
        """Bands and their gradients add no profiler rows of their own."""
        arrays = [rng.normal(size=(3, 3, 8, 8)), rng.normal(size=(4, 3, 3, 3)),
                  rng.normal(size=(4,))]
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        with profile_ops() as profiler:
            node = op_registry.apply("conv2d", tensors, {"stride": 1, "padding": 1})
            node.backward(np.ones(node.shape, dtype=node.data.dtype))
        assert set(profiler.stats) == {"conv2d"}
        stat = profiler.stats["conv2d"]
        assert stat.calls == 1
        assert stat.flops == op_registry._conv2d_flops(arrays[0].shape, arrays[1].shape, 1, 1)


class TestBatch1CapturedTower:
    def test_batch1_replay_matches_eager_sha256(self, rng, low_floor):
        dtype = get_default_dtype()
        weights = _tower_weights(rng, dtype)
        trace = _tower_trace(weights)
        eager, captured = EagerExecution(), CapturedExecution()
        for trial in range(3):
            batch = rng.normal(size=(1, 3, 16, 16)).astype(dtype)
            expected = eager.run(trace, batch)
            actual = captured.run(trace, batch, key="tower-b1")
            assert _sha(expected.objective.data) == _sha(actual.objective.data), f"trial={trial}"
            assert _sha(np.array(expected.input.grad)) == _sha(np.array(actual.input.grad)), (
                f"trial={trial}"
            )
        assert captured.stats.replays >= 1


class TestScratchPoolWarmReplay:
    def test_warm_reduce_replays_allocate_zero_new_slabs(self, rng, low_floor):
        """After one cold replay the scratch pool serves every later one."""
        dtype = get_default_dtype()
        weights = _tower_weights(rng, dtype)
        trace = _tower_trace(weights)
        captured = CapturedExecution()
        batch = rng.normal(size=(6, 3, 16, 16)).astype(dtype)
        pool = sharding.scratch_pool()
        pool.clear()
        # Eager warmup + recording pass + first replay warm the pool.
        for _ in range(3):
            captured.run(trace, batch, key="tower-warm")
        assert captured.stats.replays >= 1
        warm = pool.stats.allocations
        for _ in range(3):
            captured.run(trace, batch, key="tower-warm")
        assert pool.stats.allocations == warm, "warm replays must not allocate slabs"
        assert pool.stats.reuses > 0

    def test_buffer_pool_clear_drops_everything(self):
        pool = BufferPool()
        kept = pool.acquire((4, 4), np.float64)
        scratch = pool.take((2, 8), np.float32)
        pool.release(scratch)
        assert len(pool) == 2
        allocations = pool.stats.allocations
        assert pool.clear() == 2
        assert len(pool) == 0
        assert pool.stats.allocations == allocations  # cumulative, untouched
        # A cleared pool allocates fresh on the next request.
        fresh = pool.take((2, 8), np.float32)
        assert fresh is not scratch
        assert kept.shape == (4, 4)  # caller's reference stays valid
