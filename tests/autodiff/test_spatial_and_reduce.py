"""Bit-identity tests for tree-reduced gradients and batch-1 spatial banding.

Two invariants under test, both stronger than "numerically close":

* **Tree-reduced cross-batch gradients** — banded backward kernels compute
  per-band partial gradients into pooled slabs and combine them through
  :func:`repro.autodiff.sharding.tree_reduce`, whose combine order is a pure
  function of the band count.  The reduced bytes must therefore be identical
  from one backward pass to the next, in eager mode and in replays.

* **Spatial (H×W) banding for batch 1** — with a single sample there is no
  batch axis to shard, so conv2d and the pooling ops band over output rows
  instead (:data:`SPATIAL_BAND_ROWS` rows per band, halo-aware input
  windows).  im2col is pure copies, so the assembled unfold is
  byte-identical to the whole-image one, and a replay that reruns the banded
  kernel in place reproduces the eager bytes.
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


@pytest.fixture
def low_floor(monkeypatch):
    """Band every heavy kernel call the fixtures make, however small."""
    monkeypatch.setattr(sharding, "MIN_BAND_FLOPS", 1)


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


class TestReduceBands:
    """reduce_bands fills one pooled slab per band and tree-combines them."""

    def test_profiler_row_records_partial_bytes(self, rng):
        units = 6
        partials = [rng.normal(size=(8, 6)) for _ in range(units)]

        def fill(band: int, slab: np.ndarray) -> None:
            np.copyto(slab, partials[band])

        out = np.empty((8, 6))
        with profile_ops() as profiler:
            sharding.reduce_bands(units, fill, out, name="demo")
        expected = np.empty((8, 6))
        sharding.tree_reduce([p.copy() for p in partials], expected)
        assert out.tobytes() == expected.tobytes()
        row = profiler.as_dict()["demo_treereduce"]
        assert row["calls"] == 1
        assert row["meta"]["partial_bytes"] == units * out.nbytes


class TestGradTreeReduceParity:
    """Tree-reduced gradients are reproducible and agree with the whole kernel."""

    def _grad_cases(self, rng):
        return [
            ("conv2d", [rng.normal(size=(6, 3, 8, 8)), rng.normal(size=(4, 3, 3, 3)),
                        rng.normal(size=(4,))], {"stride": 1, "padding": 1}),
            ("matmul", [rng.normal(size=(256, 12)), rng.normal(size=(12, 8))], {}),
            ("matmul", [rng.normal(size=(6, 20, 5)), rng.normal(size=(5, 7))], {}),
        ]

    def _grads(self, name, arrays, params):
        tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        node = op_registry.apply(name, tensors, dict(params))
        node.backward(np.random.default_rng(7).normal(size=node.shape))
        return [np.array(t.grad) for t in tensors]

    def test_banded_grads_are_reproducible_and_close_to_whole(self, rng, monkeypatch):
        for name, arrays, params in self._grad_cases(rng):
            whole = self._grads(name, arrays, params)
            monkeypatch.setattr(sharding, "MIN_BAND_FLOPS", 1)
            banded = self._grads(name, arrays, params)
            again = self._grads(name, arrays, params)
            monkeypatch.undo()
            assert [_sha(g) for g in banded] == [_sha(g) for g in again], name
            tol = 1e4 * np.finfo(banded[0].dtype).eps
            for b, w in zip(banded, whole):
                np.testing.assert_allclose(b, w, rtol=tol, atol=tol, err_msg=name)


@pytest.mark.parametrize(
    "h,w,kh,kw,stride,padding",
    [
        (11, 11, 3, 3, 1, 1),   # ragged: out_h=11 -> bands of 4, 4, 3
        (16, 16, 3, 3, 1, 0),
        (15, 15, 5, 5, 2, 2),   # stride>1 with a wide halo
        (9, 13, 3, 5, 2, 1),    # asymmetric kernel, ragged both ways
        (8, 8, 2, 2, 2, 0),     # pooling geometry
        (7, 7, 3, 3, 1, 3),     # padding wider than the band overlap
    ],
)
class TestSpatialWindowHalo:
    """Row-window unfolds carry their halo and tile back byte-identically."""

    def test_banded_unfold_matches_whole(self, rng, h, w, kh, kw, stride, padding):
        images = rng.normal(size=(1, 3, h, w))
        full, out_h, out_w = im2col(images, kh, kw, stride, padding)
        assembled = np.empty(full.shape, full.dtype)
        rows_per_band = sharding.SPATIAL_BAND_ROWS
        bands = -(-out_h // rows_per_band)
        for band in range(bands):
            r0 = band * rows_per_band
            r1 = min(r0 + rows_per_band, out_h)
            window = assembled[r0 * out_w : r1 * out_w]
            im2col_into(images, kh, kw, stride, padding, window, row_start=r0, row_stop=r1)
        assert assembled.tobytes() == full.tobytes()


class TestSpatialForwardShards:
    """Batch-1 kernels banded over output rows replay in place, exactly."""

    def _spatial_cases(self, rng):
        return [
            ("conv2d", [rng.normal(size=(1, 3, 11, 11)), rng.normal(size=(4, 3, 3, 3)),
                        rng.normal(size=(4,))], {"stride": 1, "padding": 1}),
            ("conv2d", [rng.normal(size=(1, 2, 15, 15)), rng.normal(size=(3, 2, 5, 5))],
             {"stride": 2, "padding": 2}),
            ("max_pool2d", [rng.normal(size=(1, 4, 18, 18))], {"kernel": 2, "stride": 2}),
            ("avg_pool2d", [rng.normal(size=(1, 4, 18, 18))], {"kernel": 2, "stride": 2}),
        ]

    def test_spatial_in_place_replay_matches_eager(self, rng, low_floor):
        for name, arrays, params in self._spatial_cases(rng):
            tensors = [Tensor(a, requires_grad=True) for a in arrays]
            node = op_registry.apply(name, tensors, dict(params))
            call = node._op_call
            if name == "conv2d":
                units = op_registry._conv2d_band_count(call.inputs, call.params)
                assert units >= 2, f"{name}: fixture too small for spatial bands"
            expected = node.data.copy()
            node.data[...] = 0
            assert call.kernel(out=node.data) is node.data, name
            assert node.data.tobytes() == expected.tobytes(), name

    def test_batch_of_two_still_bands_on_samples(self, rng, low_floor):
        """n >= 2 keeps the batch axis: units == n, not spatial bands."""
        arrays = [rng.normal(size=(2, 3, 16, 16)), rng.normal(size=(4, 3, 3, 3))]
        tensors = [Tensor(a) for a in arrays]
        node = op_registry.apply("conv2d", tensors, {"stride": 1, "padding": 1})
        call = node._op_call
        assert op_registry._conv2d_band_count(call.inputs, call.params) == 2


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
