"""Canonical banding of heavyweight kernels and tree-reduced gradients.

Every kernel in this module's scope runs on the calling thread.  Banding is
kept because it fixes the result bytes and because it is faster serially:
a conv2d whose im2col stays one sample at a time stays in cache.

* **Canonical sample banding.**  The container's BLAS is *not* row-stable:
  ``(a @ b)[i:j]`` and ``a[i:j] @ b`` differ in the last bits.  Every heavy
  kernel call whose shapes pass :func:`banded` therefore computes its result
  in fixed *canonical bands* (one sample of the batch axis for conv/pool,
  :data:`MATMUL_BAND_ROWS` rows for 2-D matmul), each band its own kernel
  call — in eager mode and in replays alike.  The banding decision is a pure
  function of shapes and FLOPs, which is what keeps eager and replayed
  values equal.

* **Tree-reduced cross-batch gradients.**  Reductions *across* the batch
  (conv2d ``grad_weight``/``grad_bias``, matmul ``grad_b``) cannot write
  disjoint output slices per band — every band contributes to every output
  element.  :func:`reduce_bands` computes one partial per canonical band
  into pooled scratch slabs and combines them with :func:`tree_reduce`, a
  fixed-shape binary tree whose combine order is a pure function of the
  band count alone.

* **Spatial banding for batch 1.**  When the batch axis is a single sample
  (the serving gateway's single-request path) the heavy 4-D kernels band
  over groups of :data:`SPATIAL_BAND_ROWS` *output rows* instead, with
  halo-aware input slicing (``im2col_into``'s row window).  The gate is the
  same shapes/FLOPs rule as batch banding, so eager and replayed values
  stay equal.
"""

from __future__ import annotations

import time

import numpy as np

from repro.autodiff import profiler as _profiler
from repro.autodiff.pool import BufferPool

__all__ = [
    "MATMUL_BAND_ROWS",
    "MIN_BAND_FLOPS",
    "SPATIAL_BAND_ROWS",
    "banded",
    "reduce_bands",
    "scratch_pool",
    "tree_reduce",
]

#: Canonical band height for 2-D matmuls.  Per-*row* bands would degrade the
#: GEMM into thousands of GEMV calls; 64-row bands keep each call a real
#: (cache-blocked) GEMM.
MATMUL_BAND_ROWS = 64

#: Canonical band height (in *output rows*) for spatially banded 4-D kernels
#: when the batch axis is a single sample.  Small enough that test-sized
#: feature maps still split into several ragged bands.
SPATIAL_BAND_ROWS = 4

#: FLOP floor before a heavy kernel switches to canonical banding.  Tests
#: lower it with ``monkeypatch.setattr`` so small fixtures band; within one
#: process it must stay fixed between recording and replay, since banding
#: changes last-bit values by design.
MIN_BAND_FLOPS = 2_000_000


def banded(units: int, flops: int) -> bool:
    """Whether a heavy kernel call computes in canonical bands.

    A pure function of the call's shapes (band count) and FLOPs: banding
    changes values in the last bits, so the decision must not depend on
    anything that varies between the eager pass that records a graph and
    the replays that re-execute it.
    """
    if units < 2:
        return False
    return flops >= MIN_BAND_FLOPS and flops // units >= max(MIN_BAND_FLOPS // 32, 1)


def tree_reduce(slabs: list, out) -> None:
    """Sum ``slabs`` into ``out`` through a fixed-shape binary tree.

    The combine order is a pure function of ``len(slabs)``: pairs merge in
    index order, odd tails carry to the next level, and the final pair lands
    in ``out``.  Floating point addition is not associative, so a fixed tree
    is what makes the reduced gradient reproducible byte for byte.  Leaf
    slabs are consumed: interior sums overwrite them in place.
    """
    if len(slabs) == 1:
        np.copyto(out, slabs[0])
        return
    active = list(slabs)
    while len(active) > 2:
        merged = []
        for index in range(0, len(active) - 1, 2):
            np.add(active[index], active[index + 1], out=active[index])
            merged.append(active[index])
        if len(active) % 2:
            merged.append(active[-1])
        active = merged
    np.add(active[0], active[1], out=out)


#: Process-wide scratch pool for per-band temporaries (im2col padding, band
#: result matrices, reduce partials).  Deliberately *not* the thread-local
#: tensor pool: scratch lifetimes are a take/release pair inside one kernel
#: call, not an arena generation.
_SCRATCH = BufferPool()


def scratch_pool() -> BufferPool:
    """The process-wide scratch pool banded kernels draw temporaries from."""
    return _SCRATCH


def reduce_bands(units: int, partial_fn, out, name: str | None = None) -> None:
    """Tree-reduce per-band partials into ``out`` (a cross-batch gradient).

    ``partial_fn(band, slab)`` computes canonical band ``band``'s partial
    into ``slab`` (shaped/typed like ``out``, drawn from the scratch pool);
    :func:`tree_reduce` then combines them, so the summation order — hence
    the bytes of the result — is fixed by ``units`` alone.

    With ``name`` set and a profiler active, the whole reduce lands under a
    ``<name>_treereduce`` row whose meta records the pooled partial bytes.
    """
    profiler = _profiler.active_profiler() if name is not None else None
    began = time.perf_counter() if profiler is not None else 0.0
    pool = scratch_pool()
    slabs = [pool.take(out.shape, out.dtype) for _ in range(units)]
    for band, slab in enumerate(slabs):
        partial_fn(band, slab)
    tree_reduce(slabs, out)
    for slab in slabs:
        pool.release(slab)
    if profiler is not None:
        profiler.record(
            f"{name}_treereduce",
            time.perf_counter() - began,
            0,
            0,
            meta={"partial_bytes": units * out.nbytes},
        )
