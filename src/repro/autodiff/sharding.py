"""Canonical sample banding of conv2d, and a fixed-order tree reduce.

Every kernel in this module's scope runs on the calling thread.

* **Canonical sample banding.**  A conv2d call whose shapes pass
  :func:`banded` computes its im2col-GEMM one sample at a time, each sample
  its own kernel call — in eager mode and in replays alike.  Banding is kept
  because it is faster serially: a per-sample im2col stays in cache.  The
  container's BLAS is *not* row-stable (``(a @ b)[i:j]`` and ``a[i:j] @ b``
  differ in the last bits), so the banding decision is a pure function of
  shapes and FLOPs, which is what keeps eager and replayed values equal.
  Every other heavy kernel (matmul, batch-1 conv, cross-batch weight and
  bias gradients) runs whole.

* **Fixed-order tree reduce.**  :func:`tree_reduce` sums a list of slabs
  through a fixed-shape binary tree whose combine order is a pure function
  of the slab count alone; the streaming FedAvg aggregator uses it so its
  result bytes do not depend on client arrival order.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff.pool import BufferPool

__all__ = [
    "MIN_BAND_FLOPS",
    "banded",
    "scratch_pool",
    "tree_reduce",
]

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
    is what makes the reduced sum reproducible byte for byte.  Leaf
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
#: result matrices, aggregation slabs).  Deliberately *not* the thread-local
#: tensor pool: scratch lifetimes are a take/release pair inside one kernel
#: call, not an arena generation.
_SCRATCH = BufferPool()


def scratch_pool() -> BufferPool:
    """The process-wide scratch pool banded kernels draw temporaries from."""
    return _SCRATCH
