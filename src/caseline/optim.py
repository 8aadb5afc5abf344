"""Decoupled-weight-decay Adam over named parameter arrays.

Parameters are updated in place; moment buffers live in the optimizer.
The per-element update is kernels.adamw_step.

A gradient is either a dense array shaped like its parameter or a row
gradient: step's rows argument names sorted unique row ids for the
parameter, and its gradient holds one value row per id, every other
row being zero.  The optimizer keeps, per parameter, a mask of the rows
that have ever had a gradient.  A row never touched has m = v = 0 and
a zero gradient, so as EPS > 0 the dense update reduces exactly to
the decay p -= lr * (0.0 + weight_decay * p).

Moments are stored in one of two ways.  Until half of a parameter's
rows have had a gradient, only the touched rows' moments are kept: in
row order, in the leading rows of two buffers of ceil(rows / 2) rows
allocated at the parameter's first row step.  A step that touches new
rows moves the stored rows to their new positions and starts the new
ones at zero; it then runs the kernel on the gathered touched rows of
the parameter and on the leading buffer rows in place, applies the
decay to all rows in cache-sized blocks, and scatters the touched rows
back.  Memory and cost follow the touched rows plus one streaming pass
over the parameter.

At the switch (half the rows touched, or any dense gradient) the
stored rows are scattered into full zero arrays and the buffers are
dropped.  From then on every step is the dense kernel; a row gradient
is scattered into one reused dense gradient buffer, whose written rows
are cleared afterwards.  A parameter whose first gradient is dense gets
full moments at once.

Both ways produce the same bits as the dense update fed the scattered
gradient, so the switch only picks the cheaper one.

On two usable CPUs the calling thread and one pool thread share the
blocks of the update and the decay of a parameter of at least _SPLIT
elements, and a step returns once both are done; each element's
arithmetic is unchanged, so the bits do not depend on the number of
workers or on which thread ran a block.
"""

from __future__ import annotations

import functools
import os
import threading

import numpy as np

from . import kernels

# Elements per block of the update and the decay, which write into
# scratch that the calling thread allocates once, so no step and no
# pool thread allocates.  Per dense step on 1M elements
# (Xeon, 2 vCPUs, 2 MiB L2 per core): 10.9-12.5 ms on one thread at 16K
# to 64K; on two threads 9.1-10.0 ms at 16K (short ufunc calls spend it
# handing over the interpreter lock), 7.3-8.3 ms at 32K, 6.0-7.0 ms at
# 64K, which raised ablate-desk's peak RSS by 2 MB for no end-to-end
# gain.
_BLOCK = 1 << 15
# Elements from which a parameter is updated on two threads: at 2^18 a
# step took 2.3 ms on one thread and 1.7 ms on two.
_SPLIT = 1 << 18
# Adam's moment decay rates and its denominator guard.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def _usable_cpus() -> int:
    """CPUs this process may run on; every CPU where the platform has
    no affinity call (macOS)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


_WORKERS = min(2, _usable_cpus())


# The scratch pairs of the threads that step optimizers.
_LOCAL = threading.local()


def _scratch(count: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The calling thread's first ``count`` scratch pairs, one per
    thread that runs blocks for it; made by it on first use and reused
    by every later step of every optimizer."""
    pairs = _LOCAL.__dict__.setdefault("pairs", [])
    while len(pairs) < count:
        pairs.append((np.empty(_BLOCK), np.empty(_BLOCK)))
    return pairs


@functools.cache
def _pool():
    """The one thread that shares the blocks of large parameters,
    started at the first such step."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(1, thread_name_prefix="caseline-adamw")


def _blocks(n: int, run) -> None:
    """run(start, end, scratch) on each block of the elements [0, n).
    With two workers and n >= _SPLIT, the calling thread and the pool
    thread take blocks in turn from one counter, so blocks a busy pool
    thread cannot reach are left to the caller.  An error in either
    thread is raised once the other has stopped, so nothing writes
    after the step returns."""
    if n < _SPLIT or _WORKERS == 1:
        scratch = _scratch(1)[0]
        for start in range(0, n, _BLOCK):
            run(start, min(start + _BLOCK, n), scratch)
        return
    mine, theirs = _scratch(2)
    starts, lock = iter(range(0, n, _BLOCK)), threading.Lock()

    def take(scratch):
        while True:
            with lock:
                start = next(starts, n)
            if start == n:
                return
            run(start, min(start + _BLOCK, n), scratch)

    # numpy keeps its floating-point error handling per thread
    second = _pool().submit(np.errstate(**np.geterr())(take), theirs)
    try:
        take(mine)
    finally:
        # a pool thread that has not started would find no block
        if not second.cancel():
            second.exception()  # waits for the pool thread
    if not second.cancelled():
        second.result()


class AdamW:
    def __init__(self, params: dict[str, np.ndarray], lr: float,
                 weight_decay: float = 0.01):
        for name, arr in params.items():
            if arr.dtype != np.float64 or not arr.flags["C_CONTIGUOUS"] \
                    or arr.ndim == 0:
                raise ValueError(
                    f"parameter {name!r} must be contiguous float64 "
                    "with at least one dimension")
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        # full-shape (m, v) per parameter, from its switch on
        self._full: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        # before the switch: two buffers of ceil(rows / 2) rows whose
        # leading rows hold the touched rows' (m, v) in row order
        self._stored: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.t = 0
        self._touched = {k: np.zeros(len(p), dtype=bool)
                         for k, p in params.items()}
        self._dense_grad: dict[str, np.ndarray] = {}

    def moments(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """The full-shape (m, v) of a parameter: the optimizer's own
        arrays after its switch, new arrays built from the stored rows
        before it."""
        full = self._full.get(name)
        if full is not None:
            return full
        p = self.params[name]
        m, v = np.zeros(p.shape), np.zeros(p.shape)
        stored = self._stored.get(name)
        if stored is not None:
            live = np.flatnonzero(self._touched[name])
            m[live], v[live] = stored[0][:len(live)], stored[1][:len(live)]
        return m, v

    def step(self, grads: dict[str, np.ndarray],
             rows: dict[str, np.ndarray] | None = None) -> None:
        """Apply one update from the given gradients (same keys as
        params).  A gradient is dense unless rows names its parameter:
        then it holds one value row per id in rows[name] (int64,
        strictly increasing, < len(param)) and is zero elsewhere."""
        rows = rows or {}
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for name, p in self.params.items():
            grad = grads[name]
            if name in rows:
                self._row_step(name, rows[name], grad, bc1, bc2)
            else:
                grad = np.ascontiguousarray(grad)
                if grad.size != p.size:
                    raise ValueError(
                        f"gradient for {name!r} has {grad.size} elements, "
                        f"parameter has {p.size}")
                m, v = self._switch(name)
                self._touched[name].fill(True)
                self._kernel(p, grad, m, v, bc1, bc2)

    def _switch(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """The parameter's full moments, made from the stored rows the
        first time."""
        full = self._full.get(name)
        if full is None:
            full = self._full[name] = self.moments(name)
            self._stored.pop(name, None)
        return full

    def _kernel(self, p, grad, m, v, bc1, bc2) -> None:
        """The dense update, block by block.  The kernel is elementwise,
        so blocks give the same bits as one call."""
        p, grad, m, v = p.ravel(), grad.ravel(), m.ravel(), v.ravel()

        def run(start, end, scratch):
            kernels.adamw_step(
                p[start:end], grad[start:end], m[start:end], v[start:end],
                self.lr, BETA1, BETA2, EPS, self.weight_decay, bc1, bc2,
                scratch)

        _blocks(p.size, run)

    def _row_step(self, name: str, rows: np.ndarray, values: np.ndarray,
                  bc1: float, bc2: float) -> None:
        p = self.params[name]
        rows = np.asarray(rows, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (len(rows),) + p.shape[1:]:
            raise ValueError(
                f"row gradient for {name!r}: values {values.shape} do not "
                f"fit {len(rows)} rows of {p.shape}")
        if len(rows) and (rows[0] < 0 or rows[-1] >= len(p)
                          or np.any(np.diff(rows) <= 0)):
            raise ValueError(f"row gradient for {name!r}: rows must be "
                             f"strictly increasing within [0, {len(p)})")
        touched = self._touched[name]
        fresh = rows[~touched[rows]]
        if name in self._full or 2 * (
                np.count_nonzero(touched) + len(fresh)) >= len(touched):
            # before the new rows are marked: _switch finds the stored
            # rows through the mask
            m, v = self._switch(name)
            touched[fresh] = True
            dense = self._dense_grad.get(name)
            if dense is None:
                dense = self._dense_grad[name] = np.zeros(p.shape)
            dense[rows] = values
            self._kernel(p, dense, m, v, bc1, bc2)
            dense[rows] = 0.0
            return
        stored = self._stored.get(name)
        if stored is None:
            half = ((len(p) + 1) // 2,) + p.shape[1:]
            stored = self._stored[name] = (np.zeros(half), np.zeros(half))
        touched[fresh] = True
        live = np.flatnonzero(touched)
        m, v = (buf[:len(live)] for buf in stored)
        if len(fresh):
            # the stored rows from the first new one on move down past
            # the new rows, which start at zero
            at = np.searchsorted(live, fresh)
            kept = np.ones(len(live) - at[0], dtype=bool)
            kept[at - at[0]] = False
            for buf in (m, v):
                buf[at[0]:][kept] = buf[at[0]:len(live) - len(fresh)].copy()
                buf[at] = 0.0
        g = np.zeros((len(live),) + p.shape[1:])
        g[np.searchsorted(live, rows)] = values
        p_live = p[live]
        self._kernel(p_live, g, m, v, bc1, bc2)
        self._decay(p)
        p[live] = p_live

    def _decay(self, p: np.ndarray) -> None:
        """p -= lr * (0.0 + weight_decay * p), block by block in the
        update's scratch: the dense update of a row with m = v = 0 and
        zero gradient.  The 0.0 term is kept because it turns a -0.0
        product into +0.0."""
        flat = p.reshape(-1)

        def run(start, end, scratch):
            block, tmp = flat[start:end], scratch[0][:end - start]
            np.multiply(block, self.weight_decay, out=tmp)
            np.add(tmp, 0.0, out=tmp)
            np.multiply(tmp, self.lr, out=tmp)
            np.subtract(block, tmp, out=block)

        _blocks(flat.size, run)
