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
"""

from __future__ import annotations

import numpy as np

from . import kernels

# Elements per block of the update kernel.  The kernel writes into two
# scratch blocks that each optimizer allocates once, so no block size
# meets glibc's mmap threshold on a step.  Measured per step on a
# 1M-element parameter (Xeon, 2 MiB L2 per core, one thread): 8K 14.0
# ms, 16K 12.3, 32K 12.6, 64K 12.8, 128K 14.2.  16K to 64K are equal
# within the noise; 16K keeps the six blocks one call touches (768 KiB)
# well inside L2.
_BLOCK = 1 << 14
# Elements per block of the decay, which reuses one buffer per step.
_DECAY_BLOCK = 1 << 15
# Adam's moment decay rates and its denominator guard.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


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
        # the kernel's two temporaries, one block long, reused by every
        # step
        size = min(_BLOCK, max((p.size for p in params.values()), default=0))
        self._scratch = (np.empty(size), np.empty(size))

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
        for start in range(0, p.size, _BLOCK):
            end = start + _BLOCK
            kernels.adamw_step(
                p[start:end], grad[start:end], m[start:end], v[start:end],
                self.lr, BETA1, BETA2, EPS, self.weight_decay, bc1, bc2,
                self._scratch)

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
        """p -= lr * (0.0 + weight_decay * p), block by block: the dense
        update of a row with m = v = 0 and zero gradient.  The 0.0 term
        is kept because it turns a -0.0 product into +0.0."""
        flat = p.reshape(-1)
        buf = np.empty(min(_DECAY_BLOCK, flat.size))
        for start in range(0, flat.size, _DECAY_BLOCK):
            block = flat[start:start + _DECAY_BLOCK]
            tmp = buf[:block.size]
            np.multiply(block, self.weight_decay, out=tmp)
            np.add(tmp, 0.0, out=tmp)
            np.multiply(tmp, self.lr, out=tmp)
            np.subtract(block, tmp, out=block)
