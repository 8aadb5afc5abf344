"""NumPy implementations of the hot kernels.

``adamw_step`` is the per-element optimizer update that training
runs.  ``hash_ngrams`` is the per-token FNV-1a reference that
``features.featurize`` must match bit for bit; the pipeline itself
hashes through ``featurize``.
"""

from __future__ import annotations

import numpy as np

# The only kernel implementation; kept as a name for run reports.
BACKEND = "python"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
_SEP = b"\x1f"


def _fnv_update(h: int, data: bytes) -> int:
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def hash_ngrams(tokens: list[str], hash_dim: int) -> np.ndarray:
    """Bucket ids for all unigrams then all bigrams of a token sequence.

    Each feature string is hashed with 64-bit FNV-1a over its UTF-8
    bytes (bigrams as first token, 0x1f separator, second token) and
    reduced mod hash_dim.  Returns int64 bucket ids, one per feature
    occurrence, duplicates included.
    """
    enc = [t.encode("utf-8") for t in tokens]
    n = len(enc)
    out = np.empty(n + (n - 1 if n > 1 else 0), dtype=np.int64)
    heads = []
    for i, tb in enumerate(enc):
        h = _fnv_update(_FNV_OFFSET, tb)
        heads.append(h)
        out[i] = h % hash_dim
    for i in range(n - 1):
        h = _fnv_update(_fnv_update(heads[i], _SEP), enc[i + 1])
        out[n + i] = h % hash_dim
    return out


def adamw_step(
    param: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    lr: float | np.ndarray,
    beta1: float,
    beta2: float,
    eps: float,
    weight_decay: float,
    bias_c1: float,
    bias_c2: float,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> None:
    """One decoupled-weight-decay Adam update, in place on 1-D float64 views.

    bias_c1/bias_c2 are the step-dependent corrections 1 - beta^t,
    precomputed by the caller.  lr is a float or one float64 rate per
    element, used in one multiply: an element gets equal bits either
    way.  The update is

        m = beta1 * m + (1 - beta1) * grad
        v = beta2 * v + (1 - beta2) * (grad * grad)
        param -= lr * ((m / bias_c1) / (sqrt(v / bias_c2) + eps)
                       + weight_decay * param)

    evaluated op by op in that order through ``out=``, so it allocates
    nothing when ``scratch`` holds two float64 arrays at least as long
    as ``param`` (new ones are made when it is None).
    """
    n = param.size
    s1, s2 = scratch if scratch is not None else (np.empty(n), np.empty(n))
    s1, s2 = s1[:n], s2[:n]
    np.multiply(grad, 1.0 - beta1, out=s1)
    np.multiply(m, beta1, out=m)
    np.add(m, s1, out=m)
    np.multiply(grad, grad, out=s1)
    np.multiply(s1, 1.0 - beta2, out=s1)
    np.multiply(v, beta2, out=v)
    np.add(v, s1, out=v)
    np.divide(m, bias_c1, out=s1)
    np.divide(v, bias_c2, out=s2)
    np.sqrt(s2, out=s2)
    np.add(s2, eps, out=s2)
    np.divide(s1, s2, out=s1)
    np.multiply(param, weight_decay, out=s2)
    np.add(s1, s2, out=s1)
    np.multiply(s1, lr, out=s1)
    np.subtract(param, s1, out=param)
