"""The AdamW update as whole-array expressions, each allocating its
result: the reference that ``caseline.optim``'s in-place, block-by-block
update must equal bit for bit."""
from __future__ import annotations

import numpy as np

from caseline.optim import BETA1, BETA2, EPS


def formula_step(p, m, v, dense_grad, t, lr, weight_decay):
    """Step t of the update, in place on p, m and v.  ``lr`` is a float
    or one rate per element of the raveled p."""
    g = dense_grad.ravel()
    p, m, v = p.ravel(), m.ravel(), v.ravel()
    m[:] = BETA1 * m + (1.0 - BETA1) * g
    v[:] = BETA2 * v + (1.0 - BETA2) * (g * g)
    p -= lr * ((m / (1.0 - BETA1 ** t))
               / (np.sqrt(v / (1.0 - BETA2 ** t)) + EPS)
               + weight_decay * p)
