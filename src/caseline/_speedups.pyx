# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled hot kernels: fused AdamW step, row scatter-add.

Must stay behaviourally identical to caseline._kernels_py; the build
uses -ffp-contract=off so the float kernels round exactly like the
numpy fallbacks.
"""

from libc.math cimport sqrt
from libc.stdint cimport int64_t

import numpy as np
cimport numpy as cnp

cnp.import_array()


def adamw_step(cnp.ndarray[cnp.float64_t, ndim=1] param,
               cnp.ndarray[cnp.float64_t, ndim=1] grad,
               cnp.ndarray[cnp.float64_t, ndim=1] m,
               cnp.ndarray[cnp.float64_t, ndim=1] v,
               double lr, double beta1, double beta2, double eps,
               double weight_decay, double bias_c1, double bias_c2):
    """One decoupled-weight-decay Adam update, in place on 1-D float64 views."""
    cdef double omb1 = 1.0 - beta1
    cdef double omb2 = 1.0 - beta2
    cdef Py_ssize_t i, n = param.shape[0]
    cdef double g, mi, vi
    for i in range(n):
        g = grad[i]
        mi = beta1 * m[i] + omb1 * g
        vi = beta2 * v[i] + omb2 * (g * g)
        m[i] = mi
        v[i] = vi
        param[i] = param[i] - lr * ((mi / bias_c1) / (sqrt(vi / bias_c2) + eps)
                                    + weight_decay * param[i])


def add_outer(cnp.ndarray[cnp.float64_t, ndim=2] out,
              cnp.ndarray[cnp.int64_t, ndim=1] idx,
              cnp.ndarray[cnp.float64_t, ndim=1] vals,
              cnp.ndarray[cnp.float64_t, ndim=1] vec):
    """out[idx[i], :] += vals[i] * vec for each i, in place.  idx unique."""
    cdef Py_ssize_t i, j, nnz = idx.shape[0], w = vec.shape[0]
    cdef double s
    cdef int64_t r
    for i in range(nnz):
        r = idx[i]
        s = vals[i]
        for j in range(w):
            out[r, j] = out[r, j] + s * vec[j]
