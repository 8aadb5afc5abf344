"""Kernel backend selection.

Imports the compiled speedup module when available, otherwise the
numpy fallbacks.  Set CASELINE_PURE_PYTHON=1 to force the fallbacks
(used by the kernel-equivalence tests and the benchmark).
"""

from __future__ import annotations

import os

from . import _kernels_py

if os.environ.get("CASELINE_PURE_PYTHON"):
    _impl = _kernels_py
    BACKEND = "python"
else:
    try:
        from . import _speedups as _impl  # type: ignore[no-redef]
        BACKEND = "compiled"
    except ImportError:
        _impl = _kernels_py
        BACKEND = "python"

adamw_step = _impl.adamw_step
add_outer = _impl.add_outer


def backend() -> str:
    """Name of the active kernel backend: 'compiled' or 'python'."""
    return BACKEND
