#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-numpy fallbacks.

Runs identical workloads through ``caseline._speedups`` and
``caseline._kernels_py``, checks the results agree bit for bit, and
prints per-kernel timings.  Exits nonzero if the compiled backend is
unavailable or any result differs.
"""
from __future__ import annotations

import sys
import time

import numpy as np

from caseline import _kernels_py

try:
    from caseline import _speedups
except ImportError:
    print("compiled backend (caseline._speedups) is not available; "
          "build it with: pip install -e . --no-build-isolation",
          file=sys.stderr)
    sys.exit(1)

REPEATS = 5


def _best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_adamw_step():
    rng = np.random.default_rng(1)
    n = 1_000_000
    param0 = rng.standard_normal(n)
    grad = rng.standard_normal(n)
    m0 = np.zeros(n)
    v0 = np.zeros(n)
    args = (1e-3, 0.9, 0.999, 1e-8, 0.01, 1.0 - 0.9**3, 1.0 - 0.999**3)

    def run(impl):
        param, m, v = param0.copy(), m0.copy(), v0.copy()
        for _ in range(10):
            impl.adamw_step(param, grad, m, v, *args)
        return param, m, v

    out_c, out_py = run(_speedups), run(_kernels_py)
    equal = all(np.array_equal(a, b) for a, b in zip(out_c, out_py))
    t_c = _best_of(lambda: run(_speedups))
    t_py = _best_of(lambda: run(_kernels_py))
    return "adamw_step", "10 steps x 1e6 params", t_c, t_py, equal


def bench_add_outer():
    rng = np.random.default_rng(2)
    shape = (262_144, 256)
    idx = np.sort(rng.choice(shape[0], size=300, replace=False))
    vals = rng.standard_normal(300)
    vec = rng.standard_normal(shape[1])

    def run(impl):
        out = np.zeros(shape)
        for _ in range(50):
            impl.add_outer(out, idx, vals, vec)
        return out

    out_c, out_py = run(_speedups), run(_kernels_py)
    equal = np.array_equal(out_c, out_py)
    t_c = _best_of(lambda: run(_speedups))
    t_py = _best_of(lambda: run(_kernels_py))
    return "add_outer", "50 updates, 300 rows x 256", t_c, t_py, equal


def main() -> int:
    print(f"kernel backends: compiled ({_speedups.__name__}) vs "
          f"pure numpy ({_kernels_py.__name__}), best of {REPEATS}")
    print(f"{'kernel':<14} {'workload':<28} {'compiled':>10} "
          f"{'python':>10} {'speedup':>8}  result")
    failures = 0
    for bench in (bench_adamw_step,
                  bench_add_outer):
        name, workload, t_c, t_py, equal = bench()
        verdict = "bitwise-equal" if equal else "MISMATCH"
        failures += 0 if equal else 1
        print(f"{name:<14} {workload:<28} {t_c * 1e3:>8.1f}ms "
              f"{t_py * 1e3:>8.1f}ms {t_py / t_c:>7.1f}x  {verdict}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
