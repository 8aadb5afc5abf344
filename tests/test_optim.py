"""AdamW against the whole-array formula of adamw_reference.

A row gradient must give bit-for-bit the parameters and moments that
the formula gives when fed the same gradient scattered into a dense
zero array, on both sides of the half-touched switch.  A parameter
whose blocks two threads share must give the formula's bits too, at
one worker or two.  The in-place update optim._update is pinned to the
formula on its own."""
from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caseline import optim
from caseline.optim import _BLOCK, _SPLIT, BETA1, BETA2, AdamW

from adamw_reference import formula_step

HYPER = dict(lr=3e-2, weight_decay=0.05)


def _formula_step(p, m, v, dense_grad, t, lr=HYPER["lr"]):
    formula_step(p, m, v, dense_grad, t, lr, HYPER["weight_decay"])


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _update(p, g, m, v, lr, weight_decay, t):
    """optim._update at step t, with scratch of p's size."""
    optim._update(p, g, m, v, lr, weight_decay, 1.0 - BETA1 ** t,
                  1.0 - BETA2 ** t, (np.empty(p.size), np.empty(p.size)))


class TestAdamwStep:
    def test_moves_against_gradient_from_rest(self):
        p = np.zeros(6)
        g = np.array([1.0, -1.0, 2.0, -2.0, 0.5, -0.5])
        _update(p, g, np.zeros(6), np.zeros(6), 0.1, 0.0, 1)
        assert (np.sign(p) == -np.sign(g)).all()

    def test_weight_decay_shrinks_params(self):
        p = np.full(3, 10.0)
        _update(p, np.zeros(3), np.zeros(3), np.zeros(3), 0.1, 0.5, 1)
        assert (p < 10.0).all() and (p > 9.0).all()

    def test_matches_reference_formula(self, rng):
        p = rng.standard_normal(8)
        g = rng.standard_normal(8)
        m = rng.standard_normal(8) * 0.1
        v = np.abs(rng.standard_normal(8)) * 0.01
        p0, m0, v0 = p.copy(), m.copy(), v.copy()
        _update(p, g, m, v, 1e-3, 0.01, 3)
        m_ref = 0.9 * m0 + 0.1 * g
        v_ref = 0.999 * v0 + 0.001 * g * g
        step = (m_ref / (1 - 0.9 ** 3)) \
            / (np.sqrt(v_ref / (1 - 0.999 ** 3)) + 1e-8)
        p_ref = p0 - 1e-3 * (step + 0.01 * p0)
        np.testing.assert_allclose(m, m_ref, rtol=1e-12)
        np.testing.assert_allclose(v, v_ref, rtol=1e-12)
        np.testing.assert_allclose(p, p_ref, rtol=1e-12)


@st.composite
def row_sequences(draw):
    n_rows = draw(st.integers(1, 40))
    cols = draw(st.sampled_from([(), (1,), (3,), (2, 2)]))
    row_set = st.one_of(
        st.just([]),
        st.just(list(range(n_rows))),
        st.lists(st.integers(0, n_rows - 1), max_size=n_rows))
    steps = draw(st.lists(row_set, min_size=1, max_size=8))
    return n_rows, cols, steps, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=150, deadline=None)
@given(row_sequences())
def test_row_steps_match_dense_formula_bitwise(case):
    n_rows, cols, steps, seed = case
    rng = np.random.default_rng(seed)
    shape = (n_rows, *cols)
    p = rng.standard_normal(shape)
    p.ravel()[::5] = -0.0  # a -0.0 decays to +0.0 only through the 0.0 term
    p_ref = p.copy()
    m_ref, v_ref = np.zeros(shape), np.zeros(shape)
    opt = AdamW({"w": p}, **HYPER)
    for t, picked in enumerate(steps, start=1):
        rows = np.unique(np.asarray(picked, dtype=np.int64))
        values = rng.standard_normal((len(rows), *cols))
        dense = np.zeros(shape)
        dense[rows] = values
        opt.step({"w": values}, rows={"w": rows})
        _formula_step(p_ref, m_ref, v_ref, dense, t)
        assert _same_bits(p, p_ref), f"param differs at step {t}"
        m, v = opt.moments("w")
        assert _same_bits(m, m_ref), f"m differs at step {t}"
        assert _same_bits(v, v_ref), f"v differs at step {t}"


def test_crossing_the_switch_and_dense_gradients_mix(rng):
    """A parameter that crosses half-touched mid-run, next to one with
    dense gradients and one switched to dense by a dense gradient."""
    shapes = {"w": (64, 3), "b": (3,), "u": (10, 2)}
    params = {k: rng.standard_normal(s) for k, s in shapes.items()}
    ref = {k: [p.copy(), np.zeros(p.shape), np.zeros(p.shape)]
           for k, p in params.items()}
    opt = AdamW(params, **HYPER)
    for t in range(1, 13):
        rows = {"w": np.sort(np.arange(4 * (t - 1), 4 * t) % 64)}
        grads = {"w": rng.standard_normal((4, 3)),
                 "b": rng.standard_normal(3)}
        if t == 3:
            grads["u"] = rng.standard_normal((10, 2))
        else:
            rows["u"] = np.array([t % 10])
            grads["u"] = rng.standard_normal((1, 2))
        for name, grad in grads.items():
            dense = np.zeros(shapes[name])
            if name in rows:
                dense[rows[name]] = grad
            else:
                dense[...] = grad
            _formula_step(*ref[name], dense, t)
        opt.step(grads, rows=rows)
        for name, (p_ref, m_ref, v_ref) in ref.items():
            assert _same_bits(params[name], p_ref), (name, t)
            m, v = opt.moments(name)
            assert _same_bits(m, m_ref), (name, t)
            assert _same_bits(v, v_ref), (name, t)


@pytest.mark.parametrize("shares", [
    [0.1, 0.3, 0.6, 0.2, None],
    [0.1, 0.2, None, 0.2],
], ids=["rows-after-switch", "dense-before-switch"])
def test_parameters_spanning_several_blocks(rng, shares):
    """Decay and update run block by block; a parameter of several
    blocks, through the sparse branch, the switch and a dense step:
    a row step after the switch, or a dense step while only the
    touched rows' moments are kept (None marks a dense step)."""
    shape = (3 * _BLOCK // 40 + 7, 40)
    p = rng.standard_normal(shape)
    p_ref, m_ref, v_ref = p.copy(), np.zeros(shape), np.zeros(shape)
    opt = AdamW({"w": p}, **HYPER)
    for t, share in enumerate(shares, start=1):
        if share is None:
            dense = rng.standard_normal(shape)
            opt.step({"w": dense})
        else:
            rows = np.flatnonzero(rng.random(shape[0]) < share)
            values = rng.standard_normal((len(rows), 40))
            dense = np.zeros(shape)
            dense[rows] = values
            opt.step({"w": values}, rows={"w": rows})
        _formula_step(p_ref, m_ref, v_ref, dense, t)
        assert _same_bits(p, p_ref), f"param differs at step {t}"
        m, v = opt.moments("w")
        assert _same_bits(m, m_ref), f"m differs at step {t}"
        assert _same_bits(v, v_ref), f"v differs at step {t}"


@pytest.mark.parametrize("size", [
    1, 7, 1001, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
def test_in_place_kernel_equals_formula(rng, size):
    """Dense steps, block by block through the optimizer's scratch, on
    odd sizes and either side of the block size."""
    p = rng.standard_normal(size)
    p[::7] = -0.0
    p_ref, m_ref, v_ref = p.copy(), np.zeros(size), np.zeros(size)
    opt = AdamW({"w": p}, **HYPER)
    for t in range(1, 5):
        grad = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 3)
        grad[::11] = 0.0
        opt.step({"w": grad})
        _formula_step(p_ref, m_ref, v_ref, grad, t)
        m, v = opt.moments("w")
        assert _same_bits(p, p_ref), f"param differs at step {t}"
        assert _same_bits(m, m_ref), f"m differs at step {t}"
        assert _same_bits(v, v_ref), f"v differs at step {t}"


def test_row_path_equals_formula(rng):
    """Row gradients, through the gathered-rows branch and after the
    switch to dense, on a parameter of several blocks, against the
    formula fed the scattered gradient."""
    shape = (2 * _BLOCK // 24 + 3, 24)
    p = rng.standard_normal(shape)
    p_ref, m_ref, v_ref = p.copy(), np.zeros(shape), np.zeros(shape)
    opt = AdamW({"w": p}, **HYPER)
    for t, share in enumerate([0.05, 0.2, 0.4, 0.3], start=1):
        rows = np.flatnonzero(rng.random(shape[0]) < share)
        values = rng.standard_normal((len(rows), shape[1]))
        dense = np.zeros(shape)
        dense[rows] = values
        opt.step({"w": values}, rows={"w": rows})
        _formula_step(p_ref, m_ref, v_ref, dense, t)
        assert _same_bits(p, p_ref), f"param differs at step {t}"
        m, v = opt.moments("w")
        assert _same_bits(m, m_ref), f"m differs at step {t}"
        assert _same_bits(v, v_ref), f"v differs at step {t}"


@pytest.fixture(params=[1, 2], ids=["one-worker", "two-workers"])
def workers(request, monkeypatch) -> int:
    """The optimizer's worker count, set before it is built."""
    monkeypatch.setattr(optim, "_WORKERS", request.param)
    return request.param


def _pool_submits(monkeypatch) -> list:
    """One entry per call that shared its blocks with the pool thread,
    filled in as the test steps."""
    calls, pool = [], optim._pool()

    class Recording:
        def submit(self, *args):
            calls.append(args)
            return pool.submit(*args)

    monkeypatch.setattr(optim, "_pool", Recording)
    return calls


@pytest.mark.parametrize("size", [
    _SPLIT - 1, _SPLIT, _SPLIT + 1, 2 * _SPLIT + _BLOCK + 7])
def test_split_steps_equal_formula(rng, monkeypatch, workers, size):
    """Dense steps either side of the split size, and on an odd size
    whose last block is short, against the formula; with two workers a
    parameter of _SPLIT elements or more shares its blocks with the
    pool thread, with one it never does."""
    submits = _pool_submits(monkeypatch)
    p = rng.standard_normal(size)
    p[::7] = -0.0
    p_ref, m_ref, v_ref = p.copy(), np.zeros(size), np.zeros(size)
    opt = AdamW({"w": p}, **HYPER)
    for t in range(1, 4):
        grad = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 3)
        grad[::11] = 0.0
        opt.step({"w": grad})
        _formula_step(p_ref, m_ref, v_ref, grad, t)
        m, v = opt.moments("w")
        assert _same_bits(p, p_ref), f"param differs at step {t}"
        assert _same_bits(m, m_ref), f"m differs at step {t}"
        assert _same_bits(v, v_ref), f"v differs at step {t}"
    split = workers == 2 and size >= _SPLIT
    assert len(submits) == 3 * split


def test_row_path_split_equals_formula(rng, monkeypatch, workers):
    """A parameter of over twice _SPLIT elements: before the switch
    both the update of the gathered touched rows (at least _SPLIT
    elements) and the decay of all rows run on two threads, after it
    the dense update does; every step equals the formula."""
    shape = (2 * _SPLIT // 64 + 9, 64)
    half = shape[0] // 2
    assert half * shape[1] >= _SPLIT
    submits = _pool_submits(monkeypatch)
    p = rng.standard_normal(shape)
    p_ref, m_ref, v_ref = p.copy(), np.zeros(shape), np.zeros(shape)
    opt = AdamW({"w": p}, **HYPER)
    picks = [np.sort(rng.choice(shape[0], half, replace=False)),
             np.flatnonzero(rng.random(shape[0]) < 0.3),
             np.flatnonzero(rng.random(shape[0]) < 0.1)]
    for t, rows in enumerate(picks, start=1):
        values = rng.standard_normal((len(rows), shape[1]))
        dense = np.zeros(shape)
        dense[rows] = values
        opt.step({"w": values}, rows={"w": rows})
        _formula_step(p_ref, m_ref, v_ref, dense, t)
        m, v = opt.moments("w")
        assert _same_bits(p, p_ref), f"param differs at step {t}"
        assert _same_bits(m, m_ref), f"m differs at step {t}"
        assert _same_bits(v, v_ref), f"v differs at step {t}"
        if t == 1:
            assert "w" not in opt._full  # still before the switch
            assert len(submits) == 2 * (workers == 2)  # update, decay
    assert "w" in opt._full


def _caller_waits_for_pool(monkeypatch, kernel=optim._update):
    """Route the update kernel through ``kernel``, with each of the
    caller's blocks waiting until the pool thread has begun one, so
    both threads run blocks."""
    caller, started = threading.current_thread(), threading.Event()

    def waiting(*args):
        if threading.current_thread() is not caller:
            started.set()
        elif not started.wait(10):
            raise TimeoutError("the pool thread never ran")
        kernel(*args)

    monkeypatch.setattr(optim, "_update", waiting)


def test_pool_thread_runs_under_the_callers_error_handling(monkeypatch):
    """Both threads apply the caller's numpy error handling: with an
    overflow in every block, a step under an ignoring caller neither
    warns nor raises, and one under a raising caller raises."""
    monkeypatch.setattr(optim, "_WORKERS", 2)
    _caller_waits_for_pool(monkeypatch)
    grad = np.full(_SPLIT, 1e200)  # its square overflows
    p = np.ones(_SPLIT)
    p_ref, m_ref, v_ref = p.copy(), np.zeros(_SPLIT), np.zeros(_SPLIT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"):
            AdamW({"w": p}, **HYPER).step({"w": grad})
            _formula_step(p_ref, m_ref, v_ref, grad, 1)
    assert _same_bits(p, p_ref)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        AdamW({"w": np.ones(_SPLIT)}, **HYPER).step({"w": grad})


@pytest.mark.parametrize("failing", ["caller", "pool"])
def test_error_in_one_thread_is_raised_after_both_stop(monkeypatch,
                                                       failing):
    """Whichever thread fails on its first block, the step raises only
    once the other has run every block left, so nothing writes after
    it returns."""
    monkeypatch.setattr(optim, "_WORKERS", 2)
    caller, kernel = threading.current_thread(), optim._update
    blocks = {"caller": 0, "pool": 0}

    def failing_kernel(*args):
        who = "caller" if threading.current_thread() is caller else "pool"
        if who == failing:
            raise RuntimeError(f"{who} failed")
        time.sleep(0.01)
        kernel(*args)
        blocks[who] += 1

    _caller_waits_for_pool(monkeypatch, failing_kernel)
    opt = AdamW({"w": np.zeros(_SPLIT)}, **HYPER)
    with pytest.raises(RuntimeError, match=f"{failing} failed"):
        opt.step({"w": np.ones(_SPLIT)})
    other = "pool" if failing == "caller" else "caller"
    assert blocks == {failing: 0, other: _SPLIT // _BLOCK - 1}


def test_no_thread_below_the_split_size():
    """Steps on parameters below _SPLIT elements start no thread and
    import no executor; the first split starts the pool's one thread
    when two CPUs are usable."""
    probe = (
        "import json, sys, threading\n"
        "import numpy as np\n"
        "from caseline.optim import _SPLIT, AdamW\n"
        "w, b = np.zeros(_SPLIT - 1), np.zeros(3)\n"
        "opt = AdamW({'w': w, 'b': b}, lr=0.1)\n"
        "opt.step({'w': np.ones(w.size), 'b': np.ones(3)})\n"
        "opt.step({'w': np.ones((2,)), 'b': np.ones(3)},\n"
        "         rows={'w': np.array([0, 5])})\n"
        "below = [threading.active_count(),\n"
        "         'concurrent.futures' in sys.modules]\n"
        "AdamW({'w': np.zeros(_SPLIT)}, lr=0.1).step({'w': np.ones(_SPLIT)})\n"
        "print(json.dumps(below + [threading.active_count()]))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60, check=True)
    assert json.loads(proc.stdout) == [1, False, optim._WORKERS]


def test_usable_cpus_without_an_affinity_call(monkeypatch):
    """Where os has no sched_getaffinity (macOS), every CPU counts,
    and one when the count is unknown."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert optim._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert optim._usable_cpus() == 1


def _held_arrays(obj):
    """Every array an optimizer holds outside its parameters."""
    stack, found = [v for k, v in vars(obj).items() if k != "params"], []
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, (tuple, list)):
            stack.extend(item)
    return found


def test_moments_held_follow_the_touched_rows(rng):
    """Before the switch a row-sparse parameter keeps at most
    ceil(rows / 2) moment rows and no full-size moment array; after it,
    full moments.  The bits follow the dense reference throughout."""
    shape = (4096, 8)
    p = rng.standard_normal(shape)
    p_ref, m_ref, v_ref = p.copy(), np.zeros(shape), np.zeros(shape)
    opt = AdamW({"w": p}, **HYPER)
    for t, share in enumerate([0.1, 0.3, 0.6], start=1):
        rows = np.flatnonzero(rng.random(shape[0]) < share)
        values = rng.standard_normal((len(rows), shape[1]))
        dense = np.zeros(shape)
        dense[rows] = values
        opt.step({"w": values}, rows={"w": rows})
        _formula_step(p_ref, m_ref, v_ref, dense, t)
        switched = 2 * np.count_nonzero(m_ref.any(axis=1)) >= shape[0]
        assert switched == (t == 3)
        held = [a for a in _held_arrays(opt) if a.dtype == np.float64]
        if switched:
            m, v = opt.moments("w")
            assert m.shape == v.shape == shape
            assert any(a is m for a in held) and any(a is v for a in held)
        else:
            assert max(a.size for a in held) < p.size
            assert [a.shape for a in held if a.ndim == 2] == [(2048, 8)] * 2
        m, v = opt.moments("w")
        assert _same_bits(p, p_ref), f"param differs at step {t}"
        assert _same_bits(m, m_ref), f"m differs at step {t}"
        assert _same_bits(v, v_ref), f"v differs at step {t}"


@pytest.mark.parametrize("rows, values", [
    ([3, 1], np.zeros((2, 2))),      # not increasing
    ([1, 1], np.zeros((2, 2))),      # repeated
    ([0, 8], np.zeros((2, 2))),      # out of range
    ([0, 1], np.zeros((3, 2))),      # one value row per id
])
def test_malformed_row_gradient_rejected(rows, values):
    opt = AdamW({"w": np.zeros((8, 2))}, **HYPER)
    with pytest.raises(ValueError):
        opt.step({"w": values}, rows={"w": np.array(rows)})


def test_dense_gradient_of_wrong_size_rejected():
    opt = AdamW({"w": np.zeros((8, 2))}, **HYPER)
    with pytest.raises(ValueError):
        opt.step({"w": np.zeros(17)})


@settings(max_examples=60, deadline=None)
@given(lanes=st.integers(1, 4), sizes=st.tuples(st.integers(1, 40),
                                                st.integers(1, 40)),
       rates=st.tuples(st.floats(1e-6, 0.5), st.floats(1e-6, 0.5)),
       n_steps=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_rate_array_equals_one_optimizer_per_segment(lanes, sizes, rates,
                                                     n_steps, seed):
    """Each lane's row is two segments that learn at two rates: one
    optimizer with a per-element rate array gives the bits of two
    float-rate optimizers, one per segment, at every step."""
    rng = np.random.default_rng(seed)
    packed = rng.standard_normal((lanes, sum(sizes)))
    parts = [np.ascontiguousarray(a)
             for a in np.split(packed, [sizes[0]], axis=1)]
    lr = np.empty_like(packed)
    lr[:, :sizes[0]], lr[:, sizes[0]:] = rates
    opt = AdamW({"theta": packed}, lr=lr, weight_decay=0.05)
    segments = [AdamW({"s": part}, lr=rate, weight_decay=0.05)
                for part, rate in zip(parts, rates)]
    for _ in range(n_steps):
        grad = rng.standard_normal(packed.shape)
        opt.step({"theta": grad})
        for seg, g in zip(segments, np.split(grad, [sizes[0]], axis=1)):
            seg.step({"s": g})
        # (param, m, v) of each segment, joined back into rows
        want = zip(*([part, *seg.moments("s")]
                     for part, seg in zip(parts, segments)))
        for got, pieces in zip([packed, *opt.moments("theta")], want):
            assert _same_bits(got, np.concatenate(pieces, axis=1))


def test_rate_array_on_shared_blocks_equals_formula(rng, monkeypatch,
                                                    workers):
    """A rate array on a parameter of several blocks, shared with the
    pool thread at two workers: each block takes its own slice of the
    rates."""
    shape = ((_SPLIT + 3 * _BLOCK) // 64 + 3, 64)
    submits = _pool_submits(monkeypatch)
    p = rng.standard_normal(shape)
    lr = rng.choice([1e-4, 3e-2, 0.2], shape)
    p_ref, m_ref, v_ref = p.copy(), np.zeros(shape), np.zeros(shape)
    opt = AdamW({"w": p}, lr=lr, weight_decay=HYPER["weight_decay"])
    for t in range(1, 4):
        grad = rng.standard_normal(shape)
        opt.step({"w": grad})
        _formula_step(p_ref, m_ref, v_ref, grad, t, lr=lr.ravel())
        m, v = opt.moments("w")
        assert _same_bits(p, p_ref), f"param differs at step {t}"
        assert _same_bits(m, m_ref), f"m differs at step {t}"
        assert _same_bits(v, v_ref), f"v differs at step {t}"
    assert len(submits) == 3 * (workers == 2)


@pytest.mark.parametrize("params, lr", [
    ({"w": np.zeros((8, 2))}, np.full((2, 8), 0.1)),       # wrong shape
    ({"w": np.zeros((8, 2))}, np.full((8, 2), 0.1, dtype=np.float32)),
    ({"w": np.zeros((8, 2)), "b": np.zeros(2)}, np.full((8, 2), 0.1)),
])
def test_rate_array_must_fit_the_one_parameter(params, lr):
    with pytest.raises(ValueError):
        AdamW(params, lr=lr)


def test_rate_array_refuses_row_gradients():
    p = np.ones((8, 2))
    opt = AdamW({"w": p}, lr=np.full((8, 2), 0.1))
    with pytest.raises(ValueError):
        opt.step({"w": np.ones((1, 2))}, rows={"w": np.array([3])})
    assert opt.t == 0 and (p == 1.0).all()
