"""Row-sparse AdamW against the dense reference update.

A row gradient must give bit-for-bit the parameters and moments that
kernels.adamw_step gives when fed the same gradient scattered into
a dense zero array, on both sides of the half-touched switch."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caseline import kernels
from caseline.optim import _BLOCK, _DECAY_BLOCK, BETA1, BETA2, EPS, AdamW

HYPER = dict(lr=3e-2, weight_decay=0.05)


def _dense_reference(p, m, v, dense_grad, t):
    kernels.adamw_step(
        p.ravel(), dense_grad.ravel(), m.ravel(), v.ravel(),
        HYPER["lr"], BETA1, BETA2, EPS, HYPER["weight_decay"],
        1.0 - BETA1 ** t, 1.0 - BETA2 ** t)


def _formula_step(p, m, v, dense_grad, t):
    """The update as whole-array expressions, each allocating its
    result: the reference the in-place kernel must equal bit for bit."""
    g = dense_grad.ravel()
    p, m, v = p.ravel(), m.ravel(), v.ravel()
    m[:] = BETA1 * m + (1.0 - BETA1) * g
    v[:] = BETA2 * v + (1.0 - BETA2) * (g * g)
    p -= HYPER["lr"] * ((m / (1.0 - BETA1 ** t))
                        / (np.sqrt(v / (1.0 - BETA2 ** t)) + EPS)
                        + HYPER["weight_decay"] * p)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


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
def test_row_steps_match_dense_kernel_bitwise(case):
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
        _dense_reference(p_ref, m_ref, v_ref, dense, t)
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
            _dense_reference(*ref[name], dense, t)
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
    shape = (3 * max(_BLOCK, _DECAY_BLOCK) // 40 + 7, 40)
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
        _dense_reference(p_ref, m_ref, v_ref, dense, t)
        assert _same_bits(p, p_ref), f"param differs at step {t}"
        m, v = opt.moments("w")
        assert _same_bits(m, m_ref), f"m differs at step {t}"
        assert _same_bits(v, v_ref), f"v differs at step {t}"


@pytest.mark.parametrize("size", [
    1, 7, 1001, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
def test_in_place_kernel_equals_formula(rng, size):
    """Dense steps, block by block through the optimizer's scratch, and
    the kernel called without scratch, on odd sizes and either side of
    the block size."""
    p = rng.standard_normal(size)
    p[::7] = -0.0
    p_ref, m_ref, v_ref = p.copy(), np.zeros(size), np.zeros(size)
    p_bare, m_bare, v_bare = p.copy(), np.zeros(size), np.zeros(size)
    opt = AdamW({"w": p}, **HYPER)
    for t in range(1, 5):
        grad = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 3)
        grad[::11] = 0.0
        opt.step({"w": grad})
        _formula_step(p_ref, m_ref, v_ref, grad, t)
        _dense_reference(p_bare, m_bare, v_bare, grad, t)
        for got, m, v in ((p, *opt.moments("w")),
                          (p_bare, m_bare, v_bare)):
            assert _same_bits(got, p_ref), f"param differs at step {t}"
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
        _dense_reference(p_ref, m_ref, v_ref, dense, t)
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

