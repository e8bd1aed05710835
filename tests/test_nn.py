"""Layer-level tests: initialization bounds, forward equivalence to a
hand-rolled pass, and gradients against central finite differences."""

import math

import numpy as np
import pytest

from cellsearch import nn
from cellsearch.errors import ConfigError, NumericError


def tiny_spec():
    return nn.TrunkSpec(
        emb_names=("color", "shape"),
        emb_rows=(5, 3),
        emb_dim=3,
        n_continuous=2,
        hidden=(6, 4),
    )


def test_glorot_bounds_and_zero_bias():
    rng = np.random.default_rng(0)
    w, b = nn.init_dense(rng, 40, 60, np.float64)
    lim = math.sqrt(6.0 / 100.0)
    assert w.shape == (40, 60) and b.shape == (60,)
    assert np.all(np.abs(w) <= lim)
    assert np.std(w) > 0.4 * lim  # uniform(-lim, lim) has std lim/sqrt(3)
    assert np.all(b == 0.0)
    emb = nn.init_embedding(rng, 10, 4, np.float32)
    assert emb.dtype == np.float32
    assert np.all(np.abs(emb) <= math.sqrt(6.0 / 14.0))


def test_trunk_forward_matches_manual_recompute():
    spec = tiny_spec()
    rng = np.random.default_rng(1)
    params = nn.init_trunk(rng, spec, np.float64)
    cat = rng.integers(0, np.array(spec.emb_rows), size=(7, 2))
    cont = rng.normal(size=(7, 2))
    h, _ = nn.trunk_forward(params, spec, cat, cont)
    x = np.concatenate(
        [params["emb_color"][cat[:, 0]], params["emb_shape"][cat[:, 1]], cont],
        axis=1,
    )
    h1 = np.maximum(x @ params["w1"] + params["b1"], 0.0)
    h2 = np.maximum(h1 @ params["w2"] + params["b2"], 0.0)
    np.testing.assert_allclose(h, h2, atol=1e-15)
    assert h.shape == (7, 4)


def test_trunk_gradients_match_finite_differences():
    spec = tiny_spec()
    params = None
    for seed in range(30):
        rng = np.random.default_rng(seed)
        trial = nn.init_trunk(rng, spec, np.float64)
        cat = rng.integers(0, np.array(spec.emb_rows), size=(6, 2))
        cont = rng.normal(size=(6, 2))
        _, cache = nn.trunk_forward(trial, spec, cat, cont)
        if min(float(np.abs(z).min()) for z in cache.pre_acts) > 1e-3:
            params = trial
            break
    assert params is not None, "no seed gave a safe ReLU margin"

    def loss_fn():
        hh, _ = nn.trunk_forward(params, spec, cat, cont)
        return 0.5 * float((hh**2).sum())

    h, cache = nn.trunk_forward(params, spec, cat, cont)
    grads = {}
    nn.trunk_backward(params, spec, cache, h.copy(), grads)
    numeric = nn.numerical_gradient(loss_fn, params)
    errs = nn.gradient_rel_errors(grads, numeric)
    assert set(errs) == set(params)
    assert max(errs.values()) < 1e-6


def test_unused_embedding_rows_get_zero_gradient():
    spec = tiny_spec()
    rng = np.random.default_rng(2)
    params = nn.init_trunk(rng, spec, np.float64)
    cat = np.zeros((4, 2), dtype=np.int64)  # only row 0 of each table
    cont = rng.normal(size=(4, 2))
    h, cache = nn.trunk_forward(params, spec, cat, cont)
    grads = {}
    nn.trunk_backward(params, spec, cache, h.copy(), grads)
    assert np.all(grads["emb_color"][1:] == 0.0)
    assert np.all(grads["emb_shape"][1:] == 0.0)


def test_log_softmax_stable_and_consistent():
    logits = np.array([[1e4, 1e4 + 1.0, 0.0], [-5.0, 0.0, 5.0]])
    lsm = nn.log_softmax(logits)
    assert np.all(np.isfinite(lsm))
    np.testing.assert_allclose(np.exp(lsm).sum(axis=1), 1.0, atol=1e-12)
    moderate = np.array([[0.3, -1.2, 2.0]])
    ref = np.log(np.exp(moderate) / np.exp(moderate).sum())
    np.testing.assert_allclose(nn.log_softmax(moderate), ref, atol=1e-12)


def test_softplus_and_sigmoid():
    x = np.array([-800.0, -5.0, 0.0, 5.0, 800.0])
    sp = nn.softplus(x)
    assert np.all(np.isfinite(sp))
    np.testing.assert_allclose(sp[2], math.log(2.0), atol=1e-15)
    np.testing.assert_allclose(sp[1], math.log1p(math.exp(-5.0)), atol=1e-15)
    np.testing.assert_allclose(sp[3], 5.0 + math.log1p(math.exp(-5.0)), atol=1e-15)
    np.testing.assert_allclose(sp[4], 800.0, atol=1e-15)
    sg = nn.sigmoid(x)
    assert np.all(np.isfinite(sg))
    assert sg[2] == 0.5
    np.testing.assert_allclose(sg + nn.sigmoid(-x), 1.0, atol=1e-15)


def test_numerical_gradient_on_quadratic():
    params = {"a": np.array([1.0, -2.0, 3.0])}
    grads = nn.numerical_gradient(
        lambda: float((params["a"] ** 2).sum()), params
    )
    np.testing.assert_allclose(grads["a"], 2.0 * params["a"], atol=1e-8)


def test_sgd_update_and_clone_independence():
    rng = np.random.default_rng(3)
    params = {"w": rng.normal(size=(2, 2))}
    snap = nn.clone_params(params)
    nn.sgd_update(params, {"w": np.ones((2, 2))}, 0.5)
    np.testing.assert_allclose(params["w"], snap["w"] - 0.5, atol=1e-15)
    assert snap["w"] is not params["w"]


def test_ensure_finite_raises_with_log():
    nn.ensure_finite("ok", np.array([0.0, 1.0]))
    with pytest.raises(NumericError) as err:
        nn.ensure_finite("x", np.array([1.0, np.inf]), log=[{"epoch": 0}])
    assert err.value.log == [{"epoch": 0}]
    with pytest.raises(NumericError):
        nn.ensure_finite("x", np.array([np.nan]))


def test_trunk_spec_validation_and_names():
    with pytest.raises(ConfigError):
        nn.TrunkSpec(("a",), (2, 3), 4, 1, (8,))
    with pytest.raises(ConfigError):
        nn.TrunkSpec(("a",), (2,), 4, 1, ())
    with pytest.raises(ConfigError):
        nn.TrunkSpec(("a",), (2,), 0, 1, (8,))
    spec = tiny_spec()
    assert spec.input_dim == 2 * 3 + 2
    assert spec.output_dim == 4
    assert spec.param_names() == ["emb_color", "emb_shape", "w1", "b1", "w2", "b2"]
