"""Layer-level tests: initialization bounds, forward equivalence to a
hand-rolled pass, and gradients against central finite differences."""

import math

import numpy as np
import pytest
from modeltools import gradient_rel_errors, numerical_gradient

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


def trunk_params(rng, spec, dtype):
    """The trunk's parameters alone: its layout without the head."""
    layout = nn.trunk_layout(spec, 1)
    del layout["out_w"], layout["out_b"]
    return nn.init_params(rng, layout, dtype)


def test_glorot_bounds_and_zero_bias():
    layout = {"emb": (10, 4), "w": (40, 60), "b": (60,)}
    params = nn.init_params(np.random.default_rng(0), layout, np.float64)
    assert list(params) == list(layout)
    assert all(params[name].shape == shape for name, shape in layout.items())
    # Each matrix is drawn in layout order from the one rng, with the
    # limit of its own (rows, columns).
    ref = np.random.default_rng(0)
    for name, lim in (("emb", math.sqrt(6.0 / 14.0)), ("w", math.sqrt(6.0 / 100.0))):
        assert params[name].tobytes() == ref.uniform(-lim, lim, size=layout[name]).tobytes()
        assert np.all(np.abs(params[name]) <= lim)
        assert np.std(params[name]) > 0.4 * lim  # uniform(-lim, lim) has std lim/sqrt(3)
    assert np.all(params["b"] == 0.0)
    assert nn.init_params(np.random.default_rng(0), layout, np.float32)["emb"].dtype == np.float32


def test_trunk_forward_matches_manual_recompute():
    spec = tiny_spec()
    rng = np.random.default_rng(1)
    params = trunk_params(rng, spec, np.float64)
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
        trial = trunk_params(rng, spec, np.float64)
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
    numeric = numerical_gradient(loss_fn, params)
    errs = gradient_rel_errors(grads, numeric)
    assert set(errs) == set(params)
    assert max(errs.values()) < 1e-6


def test_unused_embedding_rows_get_zero_gradient():
    spec = tiny_spec()
    rng = np.random.default_rng(2)
    params = trunk_params(rng, spec, np.float64)
    cat = np.zeros((4, 2), dtype=np.int64)  # only row 0 of each table
    cont = rng.normal(size=(4, 2))
    h, cache = nn.trunk_forward(params, spec, cat, cont)
    grads = {}
    nn.trunk_backward(params, spec, cache, h.copy(), grads)
    assert np.all(grads["emb_color"][1:] == 0.0)
    assert np.all(grads["emb_shape"][1:] == 0.0)


def per_table_trunk_backward(params, spec, cache, dh):
    """trunk_backward with one 2-d np.add.at per embedding table: the
    reference the flat scatter must match bit for bit."""
    grads = {}
    for i in range(len(spec.hidden), 0, -1):
        dz = dh * (cache.pre_acts[i - 1] > 0)
        grads[f"w{i}"] = cache.layer_inputs[i - 1].T @ dz
        grads[f"b{i}"] = dz.sum(axis=0)
        dh = dz @ params[f"w{i}"].T
    d = spec.emb_dim
    for j, name in enumerate(spec.emb_names):
        g = np.zeros_like(params[f"emb_{name}"])
        np.add.at(g, cache.categorical[:, j], dh[:, j * d : (j + 1) * d])
        grads[f"emb_{name}"] = g
    return grads


def wide_magnitudes(rng, shape, dtype):
    """Normal values scaled by 10^-6 .. 10^6, so that a float sum depends
    on the order of its terms; about a fifth of the entries are -0.0."""
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 7, size=shape)
    values[rng.random(shape) < 0.2] = -0.0
    return values.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scatter_rows_matches_2d_add_at(dtype):
    rng = np.random.default_rng(5)
    for n_rows, n in ((1, 300), (40, 64), (3, 500)):
        rows = rng.integers(0, n_rows, size=n)
        values = wide_magnitudes(rng, (n, 5), dtype)
        values[rows == 1] = -0.0  # row 1 receives only negative zeros
        ref = np.zeros((n_rows, 5), dtype=dtype)
        np.add.at(ref, rows, values)
        got = nn.scatter_rows(n_rows, rows, values)
        assert got.dtype == dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
    # The data are order-sensitive: the reversed scatter sums other bits.
    backwards = np.zeros((n_rows, 5), dtype=dtype)
    np.add.at(backwards, rows[::-1], values[::-1])
    assert backwards.tobytes() != ref.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_trunk_backward_embedding_grads_match_per_table_scatter(dtype):
    # A one-row table, a two-row one and a wider one whose rows repeat
    # heavily: 500 rows land on the first three of its 50 rows.
    spec = nn.TrunkSpec(("one", "two", "wide"), (1, 2, 50), 4, 2, (8, 6))
    rng = np.random.default_rng(6)
    params = trunk_params(rng, spec, dtype)
    cat = np.stack(
        [np.zeros(500, dtype=np.int64), rng.integers(0, 2, 500), rng.integers(0, 3, 500)],
        axis=1,
    )
    cont = rng.normal(size=(500, 2))
    _, cache = nn.trunk_forward(params, spec, cat, cont)
    dh = wide_magnitudes(rng, (500, 6), dtype)
    grads = {}
    nn.trunk_backward(params, spec, cache, dh, grads)
    ref = per_table_trunk_backward(params, spec, cache, dh)
    assert set(grads) == set(ref)
    for name in ref:
        assert grads[name].dtype == ref[name].dtype and grads[name].shape == ref[name].shape
        assert grads[name].tobytes() == ref[name].tobytes(), name


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
    grads = numerical_gradient(
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
    with pytest.raises(ConfigError, match="no inputs"):
        nn.TrunkSpec((), (), 4, 0, (8,))
    spec = tiny_spec()
    assert spec.input_dim == 2 * 3 + 2
    layout = nn.trunk_layout(spec, 7)
    assert list(layout.items()) == [
        ("emb_color", (5, 3)), ("emb_shape", (3, 3)), ("w1", (8, 6)), ("b1", (6,)),
        ("w2", (6, 4)), ("b2", (4,)), ("out_w", (4, 7)), ("out_b", (7,)),
    ]
