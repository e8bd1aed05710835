"""Classifier tests: sampled-softmax gradients against finite
differences, exact agreement with the full softmax when the candidate
set is the whole class space, and the fit loop's contract."""

import math

import numpy as np
import pytest
from modeltools import (
    VAL_KEYS,
    gradient_rel_errors,
    make_vocab,
    numerical_gradient,
    tiny_batch,
    tiny_fit,
    tiny_model,
)

from cellsearch import model as model_module
from cellsearch import nn
from cellsearch.errors import ConfigError, DataError, NumericError
from cellsearch.features import encode_events, fit_pipeline
from cellsearch.labels import build_vocab
from cellsearch.model import (
    ShardModel,
    TrainConfig,
    full_loss_and_grads,
    full_scale_config,
    sample_negatives,
    sampled_loss_and_grads,
)


def test_param_order_and_shapes():
    model = tiny_model()
    assert list(model.params) == ["emb_kind", "w1", "b1", "w2", "b2", "out_w", "out_b"]
    assert model.params["emb_kind"].shape == (4, 3)
    assert model.params["w1"].shape == (5, 5)
    assert model.params["out_w"].shape == (4, 7)
    assert model.params["out_b"].shape == (7,)
    assert np.all(model.params["b1"] == 0) and np.all(model.params["out_b"] == 0)
    assert model.params["w1"].dtype == np.float64


def test_sampled_softmax_gradients_match_finite_differences():
    state = {}
    for seed in range(30):
        model = tiny_model(seed=seed, num_negatives=3)
        batch, y = tiny_batch(model, 6, seed=seed + 100)
        _, cache = nn.trunk_forward(
            model.params, model.spec, batch.categorical, batch.continuous
        )
        if min(float(np.abs(z).min()) for z in cache.pre_acts) > 1e-3:
            state = {"model": model, "batch": batch, "y": y}
            break
    assert state, "no seed gave a safe ReLU margin"
    model, batch, y = state["model"], state["batch"], state["y"]
    negatives = sample_negatives(np.random.default_rng(0), model.n_classes, y, 3)
    _, grads, _ = sampled_loss_and_grads(
        model.params, model.spec, batch.categorical, batch.continuous, y, negatives
    )

    def loss_fn():
        loss, _, _ = sampled_loss_and_grads(
            model.params,
            model.spec,
            batch.categorical,
            batch.continuous,
            y,
            negatives,
        )
        return loss

    numeric = numerical_gradient(loss_fn, model.params)
    errs = gradient_rel_errors(grads, numeric)
    assert max(errs.values()) < 1e-6


def test_full_softmax_gradients_match_finite_differences():
    model = tiny_model(seed=1)
    batch, y = tiny_batch(model, 5, seed=11)
    _, grads, _ = full_loss_and_grads(
        model.params, model.spec, batch.categorical, batch.continuous, y
    )

    def loss_fn():
        loss, _, _ = full_loss_and_grads(
            model.params, model.spec, batch.categorical, batch.continuous, y
        )
        return loss

    numeric = numerical_gradient(loss_fn, model.params)
    errs = gradient_rel_errors(grads, numeric)
    assert max(errs.values()) < 1e-4


def test_sampled_equals_full_when_candidates_cover_classes():
    model = tiny_model(n_classes=9, num_negatives=8)
    batch, _ = tiny_batch(model, 5, seed=3)
    y = np.full(5, 4)
    negatives = sample_negatives(np.random.default_rng(1), 9, y, 8)
    assert negatives.size == 8
    s_loss, s_grads, _ = sampled_loss_and_grads(
        model.params, model.spec, batch.categorical, batch.continuous, y, negatives
    )
    f_loss, f_grads, _ = full_loss_and_grads(
        model.params, model.spec, batch.categorical, batch.continuous, y
    )
    assert abs(s_loss - f_loss) <= 1e-9
    for name in f_grads:
        np.testing.assert_allclose(s_grads[name], f_grads[name], atol=1e-12)


def test_negative_sampling_contract():
    rng = np.random.default_rng(0)
    y = np.array([2, 2, 5])
    negatives = sample_negatives(rng, 10, y, 8)
    assert negatives.size == 8
    assert np.unique(negatives).size == 8
    assert np.intersect1d(negatives, y).size == 0
    # Requesting exactly the leftover pool is allowed; one more is not.
    sample_negatives(rng, 10, y, 8)
    with pytest.raises(ConfigError):
        sample_negatives(rng, 10, y, 9)


def setdiff1d_negatives(rng, n_classes, targets, num_negatives):
    """sample_negatives with the pool built by np.unique and np.setdiff1d:
    the reference the masked pool must match draw for draw."""
    distinct = np.unique(targets)
    pool_size = n_classes - distinct.size
    if num_negatives > pool_size:
        raise ConfigError(
            f"num_negatives={num_negatives} exceeds the {pool_size} classes "
            "available after excluding the batch positives"
        )
    pool = np.setdiff1d(np.arange(n_classes), distinct, assume_unique=True)
    return rng.choice(pool, size=num_negatives, replace=False)


def test_negative_pool_matches_setdiff1d_pool():
    for seed in range(50):
        setup = np.random.default_rng(seed)
        n_classes = int(setup.integers(2, 80))
        # Up to twice as many rows as classes, so targets repeat.
        y = setup.integers(0, n_classes, size=int(setup.integers(1, 2 * n_classes)))
        pool_size = n_classes - np.unique(y).size
        if pool_size:
            k = int(setup.integers(1, pool_size + 1))
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_negatives(ours, n_classes, y, k)
            want = setdiff1d_negatives(ref, n_classes, y, k)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert ours.bit_generator.state == ref.bit_generator.state
        with pytest.raises(ConfigError) as got_err:
            sample_negatives(np.random.default_rng(seed), n_classes, y, pool_size + 1)
        with pytest.raises(ConfigError) as want_err:
            setdiff1d_negatives(np.random.default_rng(seed), n_classes, y, pool_size + 1)
        assert str(got_err.value) == str(want_err.value)


def per_row_output_grads(params, spec, categorical, continuous, targets, negatives):
    """The out_w/out_b gradients of sampled_loss_and_grads, with the
    positive columns scattered by a 2-d np.add.at into out_w's transpose:
    the reference the flat scatter must match bit for bit."""
    h, _ = nn.trunk_forward(params, spec, categorical, continuous)
    out_w, out_b = params["out_w"], params["out_b"]
    pos_logit = np.einsum("nh,hn->n", h, out_w[:, targets]) + out_b[targets]
    neg_logits = h @ out_w[:, negatives] + out_b[negatives]
    lsm = nn.log_softmax(np.concatenate([pos_logit[:, None], neg_logits], axis=1))
    dlogits = np.exp(lsm)
    dlogits[:, 0] -= 1.0
    dlogits /= targets.size
    g_out_w = np.zeros_like(out_w)
    g_out_b = np.zeros_like(out_b)
    np.add.at(g_out_w.T, targets, dlogits[:, :1] * h)
    np.add.at(g_out_b, targets, dlogits[:, 0])
    g_out_w[:, negatives] += h.T @ dlogits[:, 1:]
    g_out_b[negatives] += dlogits[:, 1:].sum(axis=0)
    return g_out_w, g_out_b


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_sampled_output_grads_match_per_row_scatter(dtype):
    model = tiny_model(n_classes=40, hidden=(6, 5), dtype=dtype, seed=4, num_negatives=20)
    # 300 rows over 4 classes: every positive column repeats heavily.
    y = np.random.default_rng(8).integers(0, 4, size=300)
    batch, _ = tiny_batch(model, 300, seed=9, targets=y)
    negatives = sample_negatives(np.random.default_rng(2), model.n_classes, y, 20)
    args = (model.params, model.spec, batch.categorical, batch.continuous, y, negatives)
    _, grads, _ = sampled_loss_and_grads(*args)
    ref_w, ref_b = per_row_output_grads(*args)
    for got, ref in ((grads["out_w"], ref_w), (grads["out_b"], ref_b)):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def test_train_step_returns_pre_update_loss():
    model = tiny_model(num_negatives=3, learning_rate=0.05)
    batch, y = tiny_batch(model, 4, seed=2)
    before = nn.clone_params(model.params)
    model.rng = np.random.default_rng(7)
    loss = model.train_step(batch.categorical, batch.continuous, y)
    negatives = sample_negatives(np.random.default_rng(7), model.n_classes, y, 3)
    ref, _, _ = sampled_loss_and_grads(
        before, model.spec, batch.categorical, batch.continuous, y, negatives
    )
    assert loss == pytest.approx(ref, abs=1e-12)
    assert any(not np.array_equal(model.params[k], before[k]) for k in before)


def test_fit_learns_separable_toy():
    model = tiny_model(
        n_classes=3,
        hidden=(16, 8),
        num_negatives=2,
        batch_size=1,
        learning_rate=0.1,
        epochs=25,
        patience=25,
        seed=5,
    )
    rng = np.random.default_rng(8)
    n = 90
    cat = rng.integers(1, 4, size=(n, 1))
    y = cat[:, 0] - 1
    batch, _ = tiny_batch(model, n, seed=8, targets=y)
    batch.categorical[:] = cat
    batch.continuous[:] = 0.0
    log = model.fit(batch)
    assert model.trained and log and model.best_epoch >= 0
    assert model.eval_cross_entropy(batch) < 0.1
    assert log[-1]["val_ce"] < log[0]["val_ce"]


# The next four tests run the shared training loop through both models
# that use it: the shard classifier and the bounds regressor.


def test_fit_restores_best_validation_epoch():
    for kind, val_key in VAL_KEYS.items():
        model, fit, holdout = tiny_fit(
            kind, n=32, seed=6, data_seed=9,
            batch_size=2, learning_rate=0.9, epochs=12, patience=3,
        )
        log = fit()
        vals = [entry[val_key] for entry in log]
        assert model.best_epoch == int(np.argmin(vals)), kind
        assert holdout() == pytest.approx(min(vals), abs=1e-12), kind


def test_fit_early_stops_on_patience():
    for kind, val_key in VAL_KEYS.items():
        model, fit, _ = tiny_fit(
            kind, n=32, seed=12, data_seed=13,
            batch_size=2, learning_rate=0.9, epochs=40, patience=2,
        )
        log = fit()
        best = int(np.argmin([entry[val_key] for entry in log]))
        if len(log) < 40:  # stopped early: exactly patience epochs past the best
            assert len(log) == best + 1 + 2, kind


def test_fit_zero_epochs_keeps_initialization():
    for kind in VAL_KEYS:
        model, fit, _ = tiny_fit(kind, n=20, data_seed=4, epochs=0)
        snap = nn.clone_params(model.params)
        log = fit()
        assert log == [] and model.train_log == [], kind
        assert model.trained, kind
        assert model.best_epoch == -1, kind
        for name in snap:
            np.testing.assert_array_equal(model.params[name], snap[name])


def test_divergence_raises_numeric_error_with_log():
    for kind in VAL_KEYS:
        model, fit, _ = tiny_fit(kind, n=12, data_seed=5, epochs=4, batch_size=1)
        model.params["w1"][0, 0] = np.inf
        with pytest.warns(RuntimeWarning), pytest.raises(NumericError) as err:
            fit()
        assert isinstance(err.value.log, list), kind
        assert err.value.log is model.train_log, kind


def test_fit_deterministic_per_seed():
    runs = []
    for _ in range(2):
        model = tiny_model(num_negatives=2, epochs=3, seed=9, batch_size=2)
        batch, _ = tiny_batch(model, 40, seed=14)
        model.fit(batch)
        runs.append(model)
    for name in runs[0].params:
        np.testing.assert_array_equal(runs[0].params[name], runs[1].params[name])
    assert runs[0].train_log == runs[1].train_log
    other = tiny_model(num_negatives=2, epochs=3, seed=10, batch_size=2)
    batch, _ = tiny_batch(other, 40, seed=14)
    other.fit(batch)
    assert any(
        not np.array_equal(runs[0].params[k], other.params[k])
        for k in other.params
    )


def test_fit_drops_out_of_vocab_events():
    model = tiny_model(num_negatives=2, epochs=1)
    batch, _ = tiny_batch(model, 20, seed=6)
    batch.booked_cells[:5] = model.spare_cell
    log = model.fit(batch)
    assert log[0]["dropped_events"] == 5
    all_oov, _ = tiny_batch(model, 6, seed=7)
    all_oov.booked_cells[:] = model.spare_cell
    with pytest.raises(DataError):
        model.eval_cross_entropy(all_oov)


def test_zeroed_output_gives_uniform_cross_entropy():
    model = tiny_model(n_classes=11, num_negatives=2)
    batch, _ = tiny_batch(model, 40, seed=4)
    zeroed = model.with_zeroed_output()
    assert zeroed.eval_cross_entropy(batch) == pytest.approx(
        math.log(11.0), abs=1e-12
    )
    np.testing.assert_allclose(
        zeroed.predict_probs(batch), 1.0 / 11.0, atol=1e-12
    )
    assert not np.all(model.params["out_w"] == 0.0)


def test_eval_cross_entropy_matches_naive_recompute():
    model = tiny_model(num_negatives=2)
    batch, y = tiny_batch(model, 9, seed=16)
    got = model.eval_cross_entropy(batch)
    params = model.params
    total = 0.0
    for r in range(9):
        x = list(params["emb_kind"][batch.categorical[r, 0]]) + list(
            batch.continuous[r]
        )
        h = x
        for layer in (1, 2):
            w, b = params[f"w{layer}"], params[f"b{layer}"]
            h = [
                max(0.0, sum(h[i] * w[i, j] for i in range(len(h))) + b[j])
                for j in range(w.shape[1])
            ]
        logits = [
            sum(h[i] * params["out_w"][i, k] for i in range(len(h)))
            + params["out_b"][k]
            for k in range(model.n_classes)
        ]
        z = sum(math.exp(v) for v in logits)
        total -= math.log(math.exp(logits[y[r]]) / z)
    assert got == pytest.approx(total / 9.0, abs=1e-10)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_cross_entropy_equals_log_softmax_formula(monkeypatch, dtype):
    # Chunks of 4 over 9 rows: two full chunks and a short one. Few rows
    # per call keep the running total small, so that a change in the last
    # bit of one chunk's sum shows in the result; 30 models give many
    # chances for one to.
    monkeypatch.setattr(model_module, "EVAL_CHUNK", 4)
    for seed in range(30):
        model = tiny_model(n_classes=40, dtype=dtype, seed=seed)
        model.params["out_w"] *= 5.0  # logits several nats apart
        batch, y = tiny_batch(model, 9, seed=seed + 100)
        total = 0.0
        for start in range(0, 9, 4):
            sl = slice(start, min(start + 4, 9))
            logits = model.head_outputs(batch.categorical[sl], batch.continuous[sl])
            lsm = nn.log_softmax(logits.astype(np.float64))
            total -= float(lsm[np.arange(y[sl].size), y[sl]].sum())
        assert model._cross_entropy(batch.categorical, batch.continuous, y) == total / 9


def test_predict_probs_normalized():
    model = tiny_model(num_negatives=2)
    batch, _ = tiny_batch(model, 30, seed=17)
    probs = model.predict_probs(batch)
    assert probs.shape == (30, model.n_classes)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(probs >= 0.0)


def test_build_from_real_pipeline_and_fit(small_dataset):
    world, train, _ = small_dataset
    pipe = fit_pipeline(train, world.destinations)
    batches = encode_events(train, world.destinations, pipe)
    shard, batch = max(batches.items(), key=lambda kv: len(kv[1]))
    vocab = build_vocab(shard, batch.booked_cells)
    cfg = TrainConfig(hidden=(16, 8), epochs=1, batch_size=64, num_negatives=8)
    model = ShardModel.build(cfg, pipe, vocab)
    names = list(model.params)
    assert names[: len(model.spec.emb_names)] == [
        f"emb_{n}" for n in model.spec.emb_names
    ]
    assert names[-2:] == ["out_w", "out_b"]
    assert model.params["w1"].shape == (9 * 16 + 3, 16)
    assert model.params["out_w"].shape == (8, len(vocab))
    assert model.params["w1"].dtype == np.float32
    log = model.fit(batch)
    assert len(log) == 1 and model.trained
    probs = model.predict_probs(batch.take(np.arange(32)))
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-5)


def test_full_scale_config_widens_model():
    base = TrainConfig()
    full = full_scale_config(base)
    assert full.hidden == (1024, 2056, 1024, 256)
    assert full.num_negatives == 25000
    assert full.learning_rate == base.learning_rate
    assert full.batch_size == base.batch_size


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(dtype="float16")
    with pytest.raises(ConfigError):
        TrainConfig(epochs=-1)
    with pytest.raises(ConfigError):
        TrainConfig(patience=0)
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(hidden=())


def test_unknown_shard_rejected():
    vocab, _ = make_vocab(3, shard="MOON")
    model = tiny_model(num_negatives=1)
    model.vocab = vocab
    with pytest.raises(ConfigError):
        model.with_zeroed_output()
