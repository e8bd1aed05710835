"""Tiny synthetic models and batches shared by the model-layer tests."""

import copy
import json

import numpy as np

from cellsearch import nn
from cellsearch.baseline import BoundsConfig, BoundsModel
from cellsearch.features import EncodedBatch
from cellsearch.labels import LabelVocabulary
from cellsearch.model import ShardModel, TrainConfig
from cellsearch.s2geom import cells_from_latlng_vec

# The two trunk models, which share one training loop, and the name of
# the validation figure each one's loop minimizes.
VAL_KEYS = {"classifier": "val_ce", "bounds": "val_loss"}


def make_vocab(n_classes, seed=0, shard="EU"):
    """A label vocabulary over random retrieval-level cells, plus one
    spare cell guaranteed to be outside it."""
    rng = np.random.default_rng(seed)
    cells = np.empty(0, dtype=np.uint64)
    while cells.size < n_classes + 1:
        lats = rng.uniform(-80, 80, size=4 * (n_classes + 1))
        lngs = rng.uniform(-180, 180, size=lats.size)
        cells = np.unique(cells_from_latlng_vec(lats, lngs, 11))
    vocab = LabelVocabulary(shard, cells[:n_classes])
    spare = int(cells[n_classes])
    return vocab, spare


def tiny_model(n_classes=7, hidden=(5, 4), dtype="float64", seed=0, **cfg_kw):
    """A hand-assembled one-categorical-feature model, small enough for
    finite-difference gradient checks."""
    cfg_kw.setdefault("num_negatives", max(1, n_classes - 4))
    cfg = TrainConfig(embed_dim=3, hidden=hidden, dtype=dtype, seed=seed, **cfg_kw)
    spec = nn.TrunkSpec(
        emb_names=("kind",),
        emb_rows=(4,),
        emb_dim=3,
        n_continuous=2,
        hidden=hidden,
    )
    vocab, spare = make_vocab(n_classes, seed=seed)
    np_dtype = nn.DTYPES[dtype]
    rng = np.random.default_rng(seed)
    params = nn.init_params(rng, nn.trunk_layout(spec, n_classes), np_dtype)
    model = ShardModel(cfg, spec, vocab, params, rng)
    model.spare_cell = spare
    return model


def tiny_bounds(seed=0, dtype="float64", **cfg_kw):
    """A hand-assembled bounds regressor with the tiny_model trunk."""
    cfg = BoundsConfig(embed_dim=3, hidden=(5, 4), dtype=dtype, seed=seed, **cfg_kw)
    spec = nn.TrunkSpec(
        emb_names=("kind",), emb_rows=(4,), emb_dim=3, n_continuous=2, hidden=(5, 4)
    )
    np_dtype = nn.DTYPES[dtype]
    rng = np.random.default_rng(seed)
    params = nn.init_params(rng, nn.trunk_layout(spec, 4), np_dtype)
    return BoundsModel(cfg, spec, params, rng)


def tiny_fit(kind, n=32, seed=0, data_seed=1, **cfg_kw):
    """A tiny model of either kind with n random training rows.

    Returns (model, fit, holdout): fit() trains and returns the log, and
    holdout() is the validation figure the fit minimizes, computed from
    the model's current parameters. Both kinds validate on their own
    holdout split, found by replaying the split (the first draw of the
    model's rng) on a copy.
    """
    if kind == "classifier":
        model = tiny_model(n_classes=5, num_negatives=1, seed=seed, **cfg_kw)
        batch, _ = tiny_batch(model, n, seed=data_seed)
        _, val_rows = nn.holdout_split(copy.deepcopy(model.rng), n)
        return (
            model,
            lambda: model.fit(batch),
            lambda: model.eval_cross_entropy(batch.take(val_rows)),
        )
    model = tiny_bounds(seed=seed, **cfg_kw)
    batch, _ = tiny_batch(tiny_model(seed=seed), n, seed=data_seed)
    targets = np.random.default_rng(data_seed).normal(scale=0.5, size=(n, 2))
    _, val_rows = nn.holdout_split(copy.deepcopy(model.rng), n)
    return (
        model,
        lambda: model.fit(batch, targets),
        lambda: model.eval_loss(batch.take(val_rows), targets[val_rows])[0],
    )


def edit_checkpoint_echo(path, **changes):
    """Rewrite the config line of a checkpoint file with the given echo
    fields set, keeping every other byte."""
    magic, kind, config, rest = path.read_bytes().split(b"\n", 3)
    echo = dict(json.loads(config.removeprefix(b"config ")), **changes)
    config = b"config " + json.dumps(echo, sort_keys=True).encode()
    path.write_bytes(b"\n".join([magic, kind, config, rest]))


def tiny_batch(model, n, seed=1, targets=None):
    """Random inputs for a tiny model; returns (EncodedBatch, class ids)."""
    rng = np.random.default_rng(seed)
    m = len(model.spec.emb_names)
    cat = rng.integers(0, np.array(model.spec.emb_rows), size=(n, m))
    cont = rng.normal(size=(n, model.spec.n_continuous))
    y = rng.integers(0, model.n_classes, size=n) if targets is None else targets
    batch = EncodedBatch(
        model.shard,
        np.arange(n),
        np.zeros(n, dtype=np.int64),
        cont,
        cat,
        model.vocab.classes[y],
        np.ones(n, dtype=np.int64),
    )
    return batch, np.asarray(y)


def relu_margin_inputs(make_model, make_inputs, floor=1e-3, tries=30):
    """Search deterministic seeds for a model/input pair whose
    pre-activations all sit at least `floor` from the ReLU kink, so
    finite-difference probes cannot cross it."""
    for seed in range(tries):
        model = make_model(seed)
        args = make_inputs(model, seed)
        _, cache = nn.trunk_forward(model.params, model.spec, args[0], args[1])
        margin = min(float(np.abs(z).min()) for z in cache.pre_acts)
        if margin > floor:
            return model, args
    raise AssertionError(f"no seed in range({tries}) gave ReLU margin > {floor}")


def numerical_gradient(loss_fn, params: dict, eps: float = 1e-5) -> dict:
    """Central finite differences of loss_fn() w.r.t. every param element.

    loss_fn reads params by reference, so elements are perturbed in
    place and restored. Meant for small float64 models.
    """
    grads = {}
    for name, arr in params.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            hi = loss_fn()
            flat[k] = orig - eps
            lo = loss_fn()
            flat[k] = orig
            gflat[k] = (hi - lo) / (2.0 * eps)
        grads[name] = g
    return grads


def gradient_rel_errors(analytic: dict, numeric: dict) -> dict:
    """Per-parameter worst relative error, with a unit floor on the scale."""
    out = {}
    for name in analytic:
        a = analytic[name]
        n = numeric[name]
        scale = np.maximum(1.0, np.abs(a) + np.abs(n))
        out[name] = float(np.max(np.abs(a - n) / scale))
    return out
