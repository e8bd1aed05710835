"""Embedding tables and dense ReLU layers on numpy arrays, with
hand-written gradients.

Parameters live in a plain dict keyed by name, in a canonical order:
one embedding table per categorical feature (feature order), then the
hidden dense layers, then the output layer. Everything downstream
(SGD updates, gradient checks, checkpoints) walks that dict.

The two models built on the trunk, the shard classifier and the bounds
regressor, share one config validator, one builder, one state class
(TrunkModel) and one training loop (fit_epochs) from here.

Gradients that land on looked-up rows (all embedding tables at once, and
the classifier's positive output columns in model.py) are summed by
scatter_rows, one 1-d np.add.at into a flat buffer. np.add.at into a 2-d
table takes numpy's slow path, about four times slower on a training
batch. The flat index keeps the batch's row order, so every entry sums
the same values in the same order: the gradients are bit for bit those
of a per-table 2-d scatter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericError

DTYPES = {"float32": np.float32, "float64": np.float64}

# Trunk widths of the production-sized models (`full_scale`).
FULL_SCALE_HIDDEN = (1024, 2056, 1024, 256)


def glorot_limit(fan_in: int, fan_out: int) -> float:
    return math.sqrt(6.0 / (fan_in + fan_out))


def init_dense(rng, fan_in, fan_out, dtype):
    """Glorot-uniform weight matrix and zero bias."""
    lim = glorot_limit(fan_in, fan_out)
    w = rng.uniform(-lim, lim, size=(fan_in, fan_out)).astype(dtype)
    b = np.zeros(fan_out, dtype=dtype)
    return w, b


def init_embedding(rng, n_rows, dim, dtype):
    """Glorot-uniform table; the row count plays the fan-in role."""
    lim = glorot_limit(n_rows, dim)
    return rng.uniform(-lim, lim, size=(n_rows, dim)).astype(dtype)


def ensure_finite(name: str, arr, log=None):
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values in {name}", log=log)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax, shift-stabilized."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) without overflow for large x."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass
class TrunkSpec:
    """Shapes of the shared feature trunk.

    emb_names orders the embedding tables; emb_rows gives each table's
    row count (vocabulary size including the unknown row).
    """

    emb_names: tuple[str, ...]
    emb_rows: tuple[int, ...]
    emb_dim: int
    n_continuous: int
    hidden: tuple[int, ...]

    def __post_init__(self):
        if len(self.emb_names) != len(self.emb_rows):
            raise ConfigError("emb_names and emb_rows length mismatch")
        if not self.emb_names and self.n_continuous == 0:
            raise ConfigError("trunk has no inputs")
        if self.emb_dim < 1 or any(h < 1 for h in self.hidden):
            raise ConfigError("embedding dim and hidden widths must be >= 1")
        if not self.hidden:
            raise ConfigError("trunk needs at least one hidden layer")

    @property
    def input_dim(self) -> int:
        return len(self.emb_names) * self.emb_dim + self.n_continuous

    @property
    def output_dim(self) -> int:
        return self.hidden[-1]

    def param_names(self) -> list[str]:
        names = [f"emb_{n}" for n in self.emb_names]
        for i in range(1, len(self.hidden) + 1):
            names += [f"w{i}", f"b{i}"]
        return names


def init_trunk(rng, spec: TrunkSpec, dtype) -> dict:
    """Parameter dict in canonical order: embeddings, then dense layers."""
    params: dict[str, np.ndarray] = {}
    for name, rows in zip(spec.emb_names, spec.emb_rows):
        params[f"emb_{name}"] = init_embedding(rng, rows, spec.emb_dim, dtype)
    fan_in = spec.input_dim
    for i, width in enumerate(spec.hidden, start=1):
        params[f"w{i}"], params[f"b{i}"] = init_dense(rng, fan_in, width, dtype)
        fan_in = width
    return params


def validate_trunk_config(cfg):
    """Range checks on the fields every trunk-model config shares:
    embed_dim, hidden, learning_rate, epochs, patience, batch_size and
    dtype (seed takes any integer)."""
    if cfg.embed_dim < 1:
        raise ConfigError("embed_dim must be >= 1")
    if not cfg.hidden or any(h < 1 for h in cfg.hidden):
        raise ConfigError("hidden widths must be >= 1")
    if not (0 < cfg.learning_rate < 1):
        raise ConfigError("learning_rate must lie in (0, 1)")
    if cfg.epochs < 0:
        raise ConfigError("epochs must be >= 0")
    if cfg.patience < 1:
        raise ConfigError("patience must be >= 1")
    if cfg.batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    if cfg.dtype not in DTYPES:
        raise ConfigError(f"dtype must be one of {sorted(DTYPES)}")


def trunk_inputs(pipeline) -> tuple[tuple[str, ...], tuple[int, ...], int]:
    """(emb_names, emb_rows, n_continuous) of a trunk over a fitted
    feature pipeline: one embedding table per categorical feature, in
    layout order, and the continuous width."""
    sizes = pipeline.vocab_sizes()
    return tuple(sizes), tuple(sizes.values()), int(pipeline.continuous_mean.size)


def build_trunk_model(config, pipeline, n_outputs: int, stream: int):
    """Spec, initial parameters and rng of a new trunk model over a fitted
    feature pipeline, with an n_outputs-wide linear head. The rng, seeded
    with (config.seed, stream) so that models sharing a seed draw
    independent streams, initializes the parameters and then trains them."""
    emb_names, emb_rows, n_continuous = trunk_inputs(pipeline)
    spec = TrunkSpec(emb_names, emb_rows, config.embed_dim, n_continuous, tuple(config.hidden))
    dtype = DTYPES[config.dtype]
    rng = np.random.default_rng((config.seed, stream))
    params = init_trunk(rng, spec, dtype)
    params["out_w"], params["out_b"] = init_dense(rng, spec.output_dim, n_outputs, dtype)
    return spec, params, rng


@dataclass
class TrunkCache:
    """Forward-pass intermediates needed by trunk_backward."""

    categorical: np.ndarray
    layer_inputs: list  # h_0 (the concatenated input) .. h_{L-1}
    pre_acts: list  # z_1 .. z_L


def trunk_forward(params, spec: TrunkSpec, categorical, continuous):
    """Embed, concatenate, and run the ReLU stack.

    categorical is (N, m) int indices, continuous (N, c) float. Returns
    (h, cache) where h is the last hidden activation (N, hidden[-1]).
    """
    dtype = params["w1"].dtype
    cols = [
        params[f"emb_{name}"][categorical[:, j]]
        for j, name in enumerate(spec.emb_names)
    ]
    if spec.n_continuous:
        cols.append(np.asarray(continuous, dtype=dtype))
    x = np.concatenate(cols, axis=1) if len(cols) > 1 else cols[0]
    layer_inputs = [x]
    pre_acts = []
    h = x
    for i in range(1, len(spec.hidden) + 1):
        z = h @ params[f"w{i}"] + params[f"b{i}"]
        h = np.maximum(z, 0.0)
        pre_acts.append(z)
        if i < len(spec.hidden):
            layer_inputs.append(h)
    return h, TrunkCache(categorical, layer_inputs, pre_acts)


class TrunkModel:
    """State of a model built on the trunk: config, spec, parameters
    (embeddings, dense layers, then the out_w/out_b head), the rng that
    trains it, and the train state that fit_epochs keeps. Subclasses
    define fit and train_step themselves, so the benchmark's tracing can
    wrap each class's own methods."""

    def __init__(self, config, spec, params, rng, trained=False):
        self.config = config
        self.spec = spec
        self.params = params
        self.rng = rng
        self.trained = trained
        self.train_log = []
        self.best_epoch = -1

    def head_outputs(self, categorical, continuous):
        """Output-layer values for a batch of rows."""
        h, _ = trunk_forward(self.params, self.spec, categorical, continuous)
        return h @ self.params["out_w"] + self.params["out_b"]


def trunk_backward(params, spec: TrunkSpec, cache: TrunkCache, dh, grads):
    """Backprop dh (gradient at the trunk output) into grads, in place."""
    n_layers = len(spec.hidden)
    for i in range(n_layers, 0, -1):
        dz = dh * (cache.pre_acts[i - 1] > 0)
        grads[f"w{i}"] = cache.layer_inputs[i - 1].T @ dz
        grads[f"b{i}"] = dz.sum(axis=0)
        dh = dz @ params[f"w{i}"].T
    # All tables are scattered at once, stacked: row r of table j is row
    # starts[j] + r, and each table's gradient is a view of its rows. The
    # continuous tail of dh has no parameters behind it.
    m, dim = len(spec.emb_names), spec.emb_dim
    starts = np.cumsum([0, *spec.emb_rows])
    stacked = scatter_rows(
        int(starts[-1]),
        (cache.categorical + starts[:-1]).reshape(-1),
        dh[:, : m * dim].reshape(-1, dim),
    )
    for j, name in enumerate(spec.emb_names):
        grads[f"emb_{name}"] = stacked[starts[j] : starts[j + 1]]


def scatter_rows(n_rows: int, rows, values) -> np.ndarray:
    """(n_rows, w) sums of the rows of values (N, w) by their row index
    rows (N,), each output row adding its values in batch order: what
    np.add.at(out, rows, values) gives on a zeroed 2-d out, bit for bit.
    It runs as one 1-d np.add.at at flat index rows[k] * w + c, off the
    slow path numpy takes for a 2-d target (see the module docstring)."""
    width = values.shape[1]
    out = np.zeros(n_rows * width, dtype=values.dtype)
    np.add.at(out, (rows[:, None] * width + np.arange(width)).reshape(-1), values.reshape(-1))
    return out.reshape(n_rows, width)


def sgd_update(params: dict, grads: dict, learning_rate: float):
    for name, g in grads.items():
        params[name] -= learning_rate * g


def clone_params(params: dict) -> dict:
    return {name: arr.copy() for name, arr in params.items()}


def holdout_split(rng, n: int):
    """(train_rows, val_rows): a seeded 10% validation holdout of n rows,
    at least one row."""
    if n < 2:
        raise DataError("need at least 2 events to split off validation")
    perm = rng.permutation(n)
    n_val = max(1, int(round(0.1 * n)))
    return perm[n_val:], perm[:n_val]


def fit_epochs(model, train_rows, step, validate, val_key: str) -> list[dict]:
    """Mini-batch SGD epochs with early stopping and best-epoch restore.

    Each epoch permutes train_rows with model.rng and calls step(rows) per
    mini-batch; the epoch's log entry averages the dicts step returns and
    adds the figures validate(epoch) returns, of which val_key is
    minimized. Training stops after config.patience epochs without a new
    best and keeps the best epoch's parameters. The log is returned, and
    is model.train_log while training runs so a NumericError can carry it.
    """
    cfg = model.config
    log: list[dict] = []
    model.train_log = log
    best = np.inf
    best_params = None
    bad_epochs = 0
    for epoch in range(cfg.epochs):
        order = model.rng.permutation(train_rows.size)
        steps = [
            step(train_rows[order[start : start + cfg.batch_size]])
            for start in range(0, order.size, cfg.batch_size)
        ]
        entry = {"epoch": epoch}
        for key in steps[0]:
            entry[key] = float(np.mean([s[key] for s in steps]))
        entry.update(validate(epoch))
        if not np.isfinite(entry[val_key]):
            raise NumericError(f"validation {val_key} diverged", log=log)
        log.append(entry)
        if entry[val_key] < best:
            best = entry[val_key]
            best_params = clone_params(model.params)
            model.best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break
    if best_params is not None:
        model.params = best_params
    model.trained = True
    return log
