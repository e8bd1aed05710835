"""Per-shard cell classifier: embedding trunk plus a K-way output layer
trained with a sampled softmax.

Each search event has exactly one booked cell, so training treats the
event's class as the single positive and scores it against a set of
negative classes drawn uniformly without replacement from the classes
that are nobody's positive in the batch. No proposal-distribution
correction is applied. When the negative set is the entire remaining
class space (num_negatives == n_classes - 1 with one distinct positive
in the batch), the sampled loss equals the full softmax loss exactly;
tests pin that equivalence.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .features import EncodedBatch, FeaturePipeline, SHARDS
from .labels import LabelVocabulary
from .nn import (
    FULL_SCALE_HIDDEN,
    TrunkModel,
    build_trunk_model,
    clone_params,
    ensure_finite,
    fit_epochs,
    holdout_split,
    log_softmax,
    scatter_rows,
    sgd_update,
    trunk_backward,
    trunk_forward,
    validate_trunk_config,
)

EVAL_CHUNK = 2048


@dataclass(frozen=True)
class TrainConfig:
    """Classifier hyperparameters. Defaults are the reduced desk scale."""

    embed_dim: int = 16
    hidden: tuple[int, ...] = (64, 128, 64, 32)
    learning_rate: float = 0.002
    epochs: int = 16
    patience: int = 2
    batch_size: int = 512
    num_negatives: int = 512
    seed: int = 7
    dtype: str = "float32"

    def __post_init__(self):
        validate_trunk_config(self)
        if self.num_negatives < 1:
            raise ConfigError("num_negatives must be >= 1")


def full_scale_config(base: TrainConfig) -> TrainConfig:
    """The production-sized variant: wider trunk, far more negatives."""
    return replace(base, hidden=FULL_SCALE_HIDDEN, num_negatives=25000)


def sample_negatives(rng, n_classes, targets, num_negatives) -> np.ndarray:
    """One negative class set shared by the whole batch.

    Drawn uniformly without replacement from the classes that are not a
    positive of any batch row. Raises when the request cannot be met.
    """
    free = np.ones(n_classes, dtype=bool)
    free[targets] = False
    pool = np.flatnonzero(free)
    if num_negatives > pool.size:
        raise ConfigError(
            f"num_negatives={num_negatives} exceeds the {pool.size} classes "
            "available after excluding the batch positives"
        )
    return rng.choice(pool, size=num_negatives, replace=False)


def sampled_loss_and_grads(params, spec, categorical, continuous, targets, negatives):
    """Mean sampled-softmax loss and gradients for every parameter.

    Each row's candidate columns are its own positive followed by the
    shared negatives; the loss is the cross entropy of column 0.
    """
    n = targets.size
    if n == 0:
        raise DataError("empty batch")
    h, cache = trunk_forward(params, spec, categorical, continuous)
    out_w = params["out_w"]
    out_b = params["out_b"]
    pos_w = out_w[:, targets]  # (H, N)
    pos_logit = np.einsum("nh,hn->n", h, pos_w) + out_b[targets]
    neg_logits = h @ out_w[:, negatives] + out_b[negatives]
    logits = np.concatenate([pos_logit[:, None], neg_logits], axis=1)
    lsm = log_softmax(logits)
    loss = float(-lsm[:, 0].mean())

    dlogits = np.exp(lsm)
    dlogits[:, 0] -= 1.0
    dlogits /= n
    grads: dict[str, np.ndarray] = {}
    # Positive columns may repeat across rows, so scatter-add per row.
    g_out_w = scatter_rows(out_w.shape[1], targets, dlogits[:, :1] * h).T
    g_out_b = np.zeros_like(out_b)
    np.add.at(g_out_b, targets, dlogits[:, 0])
    # Negative columns are distinct, so fancy indexing adds safely.
    g_out_w[:, negatives] += h.T @ dlogits[:, 1:]
    g_out_b[negatives] += dlogits[:, 1:].sum(axis=0)
    dh = dlogits[:, :1] * pos_w.T + dlogits[:, 1:] @ out_w[:, negatives].T
    trunk_backward(params, spec, cache, dh, grads)
    grads["out_w"] = g_out_w
    grads["out_b"] = g_out_b
    return loss, grads, logits


def full_loss_and_grads(params, spec, categorical, continuous, targets):
    """Mean full-softmax cross entropy and gradients."""
    n = targets.size
    if n == 0:
        raise DataError("empty batch")
    h, cache = trunk_forward(params, spec, categorical, continuous)
    logits = h @ params["out_w"] + params["out_b"]
    lsm = log_softmax(logits)
    rows = np.arange(n)
    loss = float(-lsm[rows, targets].mean())

    dlogits = np.exp(lsm)
    dlogits[rows, targets] -= 1.0
    dlogits /= n
    grads: dict[str, np.ndarray] = {}
    grads_out_w = h.T @ dlogits
    grads_out_b = dlogits.sum(axis=0)
    dh = dlogits @ params["out_w"].T
    trunk_backward(params, spec, cache, dh, grads)
    grads["out_w"] = grads_out_w
    grads["out_b"] = grads_out_b
    return loss, grads, logits


def shard_index(shard: str) -> int:
    """The shard's place in SHARDS, which picks its models' seed stream."""
    try:
        return SHARDS.index(shard)
    except ValueError:
        raise ConfigError(f"unknown shard {shard!r}") from None


class ShardModel(TrunkModel):
    """One shard's classifier: parameters, class space, and train state."""

    def __init__(self, config, spec, vocab, params, rng, trained=False):
        super().__init__(config, spec, params, rng, trained)
        self.vocab = vocab

    @classmethod
    def build(cls, config: TrainConfig, pipeline: FeaturePipeline, vocab: LabelVocabulary):
        spec, params, rng = build_trunk_model(
            config, pipeline, len(vocab), shard_index(vocab.shard)
        )
        return cls(config, spec, vocab, params, rng)

    @property
    def shard(self) -> str:
        return self.vocab.shard

    @property
    def n_classes(self) -> int:
        return len(self.vocab)

    def train_step(self, categorical, continuous, targets) -> float:
        """One SGD step on a batch, drawing its negatives from the model's
        rng; returns the loss before the update."""
        negatives = sample_negatives(
            self.rng, self.n_classes, targets, self.config.num_negatives
        )
        loss, grads, logits = sampled_loss_and_grads(
            self.params, self.spec, categorical, continuous, targets, negatives
        )
        ensure_finite("training logits", logits, log=self.train_log)
        if not np.isfinite(loss):
            raise NumericError("training loss diverged", log=self.train_log)
        sgd_update(self.params, grads, self.config.learning_rate)
        return loss

    def _targets_of(self, batch: EncodedBatch):
        """Class indices for a batch; rows with out-of-vocabulary booked
        cells are dropped and counted."""
        idx = self.vocab.lookup_array(batch.booked_cells)
        keep = idx >= 0
        if not keep.any():
            raise DataError(
                f"no {self.shard} events have in-vocabulary booked cells"
            )
        return batch.take(np.flatnonzero(keep)), idx[keep], int((~keep).sum())

    def fit(self, batch: EncodedBatch):
        """Mini-batch SGD with early stopping on held-out cross entropy.

        10% of the in-vocabulary rows (at least one) are held out, and the
        parameters from the best validation epoch are kept. Returns the
        per-epoch log.
        """
        batch, targets, dropped = self._targets_of(batch)
        train_rows, val_rows = holdout_split(self.rng, targets.size)
        val, val_y = batch.take(val_rows), targets[val_rows]

        def step(rows):
            loss = self.train_step(batch.categorical[rows], batch.continuous[rows], targets[rows])
            return {"train_loss": loss}

        def validate(epoch):
            return {
                "val_ce": self._cross_entropy(val.categorical, val.continuous, val_y),
                "dropped_events": dropped if epoch == 0 else 0,
            }

        return fit_epochs(self, train_rows, step, validate, "val_ce")

    def _cross_entropy(self, categorical, continuous, targets) -> float:
        """Full-softmax cross entropy, computed in row chunks. The
        log-softmax and the sum run in float64 whatever the model dtype,
        so the metric is not polluted by accumulation rounding."""
        total = 0.0
        n = targets.size
        for start in range(0, n, EVAL_CHUNK):
            sl = slice(start, min(start + EVAL_CHUNK, n))
            # log_softmax's steps, in place on one float64 matrix, reading
            # only the target entries of the result.
            shifted = self.head_outputs(categorical[sl], continuous[sl]).astype(
                np.float64, copy=False
            )
            shifted -= shifted.max(axis=1, keepdims=True)
            picked = shifted[np.arange(targets[sl].size), targets[sl]]
            np.exp(shifted, out=shifted)
            total -= float((picked - np.log(shifted.sum(axis=1))).sum())
        return total / n

    def eval_cross_entropy(self, batch: EncodedBatch) -> float:
        """Mean cross entropy over the batch rows with in-vocabulary
        booked cells."""
        batch, targets, _ = self._targets_of(batch)
        return self._cross_entropy(batch.categorical, batch.continuous, targets)

    def predict_probs(self, batch: EncodedBatch) -> np.ndarray:
        """(N, n_classes) class probabilities. Callers chunk large batches."""
        logits = self.head_outputs(batch.categorical, batch.continuous)
        ensure_finite("prediction logits", logits)
        return np.exp(log_softmax(logits))

    def with_zeroed_output(self) -> "ShardModel":
        """A copy whose output layer is explicitly zeroed, so every class
        gets probability 1/n_classes. Diagnostic: its cross entropy must
        equal ln(n_classes) on any batch."""
        twin = copy.copy(self)
        twin.params = clone_params(self.params)
        twin.params["out_w"][:] = 0.0
        twin.params["out_b"][:] = 0.0
        twin.rng = np.random.default_rng((self.config.seed, shard_index(self.shard)))
        twin.train_log = list(self.train_log)
        return twin
