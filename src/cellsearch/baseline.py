"""Bounds-regressor baseline: the same feature trunk as the classifier,
but a four-output head predicting a lat/lng box around the destination.

Outputs are (lat offset, lng offset, raw lat half-extent, raw lng
half-extent), all in degrees relative to the destination center. Raw
half-extents pass through softplus plus a small floor so boxes never
collapse to zero area. The loss is a hinge on the booked location
falling outside the box plus a size penalty:

    alpha * (miss_lat + miss_lng) + beta * (half_lat + half_lng)

with miss_lat = max(0, |target_dlat - pred_dlat| - half_lat) and the
lng term analogous. Both components are logged separately per epoch.
Regression targets are the centers of the booked retrieval-level cells,
matching how retrieval quality is judged downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .features import EncodedBatch, FeaturePipeline
from .labels import RETRIEVAL_LEVEL
from .nn import (
    FULL_SCALE_HIDDEN,
    TrunkModel,
    build_trunk_model,
    ensure_finite,
    fit_epochs,
    holdout_split,
    sgd_update,
    sigmoid,
    softplus,
    trunk_backward,
    trunk_forward,
    validate_trunk_config,
)
from .s2geom import GeoRect, cell_centers_vec, cover_rect_raw

# Seed stream of the bounds regressor; the shard classifiers use 0..2.
BOUNDS_STREAM = 3

MIN_EXTENT_DEG = 1e-4

BETA_GRID = (0.3, 0.1, 0.03, 0.01, 0.003, 0.001)

EVAL_CHUNK = 4096


@dataclass(frozen=True)
class BoundsConfig:
    """Baseline hyperparameters. Defaults mirror the classifier trunk."""

    embed_dim: int = 16
    hidden: tuple[int, ...] = (64, 128, 64, 32)
    learning_rate: float = 0.002
    epochs: int = 16
    patience: int = 2
    batch_size: int = 512
    alpha: float = 1.0
    beta: float = 0.01
    seed: int = 7
    dtype: str = "float32"

    def __post_init__(self):
        validate_trunk_config(self)
        if self.alpha <= 0:
            raise ConfigError("alpha must be > 0")
        if self.beta < 0:
            raise ConfigError("beta must be >= 0")


def full_scale_bounds_config(base: BoundsConfig) -> BoundsConfig:
    return replace(base, hidden=FULL_SCALE_HIDDEN)


def destination_coords(batch: EncodedBatch, destinations) -> np.ndarray:
    """(N, 2) destination-center lat/lng per event row."""
    by_id = {d.dest_id: (d.lat, d.lng) for d in destinations}
    try:
        return np.array([by_id[int(d)] for d in batch.dest_ids], dtype=np.float64)
    except KeyError as e:
        raise DataError(f"event references unknown destination {e}") from None


def offset_targets(batch: EncodedBatch, dest_coords: np.ndarray) -> np.ndarray:
    """(N, 2) booked-cell-center offsets from the destination, degrees.

    Longitude differences are wrapped to (-180, 180]."""
    lats, lngs = cell_centers_vec(batch.booked_cells, RETRIEVAL_LEVEL)
    dlat = lats - dest_coords[:, 0]
    dlng = np.remainder(lngs - dest_coords[:, 1] + 180.0, 360.0) - 180.0
    return np.stack([dlat, dlng], axis=1)


def bounds_loss_and_grads(params, spec, categorical, continuous, targets,
                          alpha, beta):
    """Mean loss, gradients, and (miss_term, size_term) components.

    targets is (N, 2) true offsets in degrees. Both returned components
    are already means over the batch, so loss == alpha * miss + beta * size.
    """
    n = targets.shape[0]
    if n == 0:
        raise DataError("empty batch")
    h, cache = trunk_forward(params, spec, categorical, continuous)
    out = h @ params["out_w"] + params["out_b"]  # (N, 4)
    pred_off = out[:, :2]
    raw_ext = out[:, 2:]
    half = softplus(raw_ext) + MIN_EXTENT_DEG  # (N, 2)
    resid = targets - pred_off
    miss = np.maximum(0.0, np.abs(resid) - half)  # (N, 2)
    miss_term = float(miss.sum(axis=1).mean())
    size_term = float(half.sum(axis=1).mean())
    loss = alpha * miss_term + beta * size_term

    active = miss > 0.0
    dout = np.empty_like(out)
    # d miss / d pred_off = -sign(resid) where the hinge is active.
    dout[:, :2] = alpha * active * (-np.sign(resid)) / n
    # d loss / d raw_ext flows through softplus' derivative (sigmoid).
    dhalf = (beta - alpha * active) / n
    dout[:, 2:] = dhalf * sigmoid(raw_ext)
    grads: dict[str, np.ndarray] = {}
    grads_out_w = h.T @ dout
    grads_out_b = dout.sum(axis=0)
    dh = dout @ params["out_w"].T
    trunk_backward(params, spec, cache, dh, grads)
    grads["out_w"] = grads_out_w
    grads["out_b"] = grads_out_b
    return loss, grads, (miss_term, size_term)


class BoundsModel(TrunkModel):
    """Trainable bounds regressor over one dataset (not sharded)."""

    @classmethod
    def build(cls, config: BoundsConfig, pipeline: FeaturePipeline):
        spec, params, rng = build_trunk_model(config, pipeline, 4, BOUNDS_STREAM)
        return cls(config, spec, params, rng)

    def train_step(self, categorical, continuous, targets):
        """One SGD step; returns the pre-update (loss, miss, size)."""
        loss, grads, parts = bounds_loss_and_grads(
            self.params,
            self.spec,
            categorical,
            continuous,
            targets,
            self.config.alpha,
            self.config.beta,
        )
        if not np.isfinite(loss):
            raise NumericError("bounds loss diverged", log=self.train_log)
        sgd_update(self.params, grads, self.config.learning_rate)
        return loss, parts

    def fit(self, batch: EncodedBatch, targets: np.ndarray):
        """Mini-batch SGD with a 10% validation holdout and best-epoch
        restore: the same loop as the classifier's."""
        if targets.shape[0] != len(batch):
            raise DataError("targets and batch rows disagree")
        train_rows, val_rows = holdout_split(self.rng, targets.shape[0])
        val, val_targets = batch.take(val_rows), targets[val_rows]

        def step(rows):
            loss, (miss, size) = self.train_step(
                batch.categorical[rows], batch.continuous[rows], targets[rows]
            )
            return {"train_loss": loss, "train_miss": miss, "train_size": size}

        def validate(epoch):
            return {"val_loss": self.eval_loss(val, val_targets)[0]}

        return fit_epochs(self, train_rows, step, validate, "val_loss")

    def eval_loss(self, batch: EncodedBatch, targets: np.ndarray):
        """(loss, miss_term, size_term) without touching parameters."""
        total = np.zeros(3)
        n = targets.shape[0]
        for start in range(0, n, EVAL_CHUNK):
            sl = slice(start, min(start + EVAL_CHUNK, n))
            m = sl.stop - sl.start
            loss, _, (miss, size) = bounds_loss_and_grads(
                self.params,
                self.spec,
                batch.categorical[sl],
                batch.continuous[sl],
                targets[sl],
                self.config.alpha,
                self.config.beta,
            )
            total += np.array([loss, miss, size]) * m
        out = total / n
        return float(out[0]), float(out[1]), float(out[2])

    def predict_offsets(self, batch: EncodedBatch):
        """(pred_off, half) arrays in degrees, (N, 2) each."""
        out = self.head_outputs(batch.categorical, batch.continuous)
        ensure_finite("bounds outputs", out)
        return out[:, :2].astype(np.float64), (
            softplus(out[:, 2:].astype(np.float64)) + MIN_EXTENT_DEG
        )

    def predict_bounds(self, batch: EncodedBatch, dest_coords: np.ndarray):
        """One GeoRect per event, centered near the destination."""
        pred_off, half = self.predict_offsets(batch)
        rects = []
        for r in range(len(batch)):
            lat = min(90.0, max(-90.0, dest_coords[r, 0] + pred_off[r, 0]))
            lng = math.remainder(dest_coords[r, 1] + pred_off[r, 1], 360.0)
            if lng == -180.0:
                lng = 180.0
            rects.append(
                GeoRect.from_center(lat, lng, float(half[r, 0]), float(half[r, 1]))
            )
        return rects


def bounds_to_cellset(rect: GeoRect, cap: int = 200_000) -> np.ndarray:
    """Sorted retrieval-level cell ids whose cells intersect the rect."""
    return cover_rect_raw(rect, RETRIEVAL_LEVEL, cap=cap)
