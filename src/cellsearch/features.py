"""Feature pipeline: standardized continuous features, categorical vocab
encoding, and shard routing.

Categorical features get 1-based indices from vocabularies fitted on
training data only; index 0 is the unknown bucket (a learned embedding
row, never absent). Continuous features are standardized with population
statistics; a constant feature keeps std 1 so encoding stays total.
Sharding is by destination continent.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields, replace

import numpy as np

from .datagen import CONTINENTS, Destination, SearchEvent, read_json_artifact, write_json_artifact
from .errors import DataError
from .s2geom import cell_from_latlng

SHARDS = CONTINENTS
# The feature layout: the destination center's cell at each of CELL_LEVELS,
# then the destination's and the search's own categories; and three
# continuous columns.
CELL_LEVELS = (4, 7, 11)
CATEGORICAL_FEATURES = tuple(f"dest_cell_l{level}" for level in CELL_LEVELS) + (
    "dest_type",
    "dest_country",
    "origin_country",
    "device_type",
    "is_mobile_app",
    "is_weekend",
)
CONTINUOUS_FEATURES = ("num_guests", "trip_length_nights", "bounds_diagonal_km")
_SHARD_INDEX = {shard: k for k, shard in enumerate(SHARDS)}


@functools.cache
def _center_cells(lat: float, lng: float) -> tuple[int, ...]:
    """The cells of one destination center at each of CELL_LEVELS, kept
    for the life of the process (one entry per distinct center): computing
    them took most of the encode of one served search."""
    return tuple(int(cell_from_latlng(lat, lng, level)) for level in CELL_LEVELS)


def _raw_features(events: list[SearchEvent], destinations: list[Destination]):
    """(shard, continuous, columns) of events: each event's index into
    SHARDS, the (N, 3) float64 raw continuous matrix, and one list of raw
    values per CATEGORICAL_FEATURES entry. Continents are checked where
    destinations are read, so every destination has a shard."""
    by_id = {d.dest_id: d for d in destinations}
    dests = [by_id.get(e.dest_id) for e in events]
    for e, d in zip(events, dests):
        if d is None:
            raise DataError(f"event {e.search_id} references unknown destination {e.dest_id}")
    shard = np.array([_SHARD_INDEX[d.continent] for d in dests], dtype=np.int64)
    continuous = np.array(
        [(e.num_guests, e.trip_length_nights, d.bounds_diagonal_km) for e, d in zip(events, dests)],
        dtype=np.float64,
    ).reshape(-1, len(CONTINUOUS_FEATURES))
    cells = [_center_cells(d.lat, d.lng) for d in dests]
    columns = [[c[k] for c in cells] for k in range(len(CELL_LEVELS))] + [
        [d.dest_type for d in dests],
        [d.country for d in dests],
        [e.origin_country for e in events],
        [e.device_type for e in events],
        ["1" if e.is_mobile_app else "0" for e in events],
        ["1" if e.is_weekend else "0" for e in events],
    ]
    return shard, continuous, columns


@dataclass
class FeaturePipeline:
    """Fitted encoder state. Vocabularies map raw value -> 1-based index."""

    continuous_mean: np.ndarray
    continuous_std: np.ndarray
    vocabs: dict[str, dict]

    def vocab_sizes(self) -> dict[str, int]:
        """Embedding row counts per feature, in CATEGORICAL_FEATURES order:
        vocabulary size + unknown."""
        return {name: len(self.vocabs[name]) + 1 for name in CATEGORICAL_FEATURES}


def fit_pipeline(train_events: list[SearchEvent], destinations: list[Destination]) -> FeaturePipeline:
    """Fit normalization and vocabularies on training events only."""
    if not train_events:
        raise DataError("cannot fit a pipeline on zero events")
    _, continuous, columns = _raw_features(train_events, destinations)
    std = continuous.std(axis=0)  # population std
    vocabs = {
        name: {v: i + 1 for i, v in enumerate(sorted(set(column)))}
        for name, column in zip(CATEGORICAL_FEATURES, columns)
    }
    return FeaturePipeline(continuous.mean(axis=0), np.where(std == 0.0, 1.0, std), vocabs)


@dataclass
class EncodedBatch:
    """Parallel arrays for one shard's events."""

    shard: str
    search_ids: np.ndarray
    dest_ids: np.ndarray
    continuous: np.ndarray  # (N, 3) standardized float64
    categorical: np.ndarray  # (N, m) int64 vocab indices
    booked_cells: np.ndarray  # (N,) uint64
    num_guests: np.ndarray

    def __len__(self) -> int:
        return self.search_ids.size

    def take(self, idx) -> "EncodedBatch":
        return EncodedBatch(self.shard, *(getattr(self, f.name)[idx] for f in fields(self)[1:]))


def merge_batches(batches) -> EncodedBatch:
    """Concatenate shard batches into one batch labeled "ALL".

    The bounds baseline trains on all shards together, so it needs the
    per-shard encodings joined back up; feature indices are comparable
    across shards because the pipeline vocabularies are global.
    """

    batches = list(batches)
    if not batches:
        raise DataError("merge_batches needs at least one batch")
    return EncodedBatch(
        "ALL",
        *(np.concatenate([getattr(b, f.name) for b in batches]) for f in fields(EncodedBatch)[1:]),
    )


def encode_events(
    events: list[SearchEvent], destinations: list[Destination], pipeline: FeaturePipeline
) -> dict[str, EncodedBatch]:
    """Encode events and split them by shard, keeping event order. Total:
    every event encodes; unknown categorical values map to index 0."""
    shard, continuous, columns = _raw_features(events, destinations)
    categorical = np.array(
        [
            [pipeline.vocabs[name].get(v, 0) for v in column]
            for name, column in zip(CATEGORICAL_FEATURES, columns)
        ],
        dtype=np.int64,
    )
    encoded = EncodedBatch(
        "ALL",
        np.array([e.search_id for e in events], dtype=np.int64),
        np.array([e.dest_id for e in events], dtype=np.int64),
        (continuous - pipeline.continuous_mean) / pipeline.continuous_std,
        categorical.T,
        np.array([e.booked_cell for e in events], dtype=np.uint64),
        np.array([e.num_guests for e in events], dtype=np.int64),
    )
    return {s: replace(encoded.take(shard == k), shard=s) for k, s in enumerate(SHARDS)}


def save_pipeline(path, pipeline: FeaturePipeline):
    write_json_artifact(path, {
        "cell_levels": list(CELL_LEVELS),
        "continuous": {
            "names": list(CONTINUOUS_FEATURES),
            "mean": [float(x) for x in pipeline.continuous_mean],
            "std": [float(x) for x in pipeline.continuous_std],
        },
        "vocabs": {
            # Values in index order; cells stored as decimal strings.
            name: [str(v) for v in sorted(vocab, key=lambda k: vocab[k])]
            for name, vocab in pipeline.vocabs.items()
        },
    })


def load_pipeline(path) -> FeaturePipeline:
    """The pipeline of a pipeline.json. Cell levels or feature names other
    than this module's, a repeated vocabulary value, or a mean or std that
    is not finite (or a std that is not positive) is a DataError naming
    the file."""
    doc = read_json_artifact(path, "pipeline")
    try:
        if doc["cell_levels"] != list(CELL_LEVELS):
            raise ValueError(f"cell_levels {doc['cell_levels']!r} are not {list(CELL_LEVELS)}")
        if doc["continuous"]["names"] != list(CONTINUOUS_FEATURES):
            raise ValueError(f"continuous names are not {list(CONTINUOUS_FEATURES)}")
        mean = np.asarray(doc["continuous"]["mean"], dtype=np.float64)
        std = np.asarray(doc["continuous"]["std"], dtype=np.float64)
        if mean.shape != std.shape or mean.shape != (len(CONTINUOUS_FEATURES),):
            raise ValueError(f"continuous mean and std need {len(CONTINUOUS_FEATURES)} entries each")
        if not (np.isfinite(mean).all() and (np.isfinite(std) & (std > 0)).all()):
            raise ValueError("continuous mean and std must be finite, std positive")
        mismatched = set(CATEGORICAL_FEATURES).symmetric_difference(doc["vocabs"])
        if mismatched:
            raise ValueError(f"vocabularies do not match the features at {sorted(mismatched)}")
        vocabs = {}
        for k, name in enumerate(CATEGORICAL_FEATURES):
            values = doc["vocabs"][name]
            parse = int if k < len(CELL_LEVELS) else str
            vocabs[name] = {parse(v): i + 1 for i, v in enumerate(values)}
            if len(vocabs[name]) != len(values):
                raise ValueError(f"vocabulary {name} repeats a value")
        return FeaturePipeline(mean, std, vocabs)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"pipeline {path} has a missing or bad field: {exc!r}") from None
