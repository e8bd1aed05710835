"""Feature pipeline: standardized continuous features, categorical vocab
encoding, and shard routing.

Categorical features get 1-based indices from vocabularies fitted on
training data only; index 0 is the unknown bucket (a learned embedding
row, never absent). Continuous features are standardized with population
statistics; a constant feature keeps std 1 so encoding stays total.
Sharding is by destination continent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .datagen import Destination, SearchEvent
from .errors import ConfigError, DataError
from .s2geom import cell_from_latlng

SHARDS = ("EU", "AMER", "OTHER")
CONTINUOUS_FEATURES = ("num_guests", "trip_length_nights", "bounds_diagonal_km")
BASE_CATEGORICALS = (
    "dest_type",
    "dest_country",
    "origin_country",
    "device_type",
    "is_mobile_app",
    "is_weekend",
)
DEFAULT_CELL_LEVELS = (4, 7, 11)


def shard_of(dest: Destination) -> str:
    if dest.continent not in SHARDS:
        raise DataError(f"unknown continent {dest.continent!r}")
    return dest.continent


def cell_feature_names(cell_levels) -> tuple[str, ...]:
    return tuple(f"dest_cell_l{lvl}" for lvl in cell_levels)


def categorical_feature_names(cell_levels) -> tuple[str, ...]:
    return cell_feature_names(cell_levels) + BASE_CATEGORICALS


def destination_cells(dest: Destination, cell_levels) -> tuple[int, ...]:
    """Grid cells of the destination center at each configured level."""
    return tuple(
        int(cell_from_latlng(dest.lat, dest.lng, lvl)) for lvl in cell_levels
    )


def categorical_raw_values(
    event: SearchEvent, dest: Destination, dest_cells: tuple
) -> tuple:
    """Pre-vocabulary categorical values, in feature order. dest_cells is
    destination_cells(dest, cell_levels), which callers cache per
    destination because computing it dominates encoding."""
    return dest_cells + (
        dest.dest_type,
        dest.country,
        event.origin_country,
        event.device_type,
        "1" if event.is_mobile_app else "0",
        "1" if event.is_weekend else "0",
    )


def continuous_raw_values(event: SearchEvent, dest: Destination) -> tuple:
    return (
        float(event.num_guests),
        float(event.trip_length_nights),
        float(dest.bounds_diagonal_km),
    )


@dataclass
class FeaturePipeline:
    """Fitted encoder state. Vocabularies map raw value -> 1-based index."""

    cell_levels: tuple[int, ...]
    continuous_mean: np.ndarray
    continuous_std: np.ndarray
    vocabs: dict[str, dict]

    @property
    def categorical_names(self) -> tuple[str, ...]:
        return categorical_feature_names(self.cell_levels)

    def vocab_sizes(self) -> dict[str, int]:
        """Embedding row counts per feature: vocabulary size + unknown."""
        return {
            name: len(self.vocabs[name]) + 1 for name in self.categorical_names
        }

    def n_continuous(self) -> int:
        return len(CONTINUOUS_FEATURES)


def fit_pipeline(
    train_events: list[SearchEvent],
    destinations: list[Destination],
    cell_levels=DEFAULT_CELL_LEVELS,
) -> FeaturePipeline:
    """Fit normalization and vocabularies on training events only."""
    if not train_events:
        raise DataError("cannot fit a pipeline on zero events")
    if not cell_levels or any(not 0 <= l <= 30 for l in cell_levels):
        raise ConfigError(f"bad cell levels {cell_levels!r}")
    cell_levels = tuple(int(l) for l in cell_levels)
    dest_by_id = {d.dest_id: d for d in destinations}

    cont = np.array(
        [
            continuous_raw_values(e, dest_by_id[e.dest_id])
            for e in train_events
        ],
        dtype=np.float64,
    )
    mean = cont.mean(axis=0)
    std = cont.std(axis=0)  # population std
    std = np.where(std == 0.0, 1.0, std)

    names = categorical_feature_names(cell_levels)
    observed: dict[str, set] = {n: set() for n in names}
    dest_cell_cache: dict[int, tuple] = {}
    for e in train_events:
        d = dest_by_id[e.dest_id]
        cells = dest_cell_cache.get(d.dest_id)
        if cells is None:
            cells = destination_cells(d, cell_levels)
            dest_cell_cache[d.dest_id] = cells
        values = categorical_raw_values(e, d, cells)
        for n, v in zip(names, values):
            observed[n].add(v)

    vocabs = {
        n: {v: i + 1 for i, v in enumerate(sorted(observed[n]))} for n in names
    }
    return FeaturePipeline(cell_levels, mean, std, vocabs)


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
    is_outlier: np.ndarray

    def __len__(self) -> int:
        return self.search_ids.size

    def take(self, idx) -> "EncodedBatch":
        return EncodedBatch(
            self.shard,
            self.search_ids[idx],
            self.dest_ids[idx],
            self.continuous[idx],
            self.categorical[idx],
            self.booked_cells[idx],
            self.num_guests[idx],
            self.is_outlier[idx],
        )


def merge_batches(batches, shard: str = "ALL") -> EncodedBatch:
    """Concatenate shard batches into one batch labeled `shard`.

    The bounds baseline trains on all shards together, so it needs the
    per-shard encodings joined back up; feature indices are comparable
    across shards because the pipeline vocabularies are global.
    """

    batches = list(batches)
    if not batches:
        raise DataError("merge_batches needs at least one batch")
    return EncodedBatch(
        shard,
        np.concatenate([b.search_ids for b in batches]),
        np.concatenate([b.dest_ids for b in batches]),
        np.concatenate([b.continuous for b in batches]),
        np.concatenate([b.categorical for b in batches]),
        np.concatenate([b.booked_cells for b in batches]),
        np.concatenate([b.num_guests for b in batches]),
        np.concatenate([b.is_outlier for b in batches]),
    )


def encode_events(
    events: list[SearchEvent],
    destinations: list[Destination],
    pipeline: FeaturePipeline,
) -> dict[str, EncodedBatch]:
    """Encode events and split them by shard. Total: every event encodes;
    unknown categorical values map to index 0."""
    dest_by_id = {d.dest_id: d for d in destinations}
    names = pipeline.categorical_names
    dest_cell_cache: dict[int, tuple] = {}

    per_shard: dict[str, list] = {s: [] for s in SHARDS}
    for e in events:
        d = dest_by_id.get(e.dest_id)
        if d is None:
            raise DataError(f"event {e.search_id} references unknown destination")
        cells = dest_cell_cache.get(d.dest_id)
        if cells is None:
            cells = destination_cells(d, pipeline.cell_levels)
            dest_cell_cache[d.dest_id] = cells
        values = categorical_raw_values(e, d, cells)
        cat = [pipeline.vocabs[n].get(v, 0) for n, v in zip(names, values)]
        cont = continuous_raw_values(e, d)
        per_shard[shard_of(d)].append(
            (e.search_id, e.dest_id, cont, cat, e.booked_cell, e.num_guests, e.is_outlier)
        )

    out: dict[str, EncodedBatch] = {}
    for shard, rows in per_shard.items():
        if not rows:
            out[shard] = EncodedBatch(
                shard,
                np.empty(0, np.int64),
                np.empty(0, np.int64),
                np.empty((0, len(CONTINUOUS_FEATURES))),
                np.empty((0, len(names)), np.int64),
                np.empty(0, np.uint64),
                np.empty(0, np.int64),
                np.empty(0, bool),
            )
            continue
        cont = np.array([r[2] for r in rows], dtype=np.float64)
        cont = (cont - pipeline.continuous_mean) / pipeline.continuous_std
        out[shard] = EncodedBatch(
            shard,
            np.array([r[0] for r in rows], dtype=np.int64),
            np.array([r[1] for r in rows], dtype=np.int64),
            cont,
            np.array([r[3] for r in rows], dtype=np.int64),
            np.array([r[4] for r in rows], dtype=np.uint64),
            np.array([r[5] for r in rows], dtype=np.int64),
            np.array([r[6] for r in rows], dtype=bool),
        )
    return out


def save_pipeline(path, pipeline: FeaturePipeline):
    doc = {
        "format_version": 1,
        "cell_levels": list(pipeline.cell_levels),
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
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def load_pipeline(path) -> FeaturePipeline:
    with open(path) as f:
        doc = json.load(f)
    if doc.get("format_version") != 1:
        raise DataError(f"unsupported pipeline version {doc.get('format_version')}")
    cell_levels = tuple(doc["cell_levels"])
    cell_names = set(cell_feature_names(cell_levels))
    vocabs = {}
    for name, values in doc["vocabs"].items():
        if name in cell_names:
            vocabs[name] = {int(v): i + 1 for i, v in enumerate(values)}
        else:
            vocabs[name] = {v: i + 1 for i, v in enumerate(values)}
    return FeaturePipeline(
        cell_levels,
        np.asarray(doc["continuous"]["mean"], dtype=np.float64),
        np.asarray(doc["continuous"]["std"], dtype=np.float64),
        vocabs,
    )
