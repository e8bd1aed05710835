"""Checkpoint file format and model persistence.

A checkpoint is a UTF-8 text header followed by a binary payload:

    cellsearch-checkpoint 1
    kind cell_classifier
    config {"batch_size": 512, ...}
    tensor emb_dest_type float32 9 16
    tensor w1 float32 147 64
    ...
    end
    <little-endian float32 tensor data, C order, in header order>

The config line is one JSON object with sorted keys, echoing every
hyperparameter plus the trained flag and the trunk's input shapes, so a
file is self-describing. Payloads are always float32 regardless of the
in-memory dtype.

Loading reads the kind and config lines, builds the model's config and
nn.trunk_layout from them, renders the header that saving that model
writes and requires the file to start with exactly those bytes, followed
by exactly the layout's float32 payload. The tensor lines are never
parsed: every name and shape comes from the layout.
"""

from __future__ import annotations

import json
import math
from itertools import accumulate
from dataclasses import asdict, fields

import numpy as np

from .baseline import BOUNDS_STREAM, BoundsConfig, BoundsModel
from .errors import DataError, named
from .model import ShardModel, TrainConfig, shard_index
from .nn import DTYPES, TrunkSpec, trunk_layout

MAGIC = "cellsearch-checkpoint"
FORMAT_VERSION = 1


def _header(kind: str, echo: dict, shapes: dict) -> bytes:
    """The header bytes of a checkpoint: magic, kind, the sorted-key
    config echo and one line per tensor (an ordered name -> shape dict)."""
    lines = [f"{MAGIC} {FORMAT_VERSION}", f"kind {kind}", "config " + json.dumps(echo, sort_keys=True)]
    lines += [f"tensor {name} float32 {' '.join(map(str, shape))}" for name, shape in shapes.items()]
    return ("\n".join([*lines, "end"]) + "\n").encode("utf-8")


def _config_echo(config, spec: TrunkSpec, trained: bool, **extra) -> dict:
    """The header's config object: every hyperparameter, the trained flag
    and the trunk shapes, plus the kind's own fields."""
    return dict(
        asdict(config),
        trained=trained,
        categorical_features=list(spec.emb_names),
        emb_rows=list(spec.emb_rows),
        n_continuous=spec.n_continuous,
        **extra,
    )


def model_config_echo(model: ShardModel) -> dict:
    return _config_echo(model.config, model.spec, model.trained, shard=model.shard, n_classes=model.n_classes)


def _save(path, kind: str, echo: dict, params: dict):
    arrays = {name: np.ascontiguousarray(p, dtype="<f4") for name, p in params.items()}
    with open(path, "wb") as f:
        f.write(_header(kind, echo, {name: a.shape for name, a in arrays.items()}))
        for a in arrays.values():
            f.write(a.tobytes())


def save_model(path, model: ShardModel):
    _save(path, "cell_classifier", model_config_echo(model), model.params)


def save_baseline(path, model: BoundsModel):
    _save(path, "bounds_regressor", _config_echo(model.config, model.spec, model.trained), model.params)


def _load_trunk_model(path, kind: str, config_cls, stream: int, n_outputs: int, **expected):
    """(config, spec, params, rng, trained) of a checkpoint of the given
    kind whose output layer has n_outputs columns. Each keyword names a
    header echo field that must hold the given value. The file must be,
    byte for byte, the header that saving this model writes, followed by
    the float32 payload of trunk_layout of the header's spec. The rng is
    seeded like the built model's, from the config seed and the stream
    index."""
    with open(path, "rb") as f, named(path):
        raw = f.read()
        magic, kind_line, config_line, *_ = raw.split(b"\n", 3) + [b"", b""]
        if magic != f"{MAGIC} {FORMAT_VERSION}".encode():
            raise DataError("not a recognized checkpoint file")
        if kind_line != f"kind {kind}".encode():
            found = kind_line.decode("utf-8", errors="replace").removeprefix("kind ")
            raise DataError(f"expected a {kind} checkpoint, got {found!r}")
        try:
            echo = json.loads(config_line.removeprefix(b"config "))
            config = config_cls(**{f.name: echo[f.name] for f in fields(config_cls)})
            spec = TrunkSpec(
                emb_names=tuple(echo["categorical_features"]),
                emb_rows=tuple(echo["emb_rows"]),
                emb_dim=config.embed_dim,
                n_continuous=echo["n_continuous"],
                hidden=config.hidden,
            )
            layout = trunk_layout(spec, n_outputs)
            trained = bool(echo["trained"])
        except (KeyError, TypeError, ValueError, RecursionError) as e:
            raise DataError(f"checkpoint config has a missing or bad field: {e!r}") from None
        for key, value in expected.items():
            if echo.get(key) != value:
                raise DataError(f"checkpoint has {key} {echo.get(key)!r}, expected {value!r}")
        header = _header(kind, _config_echo(config, spec, trained, **expected), layout)
        if not raw.startswith(header):
            raise DataError("checkpoint header differs from the one its config renders")
        sizes = [math.prod(shape) for shape in layout.values()]
        if len(raw) - len(header) != 4 * sum(sizes):
            raise DataError(f"checkpoint payload has {len(raw) - len(header)} bytes, expected {4 * sum(sizes)}")
        flat = np.frombuffer(raw, dtype="<f4", offset=len(header))
    dtype = DTYPES[config.dtype]
    bounds = list(accumulate(sizes, initial=0))
    params = {
        name: flat[start:stop].reshape(shape).astype(dtype)
        for (name, shape), start, stop in zip(layout.items(), bounds, bounds[1:])
    }
    return config, spec, params, np.random.default_rng((config.seed, stream)), trained


def load_model(path, vocab) -> ShardModel:
    """Rebuild a classifier from a checkpoint plus its label vocabulary."""
    config, spec, params, rng, trained = _load_trunk_model(
        path, "cell_classifier", TrainConfig, shard_index(vocab.shard), len(vocab),
        shard=vocab.shard, n_classes=len(vocab),
    )
    return ShardModel(config, spec, vocab, params, rng, trained=trained)


def load_baseline(path) -> BoundsModel:
    config, spec, params, rng, trained = _load_trunk_model(
        path, "bounds_regressor", BoundsConfig, BOUNDS_STREAM, 4
    )
    return BoundsModel(config, spec, params, rng, trained=trained)
