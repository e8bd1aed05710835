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
hyperparameter plus the trained flag, so a file is self-describing.
Payloads are always float32 regardless of the in-memory dtype.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields

import numpy as np

from .baseline import BOUNDS_STREAM, BoundsConfig, BoundsModel
from .errors import ConfigError, DataError, data_file
from .features import SHARDS
from .model import ShardModel, TrainConfig
from .nn import DTYPES, TrunkSpec

MAGIC = "cellsearch-checkpoint"
FORMAT_VERSION = 1
KINDS = ("cell_classifier", "bounds_regressor")


def save_checkpoint(path, kind: str, config: dict, tensors: dict):
    """Write tensors (an ordered name -> array dict) under a text header."""
    if kind not in KINDS:
        raise ConfigError(f"unknown checkpoint kind {kind!r}")
    lines = [f"{MAGIC} {FORMAT_VERSION}", f"kind {kind}"]
    lines.append("config " + json.dumps(config, sort_keys=True))
    payload = []
    for name, arr in tensors.items():
        if " " in name or "\n" in name:
            raise ConfigError(f"tensor name {name!r} contains whitespace")
        a = np.ascontiguousarray(arr, dtype="<f4")
        shape = " ".join(str(d) for d in a.shape)
        lines.append(f"tensor {name} float32 {shape}")
        payload.append(a.tobytes())
    lines.append("end")
    header = "\n".join(lines) + "\n"
    with open(path, "wb") as f:
        f.write(header.encode("utf-8"))
        for chunk in payload:
            f.write(chunk)


def load_checkpoint(path):
    """Read a checkpoint; returns (kind, config, tensors) with tensors an
    ordered dict of float32 arrays in header order."""
    with open(path, "rb") as f:
        raw = f.read()
    with data_file(path):
        return _parse_checkpoint(raw)


def _parse_checkpoint(raw: bytes):
    lines = []
    pos = 0
    while True:
        nl = raw.find(b"\n", pos)
        if nl < 0:
            raise DataError("checkpoint header has no end marker")
        line = raw[pos : nl].decode("utf-8", errors="replace")
        pos = nl + 1
        if line == "end":
            break
        lines.append(line)
    if not lines or lines[0].split() != [MAGIC, str(FORMAT_VERSION)]:
        raise DataError("not a recognized checkpoint file")
    if len(lines) < 3 or not lines[1].startswith("kind "):
        raise DataError("checkpoint header is missing the kind line")
    kind = lines[1][len("kind ") :]
    if kind not in KINDS:
        raise DataError(f"unknown checkpoint kind {kind!r}")
    if not lines[2].startswith("config "):
        raise DataError("checkpoint header is missing the config line")
    try:
        config = json.loads(lines[2][len("config ") :])
    except json.JSONDecodeError as e:
        raise DataError(f"bad checkpoint config JSON: {e}") from None

    specs = []
    for line in lines[3:]:
        parts = line.split()
        if len(parts) < 4 or parts[0] != "tensor":
            raise DataError(f"bad checkpoint tensor line: {line!r}")
        name, dtype = parts[1], parts[2]
        if dtype != "float32":
            raise DataError(f"unsupported tensor dtype {dtype!r}")
        try:
            shape = tuple(int(d) for d in parts[3:])
        except ValueError:
            raise DataError(f"bad tensor shape in line: {line!r}") from None
        if any(d < 0 for d in shape):
            raise DataError(f"negative tensor dimension in line: {line!r}")
        specs.append((name, shape))

    tensors = {}
    offset = pos
    for name, shape in specs:
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = count * 4
        if offset + nbytes > len(raw):
            raise DataError("checkpoint payload is truncated")
        tensors[name] = (
            np.frombuffer(raw, dtype="<f4", count=count, offset=offset)
            .reshape(shape)
            .copy()
        )
        offset += nbytes
    if offset != len(raw):
        raise DataError("checkpoint payload has trailing bytes")
    return kind, config, tensors


def _config_echo(model, **extra) -> dict:
    """The header's config object: every hyperparameter, the trained flag
    and the trunk shapes, plus the kind's own fields."""
    echo = asdict(model.config)
    echo["hidden"] = list(model.config.hidden)
    echo.update(
        trained=model.trained,
        categorical_features=list(model.spec.emb_names),
        emb_rows=list(model.spec.emb_rows),
        n_continuous=model.spec.n_continuous,
        **extra,
    )
    return echo


def model_config_echo(model: ShardModel) -> dict:
    return _config_echo(model, shard=model.shard, n_classes=model.n_classes)


def save_model(path, model: ShardModel):
    save_checkpoint(path, "cell_classifier", model_config_echo(model), model.params)


def save_baseline(path, model: BoundsModel):
    save_checkpoint(path, "bounds_regressor", _config_echo(model), model.params)


def _load_trunk_model(path, kind: str, config_cls, stream: int, n_outputs: int, **expected):
    """(config, spec, params, rng, trained) of a checkpoint of the given
    kind whose output layer has n_outputs columns. Each keyword names a
    header echo field that must hold the given value. The rng is seeded
    like the built model's, from the config seed and the stream index."""
    found, echo, tensors = load_checkpoint(path)
    with data_file(path):
        if found != kind:
            raise DataError(f"expected a {kind} checkpoint, got {found!r}")
        try:
            values = {f.name: echo[f.name] for f in fields(config_cls)}
            config = config_cls(**dict(values, hidden=tuple(echo["hidden"])))
            spec = TrunkSpec(
                emb_names=tuple(echo["categorical_features"]),
                emb_rows=tuple(echo["emb_rows"]),
                emb_dim=echo["embed_dim"],
                n_continuous=echo["n_continuous"],
                hidden=tuple(echo["hidden"]),
            )
            trained = bool(echo["trained"])
        except (KeyError, TypeError, ValueError) as e:
            raise DataError(f"checkpoint config has a missing or bad field: {e!r}") from None
        for key, value in expected.items():
            if echo.get(key) != value:
                raise DataError(f"checkpoint has {key} {echo.get(key)!r}, expected {value!r}")
        if list(tensors) != spec.param_names() + ["out_w", "out_b"]:
            raise DataError("checkpoint tensors do not match the model layout")
        dtype = DTYPES[config.dtype]
        params = {name: tensors[name].astype(dtype) for name in tensors}
        shapes_ok = (
            params["out_w"].shape == (spec.output_dim, n_outputs)
            and params["out_b"].shape == (n_outputs,)
            and params["w1"].shape == (spec.input_dim, spec.hidden[0])
        )
        if not shapes_ok:
            raise DataError("checkpoint tensor shapes do not match the model layout")
    return config, spec, params, np.random.default_rng((config.seed, stream)), trained


def load_model(path, vocab) -> ShardModel:
    """Rebuild a classifier from a checkpoint plus its label vocabulary."""
    stream = SHARDS.index(vocab.shard) if vocab.shard in SHARDS else 0
    config, spec, params, rng, trained = _load_trunk_model(
        path, "cell_classifier", TrainConfig, stream, len(vocab),
        shard=vocab.shard, n_classes=len(vocab),
    )
    return ShardModel(config, spec, vocab, params, rng, trained=trained)


def load_baseline(path) -> BoundsModel:
    config, spec, params, rng, trained = _load_trunk_model(
        path, "bounds_regressor", BoundsConfig, BOUNDS_STREAM, 4
    )
    return BoundsModel(config, spec, params, rng, trained=trained)
