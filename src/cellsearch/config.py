"""Run configuration: one JSON document plus dotted-path overrides.

A run is described by a single JSON file with three sections (data,
train, bounds) and two top-level scalars (workdir, full_scale). Every key
has a default, so the file may be partial or absent. Command-line
overrides use dotted paths into the same structure, for example
``--set data.seed=3`` or ``--set train.hidden=[64,32]``; values are
parsed as JSON when possible and fall back to plain strings, and each
must have the type of its default. An override is merged exactly as a
config file holding only that key would be.

Setting full_scale replaces the network widths and negative-sample count
with the full-scale variants after the section defaults are applied, so
a config file tuned for desk runs switches scale with one flag.
"""

import copy
import json
import os
import sys
from dataclasses import dataclass

from .baseline import BoundsConfig
from .datagen import GenConfig
from .errors import ConfigError, DataError
from .model import TrainConfig
from .nn import EVAL_CHUNK

DATA_DIR = "data"
PIPELINE_FILE = "pipeline.json"
BASELINE_FILE = "baseline.ckpt"
INDEX_FILE = "postings.idx"
SWEEP_CSV_FILE = "sweep.csv"
REPORT_FILE = "report.txt"
LISTINGS_REF = "data/listings.tsv"


def vocab_file(shard: str) -> str:
    return f"vocab_{shard}.txt"


def model_file(shard: str) -> str:
    return f"model_{shard}.ckpt"


def sweep_svg_file(shard: str) -> str:
    return f"sweep_{shard}.svg"


def default_document() -> dict:
    """Nested dict of every config key with its default value."""

    def section(cfg) -> dict:
        doc = {}
        for name, value in cfg.__dict__.items():
            doc[name] = list(value) if isinstance(value, tuple) else value
        return doc

    return {
        "workdir": "run",
        "full_scale": False,
        "data": section(GenConfig()),
        "train": section(TrainConfig()),
        "bounds": section(BoundsConfig()),
    }


def _merge(doc: dict, incoming: dict, path: str = "") -> None:
    for key, value in incoming.items():
        where = f"{path}.{key}" if path else key
        if key not in doc:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(doc[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {where!r} must be an object")
            _merge(doc[key], value, where)
        else:
            doc[key] = value


def parse_override(text: str):
    """Split one KEY=VALUE override into (path tuple, parsed value)."""

    if "=" not in text:
        raise ConfigError(f"override {text!r} must look like section.key=value")
    key, raw = text.split("=", 1)
    parts = tuple(p for p in key.strip().split(".") if p)
    if not parts:
        raise ConfigError(f"override {text!r} has an empty key")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return parts, value


@dataclass(frozen=True)
class RunConfig:
    workdir: str
    data: GenConfig
    train: TrainConfig
    bounds: BoundsConfig
    # Not a field: the benchmark harness chunks its recount as evaluation does.
    chunk_size = EVAL_CHUNK

    @property
    def data_dir(self) -> str:
        return os.path.join(self.workdir, DATA_DIR)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def require(self, name: str) -> str:
        full = self.path(name)
        if not os.path.exists(full):
            raise DataError(f"missing artifact {full}; run the earlier pipeline stages first")
        return full

    def require_data(self) -> str:
        manifest = os.path.join(self.data_dir, "manifest.json")
        if not os.path.exists(manifest):
            raise DataError(f"missing dataset under {self.data_dir}; run gen first")
        return self.data_dir


def _fits(value, default) -> bool:
    """Whether value has the type of its default: bools are not ints, ints
    pass for floats, floats must be finite, and a list's elements must fit
    its default's first."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits(v, default[0]) for v in value)
    if isinstance(default, float):
        # False for NaN, the infinities and ints too large for a float.
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        return number and abs(value) <= sys.float_info.max
    return isinstance(value, type(default)) and isinstance(value, bool) == isinstance(default, bool)


def _check_types(doc: dict, defaults: dict, path: str = "") -> None:
    for key, default in defaults.items():
        if isinstance(default, dict):
            _check_types(doc[key], default, f"{path}{key}.")
        elif not _fits(doc[key], default):
            leaf = default[0] if isinstance(default, list) else default
            kind = "finite float" if isinstance(leaf, float) else type(leaf).__name__
            kind = f"list of {kind}" if isinstance(default, list) else kind
            raise ConfigError(f"config key {path + key!r} must be of type {kind}, got {doc[key]!r}")


def _build(doc: dict) -> RunConfig:
    _check_types(doc, default_document())
    if not doc["workdir"]:
        raise ConfigError("workdir must be a non-empty string")
    # The workdir, or the nearest of its parents that exists, must be a
    # directory, or the first write would fail with NotADirectoryError.
    existing = os.path.abspath(doc["workdir"])
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError(f"workdir {doc['workdir']}: {existing} is not a directory")
    data = GenConfig(**doc["data"])
    train = TrainConfig(**doc["train"])
    bounds = BoundsConfig(**doc["bounds"])
    if doc["full_scale"]:
        train, bounds = train.full_scale(), bounds.full_scale()
    return RunConfig(workdir=doc["workdir"], data=data, train=train, bounds=bounds)


def load_run_config(path=None, overrides=()) -> RunConfig:
    """Build the run config from defaults, an optional file, and overrides."""

    doc = copy.deepcopy(default_document())
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                incoming = json.load(fh)
        except (OSError, ValueError) as exc:
            # Missing, a directory, not UTF-8 or not JSON.
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        if not isinstance(incoming, dict):
            raise ConfigError("config file must hold a JSON object")
        _merge(doc, incoming)
    for text in overrides:
        parts, value = parse_override(text)
        for key in reversed(parts):
            value = {key: value}
        _merge(doc, value)
    return _build(doc)
