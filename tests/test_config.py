"""Run-config loading: defaults, file merge, dotted overrides, validation."""

import json
import os

import pytest

from cellsearch.baseline import BoundsConfig
from cellsearch.config import (
    RunConfig,
    default_document,
    load_run_config,
    parse_override,
)
from cellsearch.datagen import GenConfig
from cellsearch.errors import ConfigError, DataError
from cellsearch.model import TrainConfig


def test_defaults_load_without_file():
    run = load_run_config()
    assert run.workdir == "run"
    assert run.data.n_destinations == 60
    assert run.train.hidden == (64, 128, 64, 32)
    assert run.bounds.beta == 0.01
    assert run.chunk_size == 512


def test_default_document_round_trips_through_json():
    doc = default_document()
    again = json.loads(json.dumps(doc))
    assert again == doc


def test_readme_minimal_config_loads(tmp_path):
    assert list(default_document()) == ["workdir", "full_scale", "data", "train", "bounds"]
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(repo, "README.md"), encoding="utf-8") as f:
        readme = f.read()
    block = readme.split("A minimal config:", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    path = tmp_path / "minimal.json"
    path.write_text(block)
    run = load_run_config(path)
    assert run.workdir == "run1" and run.train.num_negatives == 512


def test_file_and_overrides_merge(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"workdir": "w", "data": {"seed": 3}, "train": {"epochs": 4}}))
    run = load_run_config(path, ["train.learning_rate=0.01", "data.n_destinations=12"])
    assert run.workdir == "w"
    assert run.data.seed == 3
    assert run.data.n_destinations == 12
    assert run.train.epochs == 4
    assert run.train.learning_rate == 0.01
    # untouched defaults survive
    assert run.train.batch_size == 512


def test_full_scale_transform(tmp_path):
    run = load_run_config(overrides=["full_scale=true"])
    assert run.train.hidden == (1024, 2056, 1024, 256)
    assert run.train.num_negatives == 25000
    assert run.bounds.hidden == (1024, 2056, 1024, 256)
    # every other field keeps its default
    assert run.train == TrainConfig(hidden=(1024, 2056, 1024, 256), num_negatives=25000)
    assert run.bounds == BoundsConfig(hidden=(1024, 2056, 1024, 256))
    # the flag applies after explicit section values
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"full_scale": True, "train": {"epochs": 2}}))
    run = load_run_config(path)
    assert run.train.epochs == 2
    assert run.train.hidden == (1024, 2056, 1024, 256)


def test_tuple_coercion():
    run = load_run_config(overrides=["train.hidden=[8,4]", "data.continent_mix=[0.5,0.3,0.2]"])
    assert run.train.hidden == (8, 4)
    assert run.data.continent_mix == (0.5, 0.3, 0.2)


@pytest.mark.parametrize(
    "cls, key, value",
    [
        (TrainConfig, "hidden", [8, 4]),
        (BoundsConfig, "hidden", [8, 4]),
        (GenConfig, "continent_mix", [0.5, 0.3, 0.2]),
    ],
)
def test_list_fields_equal_and_hash_like_tuples(cls, key, value):
    from_list, from_tuple = cls(**{key: value}), cls(**{key: tuple(value)})
    assert getattr(from_list, key) == tuple(value)
    assert from_list == from_tuple
    assert hash(from_list) == hash(from_tuple)


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"nope": 1}))
    with pytest.raises(ConfigError):
        load_run_config(path)
    path.write_text(json.dumps({"train": {"nope": 1}}))
    with pytest.raises(ConfigError):
        load_run_config(path)
    with pytest.raises(ConfigError):
        load_run_config(overrides=["train.nope=1"])
    with pytest.raises(ConfigError):
        load_run_config(overrides=["nope.deep=1"])
    with pytest.raises(ConfigError):
        load_run_config(overrides=["train=1"])
    # Evaluation chunks by a constant; the section that set it is gone.
    with pytest.raises(ConfigError, match="unknown config key 'eval'"):
        load_run_config(overrides=["eval.chunk_size=0"])


def test_domain_validation_surfaces_as_config_error():
    with pytest.raises(ConfigError):
        load_run_config(overrides=["train.learning_rate=-1"])
    with pytest.raises(ConfigError):
        load_run_config(overrides=["data.n_destinations=1"])
    with pytest.raises(ConfigError):
        load_run_config(overrides=["full_scale=7"])
    with pytest.raises(ConfigError):
        load_run_config(overrides=['workdir=""'])


def test_values_must_have_their_default_type():
    run = load_run_config(overrides=["bounds.alpha=2", "data.continent_mix=[1,1,2]"])
    assert run.bounds.alpha == 2 and run.data.continent_mix == (1, 1, 2)
    for bad in (
        "train.hidden=[8,4.0]",
        "train.hidden=8",
        "data.continent_mix=[1,true,1]",
        "data.continent_mix=[1,NaN,1]",
        "bounds.beta=-Infinity",
        "bounds.alpha=1" + "0" * 400,
        "train.dtype=32",
        "data.seed=null",
        'train.epochs={"n": 2}',
        "workdir=3",
    ):
        key = bad.split("=")[0]
        with pytest.raises(ConfigError, match=f"config key '{key}' must be of type "):
            load_run_config(overrides=[bad])


def test_parse_override_forms():
    assert parse_override("data.seed=3") == (("data", "seed"), 3)
    assert parse_override("train.hidden=[8,4]") == (("train", "hidden"), [8, 4])
    assert parse_override("workdir=out/dir") == (("workdir",), "out/dir")
    assert parse_override("full_scale=true") == (("full_scale",), True)
    with pytest.raises(ConfigError):
        parse_override("no-equals-sign")
    with pytest.raises(ConfigError):
        parse_override("=3")


def test_bad_config_files(tmp_path):
    with pytest.raises(ConfigError):
        load_run_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_run_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_run_config(arr)
    scalar_section = tmp_path / "scalar.json"
    scalar_section.write_text(json.dumps({"train": 5}))
    with pytest.raises(ConfigError):
        load_run_config(scalar_section)


def test_artifact_path_helpers(tmp_path):
    run = load_run_config(overrides=[f'workdir="{tmp_path}"'])
    assert run.path("x.txt") == str(tmp_path / "x.txt")
    assert run.data_dir == str(tmp_path / "data")
    with pytest.raises(DataError):
        run.require("missing.ckpt")
    with pytest.raises(DataError):
        run.require_data()
    target = tmp_path / "present.txt"
    target.write_text("ok")
    assert run.require("present.txt") == str(target)
    assert isinstance(run, RunConfig)
