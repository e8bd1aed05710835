"""Checkpoint format tests: text header, float32 payload layout,
corruption handling, and full model round trips."""

import json

import numpy as np
import pytest
from modeltools import make_vocab, tiny_batch, tiny_bounds, tiny_model

from cellsearch.checkpoint import (
    load_baseline,
    load_checkpoint,
    load_model,
    model_config_echo,
    save_baseline,
    save_checkpoint,
    save_model,
)
from cellsearch.errors import ConfigError, DataError


def sample_tensors():
    rng = np.random.default_rng(0)
    return {
        "alpha": rng.normal(size=(3, 4)).astype(np.float32),
        "beta": rng.normal(size=(4,)).astype(np.float32),
    }


def test_round_trip_preserves_everything(tmp_path):
    path = tmp_path / "m.ckpt"
    config = {"widgets": 3, "name": "x"}
    tensors = sample_tensors()
    save_checkpoint(path, "cell_classifier", config, tensors)
    kind, got_config, got = load_checkpoint(path)
    assert kind == "cell_classifier"
    assert got_config == config
    assert list(got) == ["alpha", "beta"]
    for name in tensors:
        np.testing.assert_array_equal(got[name], tensors[name])
        assert got[name].dtype == np.float32


def test_header_is_readable_text(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, "bounds_regressor", {"a": 1}, sample_tensors())
    raw = path.read_bytes()
    head = raw.split(b"end\n")[0].decode("utf-8").splitlines()
    assert head[0] == "cellsearch-checkpoint 1"
    assert head[1] == "kind bounds_regressor"
    assert json.loads(head[2][len("config ") :]) == {"a": 1}
    assert head[3] == "tensor alpha float32 3 4"
    assert head[4] == "tensor beta float32 4"


def test_save_twice_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    tensors = sample_tensors()
    save_checkpoint(a, "cell_classifier", {"k": [1, 2]}, tensors)
    save_checkpoint(b, "cell_classifier", {"k": [1, 2]}, tensors)
    assert a.read_bytes() == b.read_bytes()


def test_corruption_is_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, "cell_classifier", {}, sample_tensors())
    raw = path.read_bytes()

    truncated = tmp_path / "t.ckpt"
    truncated.write_bytes(raw[:-8])
    with pytest.raises(DataError):
        load_checkpoint(truncated)

    padded = tmp_path / "p.ckpt"
    padded.write_bytes(raw + b"\x00\x00\x00\x00")
    with pytest.raises(DataError):
        load_checkpoint(padded)

    bad_magic = tmp_path / "bm.ckpt"
    bad_magic.write_bytes(b"something-else 1\n" + raw.split(b"\n", 1)[1])
    with pytest.raises(DataError):
        load_checkpoint(bad_magic)

    bad_kind = tmp_path / "bk.ckpt"
    bad_kind.write_bytes(raw.replace(b"kind cell_classifier", b"kind mystery"))
    with pytest.raises(DataError):
        load_checkpoint(bad_kind)

    bad_dtype = tmp_path / "bd.ckpt"
    bad_dtype.write_bytes(raw.replace(b"alpha float32", b"alpha float64"))
    with pytest.raises(DataError):
        load_checkpoint(bad_dtype)

    no_end = tmp_path / "ne.ckpt"
    no_end.write_bytes(raw.split(b"end\n")[0])
    with pytest.raises(DataError):
        load_checkpoint(no_end)


def test_save_rejects_bad_kind_and_names(tmp_path):
    with pytest.raises(ConfigError):
        save_checkpoint(tmp_path / "x.ckpt", "mystery", {}, sample_tensors())
    with pytest.raises(ConfigError):
        save_checkpoint(
            tmp_path / "y.ckpt",
            "cell_classifier",
            {},
            {"bad name": np.zeros(2, dtype=np.float32)},
        )


def test_model_round_trip_float32(tmp_path):
    model = tiny_model(dtype="float32", num_negatives=2, epochs=1, batch_size=2)
    batch, _ = tiny_batch(model, 30, seed=3)
    model.fit(batch)
    path = tmp_path / "model.ckpt"
    save_model(path, model)
    loaded = load_model(path, model.vocab)
    assert list(loaded.params) == list(model.params)
    for name in model.params:
        np.testing.assert_array_equal(loaded.params[name], model.params[name])
    assert loaded.trained is True
    assert loaded.config == model.config
    assert loaded.spec == model.spec
    assert loaded.n_classes == model.n_classes
    got = loaded.eval_cross_entropy(batch)
    want = model.eval_cross_entropy(batch)
    assert got == pytest.approx(want, abs=1e-12)


def test_model_round_trip_float64_loses_only_low_bits(tmp_path):
    model = tiny_model(dtype="float64", num_negatives=2)
    path = tmp_path / "model.ckpt"
    save_model(path, model)
    loaded = load_model(path, model.vocab)
    for name in model.params:
        assert loaded.params[name].dtype == np.float64
        np.testing.assert_array_equal(
            loaded.params[name],
            model.params[name].astype(np.float32).astype(np.float64),
        )


def test_model_load_validates_vocab(tmp_path):
    model = tiny_model(num_negatives=2)
    path = tmp_path / "model.ckpt"
    save_model(path, model)
    smaller, _ = make_vocab(model.n_classes - 1, seed=42)
    with pytest.raises(DataError):
        load_model(path, smaller)
    other_shard, _ = make_vocab(model.n_classes, seed=0, shard="AMER")
    with pytest.raises(DataError):
        load_model(path, other_shard)


def test_model_load_rejects_other_kind(tmp_path):
    model = tiny_model(num_negatives=2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, "bounds_regressor", model_config_echo(model), model.params)
    with pytest.raises(DataError):
        load_model(path, model.vocab)


def test_config_echo_contents():
    model = tiny_model(num_negatives=2)
    echo = model_config_echo(model)
    assert echo["shard"] == "EU"
    assert echo["trained"] is False
    assert echo["n_classes"] == 7
    assert echo["categorical_features"] == ["kind"]
    assert echo["hidden"] == [5, 4]


@pytest.mark.parametrize("kind", ["cell_classifier", "bounds_regressor"])
def test_save_load_save_is_byte_identical(tmp_path, kind):
    if kind == "cell_classifier":
        model = tiny_model(dtype="float32", num_negatives=2, epochs=1, batch_size=4)
        model.fit(tiny_batch(model, 30, seed=3)[0])
        save, load = save_model, lambda path: load_model(path, model.vocab)
    else:
        model = tiny_bounds(seed=3, dtype="float32", learning_rate=0.01, alpha=2.0)
        save, load = save_baseline, load_baseline
    first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
    save(first, model)
    save(second, load(first))
    assert second.read_bytes() == first.read_bytes()
