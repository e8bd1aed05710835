"""Checkpoint format tests: text header, float32 payload layout,
corruption handling, and full model round trips."""

import json

import numpy as np
import pytest
from modeltools import edit_checkpoint_echo, make_vocab, tiny_batch, tiny_bounds, tiny_model

from cellsearch.checkpoint import (
    load_baseline,
    load_model,
    model_config_echo,
    save_baseline,
    save_model,
)
from cellsearch.errors import DataError
from cellsearch.nn import trunk_layout


def saved_model(tmp_path, name="m.ckpt"):
    """A tiny float32 classifier and the path it was saved to."""
    model = tiny_model(dtype="float32", num_negatives=2)
    path = tmp_path / name
    save_model(path, model)
    return model, path


def test_round_trip_preserves_everything(tmp_path):
    model = tiny_bounds(seed=5, dtype="float32")
    model.trained = True
    path = tmp_path / "b.ckpt"
    save_baseline(path, model)
    got = load_baseline(path)
    assert (got.config, got.spec, got.trained) == (model.config, model.spec, True)
    assert list(got.params) == list(model.params)
    for name in model.params:
        np.testing.assert_array_equal(got.params[name], model.params[name])
        assert got.params[name].dtype == np.float32


def test_header_is_readable_text(tmp_path):
    model = tiny_bounds()
    path = tmp_path / "b.ckpt"
    save_baseline(path, model)
    head = path.read_bytes().split(b"\nend\n")[0].decode("utf-8").splitlines()
    assert head[0] == "cellsearch-checkpoint 1"
    assert head[1] == "kind bounds_regressor"
    echo = json.loads(head[2][len("config ") :])
    assert (echo["trained"], echo["emb_rows"], echo["n_continuous"]) == (False, [4], 2)
    assert head[3] == "tensor emb_kind float32 4 3"
    assert head[4] == "tensor w1 float32 5 5"
    assert head[-1] == "tensor out_b float32 4"
    assert len(head) == 3 + len(trunk_layout(model.spec, 4))


def test_save_twice_is_byte_identical(tmp_path):
    model, a = saved_model(tmp_path, "a.ckpt")
    b = tmp_path / "b.ckpt"
    save_model(b, model)
    assert a.read_bytes() == b.read_bytes()


def test_corruption_is_rejected(tmp_path):
    model, path = saved_model(tmp_path)
    raw = path.read_bytes()
    header = len(raw.split(b"\nend\n")[0]) + len(b"\nend\n")
    payload = len(raw) - header
    differs = "checkpoint header differs from the one its config renders"
    cases = [
        (raw[:-8], f"checkpoint payload has {payload - 8} bytes, expected {payload}"),
        (raw + b"\x00" * 4, f"checkpoint payload has {payload + 4} bytes, expected {payload}"),
        (b"something-else 1\n" + raw.split(b"\n", 1)[1], "not a recognized checkpoint file"),
        (b"", "not a recognized checkpoint file"),
        (raw.replace(b"kind cell_classifier", b"kind mystery"), "expected a cell_classifier checkpoint, got 'mystery'"),
        (raw.replace(b"config {", b"config {{"), "checkpoint config has a missing or bad field"),
        (raw.replace(b"config {", b"config " + b"[" * 100_000), "checkpoint config has a missing or bad field"),
        (raw.replace(b"w1 float32", b"w1 float64"), differs),
        (raw.replace(b"w1 float32 5 5", b"w1 float32 4294967296 4294967296"), differs),
        (raw.replace(b"out_b float32 7", b"out_b float32 9223372036854775808"), differs),
        (raw.split(b"end\n")[0], differs),
        (raw[: header - 1], differs),
    ]
    bad = tmp_path / "bad.ckpt"
    for damaged, message in cases:
        bad.write_bytes(damaged)
        with pytest.raises(DataError) as err:
            load_model(bad, model.vocab)
        assert str(err.value).startswith(f"{bad}: {message}")


def test_load_rejects_tensor_names_the_layout_does_not_give(tmp_path):
    # Saving writes whatever parameters a model holds; only the names and
    # order of trunk_layout load.
    model, path = saved_model(tmp_path)
    params = model.params
    names = list(params)
    for order in (["bad name", *names[1:]], [*names[1:], names[0]], names[:-1]):
        model.params = {name: params.get(name, np.zeros(3)) for name in order}
        save_model(path, model)
        with pytest.raises(DataError, match="header differs"):
            load_model(path, model.vocab)


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


def test_model_load_rejects_bad_echo_field(tmp_path):
    for field, value in (
        ("hidden", 5), ("learning_rate", -1.0), ("seed", -1), ("n_continuous", "2"),
        ("n_continuous", -1), ("emb_rows", [0]), ("emb_rows", [4.0]), ("embed_dim", 3.0),
    ):
        model, path = saved_model(tmp_path)
        edit_checkpoint_echo(path, **{field: value})
        with pytest.raises(DataError, match="bad field"):
            load_model(path, model.vocab)


def test_load_rejects_an_echo_that_saving_does_not_write(tmp_path):
    # A trained flag that is not a JSON boolean, or a key no model echoes,
    # makes the header differ from the one its config renders.
    for changes in ({"trained": 1}, {"trained": "false"}, {"extra": 1}):
        model, path = saved_model(tmp_path)
        edit_checkpoint_echo(path, **changes)
        with pytest.raises(DataError, match="header differs"):
            load_model(path, model.vocab)


@pytest.mark.parametrize("kind", ["cell_classifier", "bounds_regressor"])
def test_load_rejects_a_tensor_shape_the_header_does_not_give(tmp_path, kind):
    # A hidden layer one column too wide, or an embedding table whose row
    # count is not the header's emb_rows: the names and order still match.
    path = tmp_path / "model.ckpt"
    if kind == "cell_classifier":
        model, name, shape = tiny_model(num_negatives=2), "w2", (5, 5)
        save, load = save_model, lambda path: load_model(path, model.vocab)
    else:
        model, name, shape = tiny_bounds(), "emb_kind", (99, 3)
        save, load = save_baseline, load_baseline
    model.params[name] = np.zeros(shape)
    save(path, model)
    with pytest.raises(DataError) as err:
        load(path)
    assert str(err.value) == f"{path}: checkpoint header differs from the one its config renders"


def test_model_load_rejects_other_kind(tmp_path):
    model, path = saved_model(tmp_path)
    with pytest.raises(DataError, match="expected a bounds_regressor checkpoint, got 'cell_classifier'"):
        load_baseline(path)
    save_baseline(path, tiny_bounds())
    with pytest.raises(DataError, match="expected a cell_classifier checkpoint, got 'bounds_regressor'"):
        load_model(path, model.vocab)


def test_config_echo_contents(tmp_path):
    model = tiny_model(num_negatives=2)
    echo = model_config_echo(model)
    assert echo["shard"] == "EU"
    assert echo["trained"] is False
    assert echo["n_classes"] == 7
    assert echo["categorical_features"] == ["kind"]
    # The widths as the header renders them: a JSON list.
    save_model(tmp_path / "model.ckpt", model)
    header = (tmp_path / "model.ckpt").read_bytes().split(b"\nend\n", 1)[0].decode()
    (line,) = [line for line in header.splitlines() if line.startswith("config ")]
    assert json.loads(line[len("config "):])["hidden"] == [5, 4]


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
    assert load(first).config == model.config
    save(second, load(first))
    assert second.read_bytes() == first.read_bytes()
