"""Command line pipeline: artifact layout, exit codes, output shape."""

import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest
from modeltools import edit_checkpoint_echo
from smallworld import SMALL, SMALL_BOUNDS, SMALL_TRAIN

import cellsearch
from cellsearch import cli
from cellsearch.checkpoint import load_baseline, load_model, save_baseline, save_model
from cellsearch.cli import main
from cellsearch.datagen import load_dataset, read_events
from cellsearch.errors import NumericError
from cellsearch.evaluation import format_report, run_compare
from cellsearch.features import SHARDS, encode_events, fit_pipeline
from cellsearch.labels import build_vocab, load_vocab
from cellsearch.model import ShardModel
from cellsearch.s2geom import cell_from_latlng

# The criterion-10 run, the same configs as conftest's `stack`.
CFG = {"data": asdict(SMALL), "train": asdict(SMALL_TRAIN), "bounds": asdict(SMALL_BOUNDS)}


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("cliwork")
    workdir = base / "run"
    cfg = dict(CFG, workdir=str(workdir))
    cfg_path = base / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["gen", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0
    return base, cfg_path, workdir


def test_gen_writes_dataset(pipeline_dir, capsys):
    base, cfg_path, workdir = pipeline_dir
    data = workdir / "data"
    for name in (
        "manifest.json",
        "destinations.tsv",
        "listings.tsv",
        "train_events.tsv",
        "eval_events.tsv",
    ):
        assert (data / name).exists(), name
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["seed"] == 11
    assert manifest["n_destinations"] == 8


def test_train_writes_artifacts(pipeline_dir):
    base, cfg_path, workdir = pipeline_dir
    for name in (
        "pipeline.json",
        "vocab_EU.txt",
        "vocab_AMER.txt",
        "vocab_OTHER.txt",
        "model_EU.ckpt",
        "model_AMER.ckpt",
        "model_OTHER.ckpt",
        "baseline.ckpt",
        "postings.idx",
    ):
        assert (workdir / name).exists(), name


def test_sweep_writes_csv_and_charts(pipeline_dir, capsys):
    base, cfg_path, workdir = pipeline_dir
    assert main(["sweep", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    csv_path = workdir / "sweep.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "shard,lambda,recall,precision_dest,precision_event,mean_cells,mean_retrieved"
    assert len(lines) == 1 + 3 * 40
    for shard in ("EU", "AMER", "OTHER"):
        assert (workdir / f"sweep_{shard}.svg").exists()
    # deterministic: a second sweep reproduces the artifacts byte for byte
    before = csv_path.read_bytes()
    svg_before = (workdir / "sweep_EU.svg").read_bytes()
    assert main(["sweep", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert csv_path.read_bytes() == before
    assert (workdir / "sweep_EU.svg").read_bytes() == svg_before


def test_compare_writes_report(pipeline_dir, capsys):
    base, cfg_path, workdir = pipeline_dir
    assert main(["compare", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "pooled precision_dest" in out
    assert "gap band" in out
    report = (workdir / "report.txt").read_text()
    assert report.startswith("cellsearch-report 1\n")
    assert "[pooled]" in report
    assert "[gap]" in report


def test_compare_matches_a_baseline_that_recalls_nothing(tmp_path, capsys):
    """A bounds regressor driven to its smallest rectangles: each covers
    one cell, and the EU and OTHER baselines recall no search. compare
    matches the classifier at recall 0 there instead of refusing it."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "workdir": str(tmp_path / "run"),
        "data": {"n_destinations": 6, "n_listings": 1500, "n_train_events": 3000, "n_eval_events": 60},
        "train": {"epochs": 2, "patience": 2, "batch_size": 128, "num_negatives": 8, "hidden": [16, 16]},
        "bounds": {"batch_size": 128, "hidden": [16, 16]},
    }))
    sets = ("bounds.beta=1000", "bounds.learning_rate=0.5", "bounds.epochs=6", "bounds.patience=6")
    for command in ("gen", "train", "sweep", "compare"):
        assert main([command, "--config", str(cfg_path), *(a for k in sets for a in ("--set", k))]) == 0
    capsys.readouterr()
    sections = (tmp_path / "run" / "report.txt").read_text().split("\n\n")
    shards = {}
    for section in sections:
        head, *rows = section.splitlines()
        if head.startswith("[shard "):
            shards[head[len("[shard "):-1]] = dict(row.split(" ", 1) for row in rows)
    assert set(shards) == set(SHARDS)
    for fields in shards.values():
        assert fields["baseline_mean_cells"] == "1"
        assert fields["delta_recall"] == "0" and fields["match_warning"] == "0"
    for shard in ("EU", "OTHER"):
        assert shards[shard]["baseline_recall"] == shards[shard]["cell_recall"] == "0"


def test_compare_report_is_the_library_report(pipeline_dir, stack, capsys):
    """`compare` on the written artifacts reports exactly what the stack
    fit_stack fits in memory on the same dataset reports: float32
    checkpoints, postings.idx and the dataset TSVs lose nothing."""
    base, cfg_path, workdir = pipeline_dir
    assert main(["compare", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    world, pipeline, eval_batches, models, bmodel, index = stack
    report = format_report(run_compare(models, bmodel, eval_batches, world, index))
    assert (workdir / "report.txt").read_bytes() == report.encode()


def test_retrieve_classifier_mode(pipeline_dir, capsys):
    base, cfg_path, workdir = pipeline_dir
    events = (workdir / "data" / "eval_events.tsv").read_text().splitlines()
    first_id = int(events[1].split("\t")[0])
    rc = main([
        "retrieve", "--config", str(cfg_path),
        "--event", str(first_id), "--cutoff", "0.01", "--limit", "4",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert re.search(rf"^event {first_id} shard \w+ dest \d+ guests \d+$", out, re.M)
    cell_lines = [l for l in out.splitlines() if l.startswith("cell ")]
    assert cell_lines and len(cell_lines) <= 4
    for line in cell_lines:
        parts = line.split()
        assert re.fullmatch(r"[0-9a-f]{16}", parts[1])
        assert 0.0 < float(parts[2]) <= 1.0
    assert re.search(r"^listings \d+$", out, re.M)


def test_retrieve_rect_mode(pipeline_dir, capsys):
    base, cfg_path, workdir = pipeline_dir
    events = (workdir / "data" / "eval_events.tsv").read_text().splitlines()
    first_id = int(events[1].split("\t")[0])
    rc = main([
        "retrieve", "--config", str(cfg_path),
        "--event", str(first_id), "--rect", "--limit", "3",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    rect_line = [l for l in out.splitlines() if l.startswith("rect ")]
    assert len(rect_line) == 1 and len(rect_line[0].split()) == 5
    cell_lines = [l for l in out.splitlines() if l.startswith("cell ")]
    assert cell_lines and all(re.fullmatch(r"[0-9a-f]{16}", l.split()[1]) for l in cell_lines)


def test_retrieve_error_codes(pipeline_dir, capsys):
    base, cfg_path, workdir = pipeline_dir
    rc = main(["retrieve", "--config", str(cfg_path), "--event", "99999999", "--cutoff", "0.01"])
    assert rc == 3
    rc = main(["retrieve", "--config", str(cfg_path), "--event", "0"])
    assert rc == 2
    rc = main(["retrieve", "--config", str(cfg_path), "--event", "0", "--cutoff", "1.5"])
    assert rc == 2
    capsys.readouterr()


def test_exit_codes_for_missing_inputs(tmp_path, capsys):
    assert main(["gen", "--config", str(tmp_path / "absent.json")]) == 2
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(CFG, workdir=str(tmp_path / "fresh"))))
    # train/sweep before gen: missing dataset is a data error
    assert main(["train", "--config", str(cfg_path)]) == 3
    assert main(["sweep", "--config", str(cfg_path)]) == 3
    assert main(["compare", "--config", str(cfg_path)]) == 3
    # bad override path is a config error
    assert main(["gen", "--config", str(cfg_path), "--set", "data.bogus=1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, override",
    [
        ("gen", 'data.seed="abc"'),
        ("gen", "data.seed=1.5"),
        ("gen", "data.n_destinations=6.0"),
        ("train", "train.epochs=2.5"),
        ("train", "train.batch_size=64.0"),
        ("train", "bounds.alpha=NaN"),
        ("train", "bounds.beta=Infinity"),
    ],
)
def test_config_value_of_the_wrong_type_is_a_config_error(tmp_path, capsys, command, override):
    workdir = tmp_path / "run"
    assert main([command, "--set", f"workdir={workdir}", "--set", override]) == 2
    key = override.split("=")[0]
    assert capsys.readouterr().err.startswith(f"config error: config key '{key}' must be of type ")
    assert not workdir.exists()


def test_readme_command_block_names_every_subcommand():
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(repo, "README.md"), encoding="utf-8") as f:
        readme = f.read()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    named = {line.split()[1] for line in block.splitlines() if line.startswith("cellsearch ")}
    assert named == set(cli._COMMANDS)


@pytest.fixture
def fresh_data(tmp_path, capsys):
    """A generated dataset with nothing trained on it: (config path, workdir)."""
    workdir = tmp_path / "run"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(CFG, workdir=str(workdir))))
    assert main(["gen", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    return cfg_path, workdir


def _trained_artifacts(workdir):
    return sorted(p.name for p in workdir.iterdir() if p.name != "data")


def test_train_full_scale_fails_before_any_work(fresh_data, capsys):
    cfg_path, workdir = fresh_data
    # 25,000 negatives exceed every shard's class count at this scale.
    assert main(["train", "--config", str(cfg_path), "--full-scale"]) == 2
    err = capsys.readouterr().err
    assert "num_negatives=25000" in err and "shard EU" in err
    assert _trained_artifacts(workdir) == []


@pytest.mark.parametrize("override", ["train.seed=-1", "bounds.seed=-3"])
def test_train_negative_seed_fails_before_any_work(fresh_data, capsys, override):
    cfg_path, workdir = fresh_data
    assert main(["train", "--config", str(cfg_path), "--set", override]) == 2
    assert capsys.readouterr().err == "config error: seed must be >= 0\n"
    assert _trained_artifacts(workdir) == []


@pytest.mark.parametrize("override", ["data.seed=-1", "data.n_train_events=-5", "data.n_eval_events=-1"])
def test_gen_negative_seed_or_count_fails_before_any_work(tmp_path, capsys, override):
    workdir = tmp_path / "run"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(CFG, workdir=str(workdir))))
    assert main(["gen", "--config", str(cfg_path), "--set", override]) == 2
    key = override.split("=")[0].split(".")[1]
    assert capsys.readouterr().err == f"config error: {key} must be >= 0\n"
    assert not workdir.exists()


def test_train_failing_mid_fit_writes_nothing(fresh_data, capsys):
    cfg_path, workdir = fresh_data
    world = load_dataset(workdir / "data")
    train = read_events(workdir / "data" / "train_events.tsv")
    batches = encode_events(train, world.destinations, fit_pipeline(train, world.destinations))
    sizes = {s: len(build_vocab(s, batches[s].booked_cells)) for s in SHARDS}
    # One negative fewer than the smallest shard's classes passes the
    # up-front check, but a batch with two distinct positives leaves too
    # few classes to draw from, so that shard's first step fails after
    # the larger shards have been fitted.
    assert min(sizes, key=sizes.get) == SHARDS[-1]
    negatives = f"train.num_negatives={min(sizes.values()) - 1}"
    assert main(["train", "--config", str(cfg_path), "--set", negatives]) == 2
    assert "classes available" in capsys.readouterr().err
    assert _trained_artifacts(workdir) == []


def _run_cli(command, cfg_path, *extra, cwd=None):
    """Run one command in a separate process, so that an uncaught
    exception prints its traceback to stderr instead of failing inside
    the test."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cellsearch.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "cellsearch.cli", command, "--config", str(cfg_path), *extra],
        capture_output=True, text=True, env=env, timeout=120, cwd=cwd,
    )


def _tree(root):
    """Every path under root with the bytes of each file."""
    return sorted(
        (str(p.relative_to(root)), p.read_bytes() if p.is_file() else None) for p in root.rglob("*")
    )


@pytest.mark.parametrize(
    "case", ["config-not-utf8", "config-is-a-directory", "workdir-is-a-file", "workdir-under-a-file"]
)
def test_unusable_config_input_is_a_config_error(tmp_path, case):
    cfg_path = tmp_path / "cfg.json"
    extra = ()
    if case == "config-not-utf8":
        cfg_path.write_bytes(b'\xff\xfe{"workdir": "x"}')
    elif case == "config-is-a-directory":
        cfg_path.mkdir()
    else:
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory\n")
        cfg_path.write_text(json.dumps(CFG))
        workdir = taken / "run" if case == "workdir-under-a-file" else taken
        extra = ("--set", f"workdir={workdir}")
    before = _tree(tmp_path)
    proc = _run_cli("gen", cfg_path, *extra, cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: ")
    assert "Traceback" not in proc.stderr
    assert _tree(tmp_path) == before


def _set_tsv_field(path, row, field, value):
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[row].split("\t")
    fields[field] = value
    lines[row] = "\t".join(fields)
    path.write_text("".join(lines))


def test_malformed_event_field_is_a_data_error(fresh_data, capsys):
    cfg_path, workdir = fresh_data
    path = workdir / "data" / "eval_events.tsv"
    dest_id = path.read_text().splitlines()[3].split("\t")[1]
    _set_tsv_field(path, 3, 1, "x" + dest_id)
    proc = _run_cli("compare", cfg_path)
    assert proc.returncode == 3
    assert "eval_events.tsv:4" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_unknown_training_destination_is_a_data_error(fresh_data, capsys):
    cfg_path, workdir = fresh_data
    path = workdir / "data" / "train_events.tsv"
    search_id = path.read_text().splitlines()[5].split("\t")[0]
    _set_tsv_field(path, 5, 1, "9999")
    proc = _run_cli("train", cfg_path)
    assert proc.returncode == 3
    assert f"event {search_id} references unknown destination 9999" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert _trained_artifacts(workdir) == []


def test_nan_listing_latitude_fails_train_before_any_artifact(fresh_data):
    cfg_path, workdir = fresh_data
    _set_tsv_field(workdir / "data" / "listings.tsv", 5, 1, "nan")
    proc = _run_cli("train", cfg_path)
    assert proc.returncode == 3
    assert "listings.tsv:6" in proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert _trained_artifacts(workdir) == []


def test_train_with_zero_epochs_writes_every_artifact(fresh_data, capsys):
    cfg_path, workdir = fresh_data
    rc = main(["train", "--config", str(cfg_path), "--set", "train.epochs=0", "--set", "bounds.epochs=0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert re.search(r"^shard EU: events \d+ classes \d+ epochs 0$", out, re.M)
    assert re.search(r"^baseline: epochs 0$", out, re.M)
    assert _trained_artifacts(workdir) == sorted(
        ["pipeline.json", "baseline.ckpt", "postings.idx"]
        + [f"vocab_{s}.txt" for s in SHARDS]
        + [f"model_{s}.ckpt" for s in SHARDS]
    )


def test_numeric_failure_prints_the_last_epochs(fresh_data, monkeypatch, capsys):
    cfg_path, workdir = fresh_data
    log = [{"val_ce": 6.0 - k, "epoch": k, "train_loss": 5.0 - k} for k in range(4)]

    def diverge(model, batch):
        raise NumericError("training loss diverged", log=log)

    monkeypatch.setattr(ShardModel, "fit", diverge)
    assert main(["train", "--config", str(cfg_path)]) == 4
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["numeric error: training loss diverged"] + [
        json.dumps(entry, sort_keys=True) for entry in log[1:]
    ]
    log.clear()
    assert main(["train", "--config", str(cfg_path)]) == 4
    assert capsys.readouterr().err.splitlines() == ["numeric error: training loss diverged", "no epoch finished"]
    assert _trained_artifacts(workdir) == []


def _replace_middle_line(path):
    lines = path.read_text().splitlines(keepends=True)
    lines[len(lines) // 2] = "x y z\n"
    path.write_text("".join(lines))


def _overwrite_with_binary(path):
    path.write_bytes(b"\xff\xfe\x00\x9c not text\n")


def _truncate_to_half(path):
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])


def _set_row_field(row, field, value):
    """Set one field of the 0-based line `row` of a TSV file."""

    def garble(path):
        _set_tsv_field(path, row, field, value)

    return garble


def _edit_json(edit):
    """Apply edit to the JSON document of a file, in place."""

    def garble(path):
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))

    return garble


def _set_json(value, *keys):
    """Set doc[keys[0]]...[keys[-1]] = value in a JSON file."""

    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value

    return _edit_json(edit)


def _pad_tensor(name, axis, extra):
    """Re-save a checkpoint with `extra` zero slices added to one
    parameter along `axis`, keeping its header's config."""

    def garble(path):
        if path.name == "baseline.ckpt":
            model, save = load_baseline(path), save_baseline
        else:
            shard = path.stem.removeprefix("model_")
            vocab = load_vocab(path.parent / f"vocab_{shard}.txt", shard)
            model, save = load_model(path, vocab), save_model
        pad = [(0, 0)] * model.params[name].ndim
        pad[axis] = (0, extra)
        model.params[name] = np.pad(model.params[name], pad)
        save(path, model)

    return garble


def _set_tensor_dims(name, dims):
    """Rewrite the dims of one tensor line of a checkpoint header."""

    def garble(path):
        line = re.compile(rb"^tensor %s float32 .*$" % name.encode(), re.MULTILINE)
        path.write_bytes(line.sub(b"tensor %s float32 %s" % (name.encode(), dims.encode()), path.read_bytes(), 1))

    return garble


def _replace_bytes(old, new):
    def garble(path):
        raw = path.read_bytes()
        assert old in raw
        path.write_bytes(raw.replace(old, new, 1))

    return garble


def _set_echo(**changes):
    return lambda path: edit_checkpoint_echo(path, **changes)


def _empty_first_table(path):
    """Set the first embedding table's row count in a checkpoint's echo to 0."""
    config = path.read_bytes().split(b"\n", 3)[2]
    rows = json.loads(config.removeprefix(b"config "))["emb_rows"]
    edit_checkpoint_echo(path, emb_rows=[0, *rows[1:]])


def _resize(delta):
    """Cut (delta < 0) or pad with zero bytes (delta > 0) a file's end."""

    def garble(path):
        raw = path.read_bytes()
        path.write_bytes(raw[:delta] if delta < 0 else raw + bytes(delta))

    return garble


@pytest.mark.parametrize(
    "name, garble",
    [
        ("vocab_EU.txt", _replace_middle_line),
        ("data/manifest.json", _replace_middle_line),
        ("data/manifest.json", _edit_json(lambda doc: doc.pop("seed"))),
        ("pipeline.json", _replace_middle_line),
        ("pipeline.json", _edit_json(lambda doc: doc.pop("vocabs"))),
        ("pipeline.json", _edit_json(lambda doc: doc["vocabs"].pop("device_type"))),
        ("pipeline.json", _edit_json(lambda doc: doc["continuous"]["mean"].pop())),
        ("pipeline.json", _set_json([4, 7], "cell_levels")),
        ("pipeline.json", _set_json(0.0, "continuous", "std", 1)),
        ("pipeline.json", _set_json(float("nan"), "continuous", "mean", 0)),
        ("pipeline.json", _edit_json(lambda doc: doc["vocabs"]["origin_country"].pop())),
        ("model_EU.ckpt", _truncate_to_half),
        ("model_EU.ckpt", _pad_tensor("w2", 1, 1)),
        ("baseline.ckpt", _pad_tensor("emb_dest_type", 0, 95)),
        ("postings.idx", _replace_middle_line),
        ("postings.idx", _overwrite_with_binary),
        # Line 6 of listings.tsv holds listing id 5.
        ("data/listings.tsv", _set_row_field(5, 1, "nan")),
        ("data/listings.tsv", _set_row_field(5, 0, "4")),
        ("data/eval_events.tsv", _set_row_field(1, 3, "0")),
        ("data/eval_events.tsv", _set_row_field(1, 9, "-5")),
        ("data/destinations.tsv", _set_row_field(1, 6, "XX")),
        ("data/listings.tsv", _overwrite_with_binary),
        ("data/destinations.tsv", _overwrite_with_binary),
        ("data/eval_events.tsv", _overwrite_with_binary),
        ("data/manifest.json", _set_json(999, "gap_dest_id")),
        ("baseline.ckpt", _set_tensor_dims("w1", "4294967296 4294967296")),
        ("model_EU.ckpt", _set_tensor_dims("out_b", str(2**63))),
        ("model_EU.ckpt", _replace_bytes(b" w1 float32 ", b" w1 float64 ")),
        ("model_EU.ckpt", _set_echo(extra=1)),
        ("model_EU.ckpt", _set_echo(trained=1)),
        ("baseline.ckpt", _empty_first_table),
        ("model_EU.ckpt", _resize(-8)),
        ("baseline.ckpt", _resize(4)),
        ("data/manifest.json", _set_json([1e300], "gap_listing_ids")),
        ("data/manifest.json", _set_json([2**70], "gap_listing_ids")),
        ("data/manifest.json", _set_json("abc", "gap_listing_ids")),
        ("data/manifest.json", _set_json([None], "gap_listing_ids")),
        ("data/manifest.json", _set_json([[1]], "gap_listing_ids")),
        ("data/manifest.json", _set_json([2**2000], "popularity")),
        ("data/manifest.json", lambda path: path.write_text("[" * 100_000)),
        ("pipeline.json", lambda path: path.write_text("[" * 100_000)),
    ],
    ids=[
        "vocab-garbled",
        "manifest-garbled",
        "manifest-missing-key",
        "pipeline-garbled",
        "pipeline-missing-key",
        "pipeline-missing-vocab",
        "pipeline-two-means",
        "pipeline-two-cell-levels",
        "pipeline-zero-std",
        "pipeline-nan-mean",
        "pipeline-dropped-origin-country",
        "checkpoint-truncated",
        "checkpoint-mis-shaped-layer",
        "baseline-mis-shaped-table",
        "postings-garbled",
        "postings-binary",
        "listings-nan-lat",
        "listings-duplicate-id",
        "eval-events-zero-guests",
        "eval-events-negative-cell",
        "destinations-unknown-continent",
        "listings-binary",
        "destinations-binary",
        "eval-events-binary",
        "manifest-unknown-gap-destination",
        "baseline-dims-past-int64",
        "checkpoint-dim-2-pow-63",
        "checkpoint-float64-tensor",
        "checkpoint-extra-echo-key",
        "checkpoint-trained-not-boolean",
        "baseline-zero-row-table",
        "checkpoint-cut-8-bytes",
        "baseline-padded-4-bytes",
        "manifest-band-id-huge-float",
        "manifest-band-id-past-int64",
        "manifest-band-ids-a-string",
        "manifest-band-id-null",
        "manifest-band-ids-nested",
        "manifest-popularity-past-float",
        "manifest-deeply-nested",
        "pipeline-deeply-nested",
    ],
)
def test_damaged_artifact_is_a_data_error(pipeline_dir, tmp_path, name, garble):
    base, cfg_path, workdir = pipeline_dir
    copy = tmp_path / "run"
    shutil.copytree(workdir, copy)
    own_cfg = tmp_path / "cfg.json"
    own_cfg.write_text(json.dumps(dict(CFG, workdir=str(copy))))
    garble(copy / name)
    proc = _run_cli("compare", own_cfg)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("data error: ")
    assert os.path.basename(name) in proc.stderr


def test_sweep_on_a_mis_shaped_checkpoint_is_a_data_error(pipeline_dir, tmp_path):
    base, cfg_path, workdir = pipeline_dir
    copy = tmp_path / "run"
    shutil.copytree(workdir, copy)
    own_cfg = tmp_path / "cfg.json"
    own_cfg.write_text(json.dumps(dict(CFG, workdir=str(copy))))
    _pad_tensor("w2", 1, 1)(copy / "model_EU.ckpt")
    before = _tree(copy)
    proc = _run_cli("sweep", own_cfg)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == (
        f"data error: {copy / 'model_EU.ckpt'}: checkpoint header differs from the one its config renders\n"
    )
    assert _tree(copy) == before


def test_compare_on_a_shard_without_a_reachable_booking_is_a_data_error(pipeline_dir, tmp_path):
    """Every OTHER evaluation search books a valid level-11 cell that no
    vocabulary holds, so the baseline recalls 0 there and no cutoff can
    retrieve a booking: compare names the shard and writes no report."""
    base, cfg_path, workdir = pipeline_dir
    copy = tmp_path / "run"
    shutil.copytree(workdir, copy)
    own_cfg = tmp_path / "cfg.json"
    own_cfg.write_text(json.dumps(dict(CFG, workdir=str(copy))))
    other = {str(d.dest_id) for d in load_dataset(copy / "data").destinations if d.continent == "OTHER"}
    path = copy / "data" / "eval_events.tsv"
    head, *rows = path.read_text().splitlines(keepends=True)
    fields = [row.split("\t") for row in rows]
    for f in fields:
        if f[1] in other:
            f[9] = str(int(cell_from_latlng(-80.0, 0.0, 11)))
    assert sum(f[1] in other for f in fields) > 0
    path.write_text(head + "".join("\t".join(f) for f in fields))
    (copy / "report.txt").unlink(missing_ok=True)
    proc = _run_cli("compare", own_cfg)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == "data error: shard OTHER: no search's booked cell is in the vocabulary\n"
    assert not (copy / "report.txt").exists()


def test_sweep_and_compare_ignore_the_training_searches(pipeline_dir, tmp_path, capsys):
    base, cfg_path, workdir = pipeline_dir
    assert main(["compare", "--config", str(cfg_path)]) == 0
    report = (workdir / "report.txt").read_bytes()
    copy = tmp_path / "run"
    shutil.copytree(workdir, copy)
    own_cfg = tmp_path / "cfg.json"
    own_cfg.write_text(json.dumps(dict(CFG, workdir=str(copy))))
    (copy / "report.txt").unlink()
    (copy / "data" / "train_events.tsv").write_text("not\ta search log\n")
    assert main(["sweep", "--config", str(own_cfg)]) == 0
    assert main(["compare", "--config", str(own_cfg)]) == 0
    capsys.readouterr()
    assert (copy / "report.txt").read_bytes() == report
