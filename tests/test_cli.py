"""Command line pipeline: artifact layout, exit codes, output shape."""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import pytest

import cellsearch
from cellsearch import cli
from cellsearch.cli import main
from cellsearch.datagen import load_dataset, read_events
from cellsearch.errors import DataError
from cellsearch.features import SHARDS, encode_events, fit_pipeline
from cellsearch.labels import build_vocab

CFG = {
    "data": {
        "seed": 11,
        "n_destinations": 8,
        "n_listings": 2400,
        "n_train_events": 4000,
        "n_eval_events": 600,
    },
    "train": {
        "embed_dim": 8,
        "hidden": [32, 16],
        "epochs": 2,
        "batch_size": 32,
        "num_negatives": 16,
        "seed": 5,
    },
    "bounds": {
        "embed_dim": 8,
        "hidden": [32, 16],
        "epochs": 2,
        "batch_size": 256,
        "seed": 5,
    },
}


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


def test_selfcheck_passes(tmp_path, monkeypatch, capsys):
    # Run from an empty directory and keep the check's temporary files
    # under tmp_path, so anything left behind shows up in either place.
    cwd, temp = tmp_path / "cwd", tmp_path / "temp"
    cwd.mkdir()
    temp.mkdir()
    monkeypatch.chdir(cwd)
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    assert main(["selfcheck"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert lines == ["[ok] pipeline", "[ok] sampled_softmax"]
    assert list(cwd.iterdir()) == [] and list(temp.iterdir()) == []


def test_selfcheck_reports_a_failing_stage(monkeypatch, capsys):
    def broken_train(run, args):
        raise DataError("planted failure")

    monkeypatch.setitem(cli._COMMANDS, "train", broken_train)
    assert main(["selfcheck"]) == 1
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert lines == [
        "[FAIL] pipeline: DataError: planted failure",
        "[ok] sampled_softmax",
    ]


def test_full_scale_flag_changes_train_shape(tmp_path, capsys):
    # --full-scale only rewrites the config; verify through the config loader
    from cellsearch.config import load_run_config

    run = load_run_config(overrides=["full_scale=true"])
    assert run.train.num_negatives == 25000
    capsys.readouterr()


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


def _run_cli(command, cfg_path):
    """Run one command in a separate process, so that an uncaught
    exception prints its traceback to stderr instead of failing inside
    the test."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cellsearch.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "cellsearch.cli", command, "--config", str(cfg_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )


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
        ("postings.idx", _replace_middle_line),
        ("postings.idx", _overwrite_with_binary),
        # Line 6 of listings.tsv holds listing id 5.
        ("data/listings.tsv", _set_row_field(5, 1, "nan")),
        ("data/listings.tsv", _set_row_field(5, 0, "4")),
        ("data/eval_events.tsv", _set_row_field(1, 3, "0")),
        ("data/eval_events.tsv", _set_row_field(1, 9, "-5")),
        ("data/destinations.tsv", _set_row_field(1, 6, "XX")),
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
        "postings-garbled",
        "postings-binary",
        "listings-nan-lat",
        "listings-duplicate-id",
        "eval-events-zero-guests",
        "eval-events-negative-cell",
        "destinations-unknown-continent",
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
