"""Command line pipeline: artifact layout, exit codes, output shape."""

import json
import os
import re
import subprocess
import sys

import pytest

import cellsearch
from cellsearch.cli import main
from cellsearch.datagen import load_dataset
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


def test_selfcheck_passes(capsys):
    assert main(["selfcheck"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l]
    assert len(lines) >= 6
    assert all(l.startswith("[ok] ") for l in lines)
    names = {l.split()[1] for l in lines}
    assert {"cell_counts", "hilbert_adjacency", "trunk_gradients", "sampled_softmax"} <= names


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
    world, train, _ = load_dataset(workdir / "data")
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


def test_malformed_event_field_is_a_data_error(fresh_data, capsys):
    cfg_path, workdir = fresh_data
    path = workdir / "data" / "eval_events.tsv"
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[3].split("\t")
    fields[1] = "x" + fields[1]  # dest_id
    lines[3] = "\t".join(fields)
    path.write_text("".join(lines))
    # A separate process, so that an uncaught exception would print its
    # traceback to stderr instead of failing inside the test.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cellsearch.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "cellsearch.cli", "compare", "--config", str(cfg_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3
    assert "eval_events.tsv:4" in proc.stderr
    assert "Traceback" not in proc.stderr
