"""The tiny workload runs every stage and both routes in seconds."""

import json
import os

import numpy as np
import pytest

import cellsearch.s2geom.region as region
from cellsearch.index import ListingIndex
from harness import Run
from tracing import LAYER_METRICS
from workloads import TINY, WARMUP, WORKLOADS

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
                         "BENCHMARK.json")


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    record = Run(TINY, 3, 0.0, False, str(tmp_path / "run")).execute()
    assert record["error"] is None
    assert record["correct"], [c for c in record["checks"] if not c["ok"]]
    assert record["failed"] == 0
    assert set(record["ops"]) == {"gen", "train", "sweep", "compare", "serve.cell", "serve.rect"}
    slices = len(TINY.repeats()) + 1
    assert record["ops"]["serve.cell"]["attempted"] == TINY.searches + slices * WARMUP
    assert record["ops"]["gen"]["attempted"] == TINY.setup_repeats
    assert record["ops"]["train"]["attempted"] == TINY.train_repeats
    spec = json.load(open(BENCHMARK))
    assert set(record["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in record["metrics"].values())
    assert not os.path.exists(tmp_path / "run" / "stack")


def test_traced_run_reports_every_layer_metric_and_restores_the_package(tmp_path):
    original = region.cover_rect_raw
    record = Run(TINY, 3, 0.0, True, str(tmp_path / "run")).execute()
    assert record["correct"] and record["failed"] == 0
    spec = json.load(open(BENCHMARK))
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in LAYER_METRICS]
    assert set(record["metrics"]) == {name for name, _ in LAYER_METRICS}
    assert record["metrics"]["s2geom.cover_rect_raw_ms"]["value"] > 0
    assert record["metrics"]["labels.classes"]["value"] > 0
    assert os.path.exists(tmp_path / "run" / "trace.json")
    assert region.cover_rect_raw is original
    import cellsearch.baseline as baseline
    assert baseline.cover_rect_raw is original


def test_a_dropped_listing_id_fails_every_cell_query(tmp_path, monkeypatch):
    retrieve = ListingIndex.retrieve_cells

    def drop_last(self, cells, num_guests=1, active_only=True):
        return retrieve(self, cells, num_guests, active_only)[:-1]

    monkeypatch.setattr(ListingIndex, "retrieve_cells", drop_last)
    record = Run(TINY, 3, 0.0, False, str(tmp_path / "run")).execute()
    cell = record["ops"]["serve.cell"]
    assert cell["failed"] == cell["attempted"]
    # The rectangle route pulls postings through retrieve_cells as well.
    assert record["ops"]["serve.rect"]["failed"] > 0


def test_benchmark_json_names_the_workloads():
    spec = json.load(open(BENCHMARK))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["command"] == ["python3", "bench/run.py"]
    for workload in WORKLOADS.values():
        assert workload.searches >= 400
        assert workload.train["patience"] == workload.train["epochs"]
        assert workload.setup_repeats >= 3
