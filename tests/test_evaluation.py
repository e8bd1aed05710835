"""Sweep metrics, recall matching, baseline scoring, and artifact writers."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from cellsearch.baseline import BoundsConfig, BoundsModel, bounds_to_cellset, destination_coords, offset_targets
from cellsearch.errors import ConfigError, DataError
from cellsearch.evaluation import (
    FULL_SCALE_REFERENCE_LAMBDAS,
    LAMBDA_GRID,
    booked_cell_probs,
    evaluate_baseline,
    format_report,
    gap_statistics,
    quantile_threshold,
    run_compare,
    sweep_csv_text,
    sweep_rows,
    sweep_shard,
    write_report,
    write_sweep_csv,
)
from cellsearch.features import SHARDS, encode_events, fit_pipeline, merge_batches
from cellsearch.index import ListingIndex
from cellsearch.labels import build_vocab
from cellsearch.model import ShardModel, TrainConfig
from cellsearch.svg import sweep_svg_text, write_sweep_svg

TINY_TRAIN = TrainConfig(
    embed_dim=8,
    hidden=(32, 16),
    epochs=2,
    batch_size=32,
    num_negatives=16,
    seed=5,
)
TINY_BOUNDS = BoundsConfig(embed_dim=8, hidden=(32, 16), epochs=2, batch_size=256, seed=5)


@pytest.fixture(scope="module")
def stack(small_dataset):
    world, train_events, eval_events = small_dataset
    pipeline = fit_pipeline(train_events, world.destinations)
    train_batches = encode_events(train_events, world.destinations, pipeline)
    eval_batches = encode_events(eval_events, world.destinations, pipeline)
    models = {}
    for shard in SHARDS:
        vocab = build_vocab(shard, train_batches[shard].booked_cells)
        model = ShardModel.build(TINY_TRAIN, pipeline, vocab)
        model.fit(train_batches[shard])
        models[shard] = model
    bmodel = BoundsModel.build(TINY_BOUNDS, pipeline)
    merged = merge_batches([train_batches[s] for s in SHARDS])
    coords = destination_coords(merged, world.destinations)
    bmodel.fit(merged, offset_targets(merged, coords))
    index = ListingIndex.build(world.listings)
    return world, pipeline, eval_batches, models, bmodel, index


def test_lambda_grid_is_log_spaced():
    assert LAMBDA_GRID.shape == (40,)
    assert LAMBDA_GRID[0] == pytest.approx(1e-5, rel=1e-12)
    assert LAMBDA_GRID[-1] == pytest.approx(1e-1, rel=1e-12)
    ratios = LAMBDA_GRID[1:] / LAMBDA_GRID[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-9)


def test_sweep_matches_naive_recomputation(stack):
    world, pipeline, eval_batches, models, bmodel, index = stack
    batch = eval_batches["EU"].take(slice(0, 48))
    # A copy in which every third search asks for 12 guests, more than any
    # listing seats, and one asks for 10**12: such searches retrieve no
    # listings at all.
    large_parties = batch.take(np.arange(len(batch)))
    large_parties.num_guests[::3] = 12
    large_parties.num_guests[1] = 10**12
    for b in (batch, large_parties):
        _check_sweep_against_naive(models["EU"], b, index)


def _check_sweep_against_naive(model, batch, index):
    lambdas = np.array([1e-4, 1e-3, 5e-3, 2e-2, 1e-1])
    result = sweep_shard(model, batch, index, lambdas=lambdas, chunk_size=7)

    probs = model.predict_probs(batch).astype(np.float64)
    classes = model.vocab.classes
    n = len(batch)
    for j, lam in enumerate(lambdas):
        hits = 0
        cells_total = 0
        prec_event = 0.0
        retrieved_total = 0
        preds = {}
        for e in range(n):
            sel = probs[e] >= lam
            selected = classes[sel]
            booked = int(batch.booked_cells[e])
            hit = booked in set(int(c) for c in selected)
            hits += hit
            cells_total += selected.size
            if selected.size:
                prec_event += hit / selected.size
            retrieved_total += index.retrieve_cells(selected, int(batch.num_guests[e])).size
            d = int(batch.dest_ids[e])
            pred, truth = preds.setdefault(d, (set(), set()))
            pred.update(int(c) for c in selected)
            truth.add(booked)
        assert result.recall[j] == pytest.approx(hits / n, abs=1e-12)
        assert result.mean_cells[j] == pytest.approx(cells_total / n, abs=1e-9)
        assert result.precision_event[j] == pytest.approx(prec_event / n, abs=1e-12)
        assert result.mean_retrieved[j] == pytest.approx(retrieved_total / n, abs=1e-9)
        per_dest = [
            (len(pred & truth) / len(pred)) if pred else 0.0 for pred, truth in preds.values()
        ]
        assert result.precision_dest[j] == pytest.approx(float(np.mean(per_dest)), abs=1e-12)
    assert result.n_events == n
    assert result.n_classes == len(model.vocab)


def test_sweep_dest_weighted_recall_matches_naive(stack):
    world, pipeline, eval_batches, models, bmodel, index = stack
    shard = "AMER"
    batch = eval_batches[shard].take(slice(0, 60))
    model = models[shard]
    result = sweep_shard(model, batch, index, lambdas=np.array([1e-3]), chunk_size=11)
    probs = model.predict_probs(batch).astype(np.float64)
    classes_set = {int(c): i for i, c in enumerate(model.vocab.classes)}
    per_dest = {}
    for e in range(len(batch)):
        booked = classes_set.get(int(batch.booked_cells[e]), -1)
        hit = booked >= 0 and probs[e, booked] >= 1e-3
        per_dest.setdefault(int(batch.dest_ids[e]), []).append(hit)
    expected = float(np.mean([np.mean(v) for v in per_dest.values()]))
    assert result.dest_weighted_recall[0] == pytest.approx(expected, abs=1e-12)


def test_sweep_monotone_in_cutoff(stack):
    world, pipeline, eval_batches, models, bmodel, index = stack
    for shard in SHARDS:
        result = sweep_shard(models[shard], eval_batches[shard], index)
        assert np.all(np.diff(result.recall) <= 0)
        assert np.all(np.diff(result.mean_cells) <= 0)
        assert np.all(np.diff(result.mean_retrieved) <= 0)


def test_booked_cell_probs_sentinel(stack):
    world, pipeline, eval_batches, models, bmodel, index = stack
    shard = "EU"
    batch = eval_batches[shard]
    model = models[shard]
    bp = booked_cell_probs(model, batch, chunk_size=64)
    y = model.vocab.lookup_array(batch.booked_cells)
    assert np.all((bp == -1.0) == (y < 0))
    assert (y < 0).sum() > 0, "fixture should contain OOV booked cells"
    some = np.flatnonzero(y >= 0)[:5]
    probs = model.predict_probs(batch.take(some))
    for k, e in enumerate(some):
        assert bp[e] == pytest.approx(float(probs[k, y[e]]), abs=1e-12)


def test_quantile_threshold_exact():
    probs = np.array([0.9, 0.8, 0.7, 0.6, 0.5])
    lam, warned = quantile_threshold(probs, 0.4)
    assert lam == 0.8 and not warned
    assert (probs >= lam).mean() == 0.4
    lam, warned = quantile_threshold(probs, 0.5)
    assert lam == 0.7 and not warned
    # Unreachable because of sentinel values: falls back to the smallest
    # reachable probability.
    probs = np.array([0.9, 0.4, -1.0, -1.0])
    lam, warned = quantile_threshold(probs, 0.9)
    assert lam == 0.4 and warned
    with pytest.raises(ConfigError):
        quantile_threshold(probs, 0.0)
    with pytest.raises(DataError):
        quantile_threshold(np.array([-1.0, -1.0]), 0.5)


def test_quantile_threshold_on_model(stack):
    world, pipeline, eval_batches, models, bmodel, index = stack
    shard = "OTHER"
    batch = eval_batches[shard]
    bp = booked_cell_probs(models[shard], batch)
    target = 0.6
    lam, warned = quantile_threshold(bp, target)
    assert not warned
    achieved = float((bp >= lam).mean())
    n = len(batch)
    ties = int((bp == lam).sum())
    assert achieved >= target
    assert achieved <= target + (ties + 1) / n


def test_evaluate_baseline_matches_naive(stack):
    world, pipeline, eval_batches, models, bmodel, index = stack
    shard = "EU"
    batch = eval_batches[shard].take(slice(0, 36))
    result = evaluate_baseline(bmodel, batch, world.destinations, index)

    coords = destination_coords(batch, world.destinations)
    rects = bmodel.predict_bounds(batch, coords)
    n = len(batch)
    hits = 0
    cells_total = 0
    prec_event = 0.0
    retrieved_total = 0
    preds = {}
    per_dest_hits = {}
    for e in range(n):
        covering = bounds_to_cellset(rects[e])
        booked = int(batch.booked_cells[e])
        hit = booked in set(int(c) for c in covering)
        hits += hit
        cells_total += covering.size
        if covering.size:
            prec_event += hit / covering.size
        retrieved_total += index.retrieve_rect(rects[e], int(batch.num_guests[e])).size
        d = int(batch.dest_ids[e])
        pred, truth = preds.setdefault(d, (set(), set()))
        pred.update(int(c) for c in covering)
        truth.add(booked)
        per_dest_hits.setdefault(d, []).append(hit)
    assert result.point.recall == pytest.approx(hits / n, abs=1e-12)
    assert result.point.mean_cells == pytest.approx(cells_total / n, abs=1e-9)
    assert result.point.precision_event == pytest.approx(prec_event / n, abs=1e-12)
    assert result.point.mean_retrieved == pytest.approx(retrieved_total / n, abs=1e-9)
    per_dest = [(len(p & t) / len(p)) if p else 0.0 for p, t in preds.values()]
    assert result.point.precision_dest == pytest.approx(float(np.mean(per_dest)), abs=1e-12)
    expected_dw = float(np.mean([np.mean(v) for v in per_dest_hits.values()]))
    assert result.point.dest_weighted_recall == pytest.approx(expected_dw, abs=1e-12)


@pytest.fixture(scope="module")
def compared(stack):
    world, pipeline, eval_batches, models, bmodel, index = stack
    return run_compare(models, bmodel, eval_batches, world, index)


def test_run_compare_matches_recall(stack, compared):
    world, pipeline, eval_batches, models, bmodel, index = stack
    result = compared
    assert [c.shard for c in result.shards] == list(SHARDS)
    for comp in result.shards:
        assert comp.matched_lambda > 0.0
        if not comp.match_warning:
            assert comp.delta_recall >= -1e-12
            assert comp.delta_recall <= 0.05
    assert result.n_destinations == sum(
        np.unique(eval_batches[s].dest_ids).size for s in SHARDS
    )
    assert 0.0 <= result.pooled_cell_precision_dest <= 1.0
    assert 0.0 <= result.pooled_baseline_precision_dest <= 1.0
    assert result.reference_lambdas == FULL_SCALE_REFERENCE_LAMBDAS

    gap = result.gap
    dest = next(d for d in world.destinations if d.dest_id == world.gap.dest_id)
    assert gap.shard == dest.continent
    assert gap.dest_id == world.gap.dest_id
    if gap.n_events:
        assert gap.cell_mean_retrieved == pytest.approx(gap.cell_retrieved_total / gap.n_events)
        assert gap.rect_mean_retrieved == pytest.approx(gap.rect_retrieved_total / gap.n_events)


def test_gap_statistics_counts_band_listings(stack):
    world, pipeline, eval_batches, models, bmodel, index = stack
    dest = next(d for d in world.destinations if d.dest_id == world.gap.dest_id)
    shard = dest.continent
    lam = 1e-4
    stats = gap_statistics(models, bmodel, eval_batches, world, {shard: lam})
    batch = eval_batches[shard]
    rows = np.flatnonzero(batch.dest_ids == world.gap.dest_id)
    assert stats.n_events == rows.size
    if rows.size == 0:
        return
    gb = batch.take(rows)
    gap_ids = set(world.gap.listing_ids)
    model = models[shard]
    probs = model.predict_probs(gb).astype(np.float64)
    classes = model.vocab.classes
    expected_cell = 0
    for e in range(len(gb)):
        selected = classes[probs[e] >= lam]
        ids = index.retrieve_cells(selected, int(gb.num_guests[e]))
        expected_cell += sum(1 for i in ids if int(i) in gap_ids)
    assert stats.cell_retrieved_total == pytest.approx(expected_cell, abs=1e-9)
    coords = destination_coords(gb, world.destinations)
    rects = bmodel.predict_bounds(gb, coords)
    store = world.listings
    band = [int(np.flatnonzero(store.ids == i)[0]) for i in world.gap.listing_ids]
    expected_rect = 0
    for e, rect in enumerate(rects):
        for r in band:
            seats = store.capacities[r] >= gb.num_guests[e]
            if store.active[r] and seats and rect.contains(store.lats[r], store.lngs[r]):
                expected_rect += 1
    assert stats.rect_retrieved_total == pytest.approx(expected_rect, abs=1e-9)


def test_sweep_csv_layout(stack, tmp_path):
    world, pipeline, eval_batches, models, bmodel, index = stack
    results = [sweep_shard(models[s], eval_batches[s], index) for s in SHARDS]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, results)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "shard,lambda,recall,precision_dest,precision_event,mean_cells,mean_retrieved"
    assert len(lines) == 1 + 3 * LAMBDA_GRID.size
    row = lines[1].split(",")
    assert row[0] == "EU"
    assert float(row[1]) == pytest.approx(LAMBDA_GRID[0], rel=1e-8)
    assert float(row[2]) == pytest.approx(results[0].recall[0], rel=1e-8)
    assert text == sweep_csv_text(results)


def test_svg_metadata_equals_csv_rows(stack, tmp_path):
    world, pipeline, eval_batches, models, bmodel, index = stack
    result = sweep_shard(models["EU"], eval_batches["EU"], index)
    svg = sweep_svg_text(result)
    start = svg.index("<metadata id='sweep-rows'>") + len("<metadata id='sweep-rows'>")
    end = svg.index("</metadata>")
    block = svg[start:end].strip().splitlines()
    csv_lines = sweep_csv_text([result]).splitlines()
    assert block == csv_lines


def test_svg_is_valid_xml_and_deterministic(stack, tmp_path):
    world, pipeline, eval_batches, models, bmodel, index = stack
    result = sweep_shard(models["OTHER"], eval_batches["OTHER"], index)
    path1 = tmp_path / "a.svg"
    path2 = tmp_path / "b.svg"
    write_sweep_svg(path1, result)
    write_sweep_svg(path2, result)
    assert path1.read_bytes() == path2.read_bytes()
    root = ET.fromstring(path1.read_text())
    assert root.tag.endswith("svg")
    ns = {"s": "http://www.w3.org/2000/svg"}
    polylines = root.findall(".//s:polyline", ns)
    assert len(polylines) == 1
    assert len(polylines[0].attrib["points"].split()) == LAMBDA_GRID.size
    circles = root.findall(".//s:circle", ns)
    assert len(circles) == LAMBDA_GRID.size


def test_report_layout(compared, tmp_path):
    result = compared
    text = format_report(result)
    assert text == format_report(result)
    lines = text.splitlines()
    assert lines[0] == "cellsearch-report 1"
    for shard in SHARDS:
        assert f"[shard {shard}]" in lines
        assert f"reference_lambda {shard} {FULL_SCALE_REFERENCE_LAMBDAS[shard]:.9g}" in lines
    assert "[pooled]" in lines
    assert "[gap]" in lines
    keys = [l.split()[0] for l in lines if l and not l.startswith("[")]
    assert "cell_recall" in keys and "baseline_recall" in keys
    assert "cell_dest_weighted_recall" in keys
    assert "rect_retrieved_total" in keys
    path = tmp_path / "report.txt"
    write_report(path, result)
    assert path.read_text() == text


def test_sweep_input_validation(stack):
    world, pipeline, eval_batches, models, bmodel, index = stack
    batch = eval_batches["EU"]
    with pytest.raises(DataError):
        sweep_shard(models["EU"], batch.take(slice(0, 0)), index)
    with pytest.raises(DataError):
        sweep_shard(models["AMER"], batch, index)
    with pytest.raises(ConfigError):
        sweep_shard(models["EU"], batch, index, lambdas=np.array([0.1, 0.01]))
    with pytest.raises(ConfigError):
        sweep_shard(models["EU"], batch, index, lambdas=np.array([-0.1, 0.01]))
    with pytest.raises(ConfigError):
        sweep_shard(models["EU"], batch, index, lambdas=np.empty(0))
