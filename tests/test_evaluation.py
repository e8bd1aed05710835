"""Sweep metrics, recall matching, baseline scoring, and artifact writers."""

import sys
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from cellsearch.baseline import BoundsModel, bounds_to_cellset, destination_coords
from cellsearch.errors import CapacityError, ConfigError, DataError
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
    sweep_shard,
    write_report,
    write_sweep_csv,
)
from cellsearch.features import SHARDS
from cellsearch.index import ListingIndex
from cellsearch.model import ShardModel
from cellsearch.s2geom import cover_rects_raw
from cellsearch.svg import sweep_svg_text, write_sweep_svg


def test_lambda_grid_is_log_spaced():
    assert LAMBDA_GRID.shape == (40,)
    assert LAMBDA_GRID[0] == pytest.approx(1e-5, rel=1e-12)
    assert LAMBDA_GRID[-1] == pytest.approx(1e-1, rel=1e-12)
    ratios = LAMBDA_GRID[1:] / LAMBDA_GRID[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-9)


def test_sweep_matches_naive_recomputation(stack, monkeypatch):
    world, pipeline, eval_batches, models, bmodel, index = stack
    monkeypatch.setattr("cellsearch.nn.EVAL_CHUNK", 7)  # cross chunk boundaries
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
    result = sweep_shard(model, batch, index, lambdas=lambdas)

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


def test_sweep_reads_one_column_per_distinct_party(stack, monkeypatch):
    """The capacity table sweep_shard reads has one column per distinct
    party of the batch, however large the parties, and its listing counts
    match a recount over the store's columns. One listing seats 10**12."""
    world, pipeline, eval_batches, models, bmodel, index = stack
    model = models["EU"]
    parties = [1, 3, 80000, 10**12, 10**12 + 1]
    batch = eval_batches["EU"].take(np.arange(40))
    batch.num_guests[:] = np.resize(parties, len(batch))
    probs = model.predict_probs(batch).astype(np.float64)
    # The 10**12 seats go to a listing in the cell search 3 (a party of
    # 10**12) ranks highest, so that search retrieves it at every cutoff.
    store = world.listings
    top_cell = model.vocab.classes[np.argmax(probs[3])]
    capacities = store.capacities.copy()
    capacities[np.flatnonzero(store.active & (store.cells == top_cell))[0]] = 10**12
    large = replace(store, capacities=capacities)

    widths = []
    table = ListingIndex.capacity_count_table

    def recorded(self, cells, parties):
        counts = table(self, cells, parties)
        widths.append(counts.shape[1])
        return counts

    monkeypatch.setattr(ListingIndex, "capacity_count_table", recorded)
    lambdas = np.array([1e-4, 1e-3, 5e-3])
    result = sweep_shard(model, batch, ListingIndex.build(large), lambdas=lambdas)
    assert widths == [len(parties)]

    for j, lam in enumerate(lambdas):
        counts = [
            np.count_nonzero(
                large.active
                & np.isin(large.cells, model.vocab.classes[probs[e] >= lam])
                & (large.capacities >= batch.num_guests[e])
            )
            for e in range(len(batch))
        ]
        assert counts[3] == 1 and counts[4] == 0
        assert result.mean_retrieved[j] == pytest.approx(sum(counts) / len(batch), abs=1e-9)


def test_sweep_dest_weighted_recall_matches_naive(stack, monkeypatch):
    world, pipeline, eval_batches, models, bmodel, index = stack
    monkeypatch.setattr("cellsearch.nn.EVAL_CHUNK", 11)
    shard = "AMER"
    batch = eval_batches[shard].take(slice(0, 60))
    model = models[shard]
    result = sweep_shard(model, batch, index, lambdas=np.array([1e-3]))
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


def test_booked_cell_probs_sentinel(stack, monkeypatch):
    world, pipeline, eval_batches, models, bmodel, index = stack
    monkeypatch.setattr("cellsearch.nn.EVAL_CHUNK", 64)
    shard = "EU"
    batch = eval_batches[shard]
    model = models[shard]
    bp = booked_cell_probs(model, batch)
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
    # 0.07 * 100 is 7.000000000000001 in floats; the cutoff still retrieves
    # 7 of 100 searches, the smallest count whose recall reaches 0.07.
    hundred = np.linspace(0.99, 0.01, 100)
    lam, warned = quantile_threshold(hundred, 0.07)
    assert (hundred >= lam).sum() == 7 and not warned
    # Unreachable because of sentinel values: falls back to the smallest
    # reachable probability.
    probs = np.array([0.9, 0.4, -1.0, -1.0])
    lam, warned = quantile_threshold(probs, 0.9)
    assert lam == 0.4 and warned
    # A target of 0 retrieves no search: the cutoff sits just above the
    # largest booked-cell probability.
    lam, warned = quantile_threshold(probs, 0.0)
    assert lam == np.nextafter(0.9, 1.0) and not warned
    assert (probs >= lam).sum() == 0
    for target in (-0.1, 1.5, float("nan")):
        with pytest.raises(ConfigError):
            quantile_threshold(probs, target)
    for target in (0.5, 0.0):
        with pytest.raises(DataError):
            quantile_threshold(np.array([-1.0, -1.0]), target)


def test_quantile_threshold_against_brute_force():
    """On random booked-cell probabilities with OOV sentinels, zeros and
    exact ties, the cutoff is above 0 and retrieves the smallest count of
    searches whose recall reaches the target; when no cutoff above 0
    reaches it, all the searches above 0, with warned set."""
    rng = np.random.default_rng(5)
    targets = np.linspace(0.0, 1.0, 41)
    for _ in range(300):
        n = int(rng.integers(1, 13))
        probs = rng.choice([-1.0, 0.0, 1e-6, 0.1, 0.25, 0.5, 0.9], size=n)
        reachable = int((probs > 0.0).sum())
        # Every count of searches some cutoff above 0 retrieves.
        counts = {0} | {int((probs >= c).sum()) for c in probs[probs > 0.0]}
        for target in targets:
            if reachable == 0:
                with pytest.raises(DataError):
                    quantile_threshold(probs, target)
                continue
            lam, warned = quantile_threshold(probs, target)
            assert lam > 0.0
            enough = [c for c in counts if c / n >= target]
            assert int((probs >= lam).sum()) == (min(enough) if enough else reachable)
            assert warned == (not enough)


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


def test_evaluate_baseline_matches_naive(stack, monkeypatch):
    """The baseline's figures against a search-by-search recount, on a
    batch of distinct searches and on one whose rows repeat; either way
    each distinct rectangle is covered once."""
    world, pipeline, eval_batches, models, bmodel, index = stack
    covered = []

    def spy(rects, level):
        covered.extend(rects)
        return cover_rects_raw(rects, level)

    monkeypatch.setattr("cellsearch.evaluation.cover_rects_raw", spy)
    batch = eval_batches["EU"].take(slice(0, 36))
    for b in (batch, batch.take([0, 0, 1, 2, 2, 2])):
        covered.clear()
        rects = _check_baseline_against_naive(bmodel, b, world, index)
        assert covered == list(dict.fromkeys(rects))
    assert len(covered) <= 3


def _check_baseline_against_naive(bmodel, batch, world, index):
    """Assert evaluate_baseline's figures on batch against a search-by-search
    recount; the batch's predicted rectangles."""
    result = evaluate_baseline(bmodel, batch, world.destinations, index)
    coords = destination_coords(batch, world.destinations)
    rects = bmodel.predict_bounds(batch, coords)
    assert result.rects == rects  # kept for the gap statistics
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
    return rects


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

    gap = result.gap
    dest = next(d for d in world.destinations if d.dest_id == world.gap.dest_id)
    assert gap.shard == dest.continent
    assert gap.dest_id == world.gap.dest_id
    if gap.n_events:
        assert gap.cell_mean_retrieved == pytest.approx(gap.cell_retrieved_total / gap.n_events)
        assert gap.rect_mean_retrieved == pytest.approx(gap.rect_retrieved_total / gap.n_events)
    # The gap band is counted at the gap shard's matched cutoff, under the
    # rectangles of that shard's baseline evaluation.
    comp = next(c for c in result.shards if c.shard == gap.shard)
    batch = eval_batches[gap.shard]
    base = evaluate_baseline(bmodel, batch, world.destinations, index)
    assert gap == gap_statistics(models[gap.shard], batch, base.rects, world, comp.matched_lambda)


def test_run_compare_predicts_each_search_once(stack, monkeypatch):
    """Per shard, compare predicts each search's rectangle once and its
    class probabilities twice (booked-cell probabilities, then the
    matched cutoff), plus once more for the gap destination's searches,
    in the sweep over the band. Each call is keyed by the chain of
    evaluation functions above it, innermost first."""
    world, pipeline, eval_batches, models, bmodel, index = stack
    callers = ("evaluate_baseline", "booked_cell_probs", "sweep_shard", "gap_statistics")
    rows = Counter()

    def counted(method):
        def wrapper(self, batch, *args):
            frame, chain = sys._getframe(1), []
            while frame.f_code.co_name != "run_compare":
                if frame.f_code.co_name in callers:
                    chain.append(frame.f_code.co_name)
                frame = frame.f_back
            rows[method.__name__, " < ".join(chain), batch.shard] += len(batch)
            return method(self, batch, *args)
        return wrapper

    monkeypatch.setattr(BoundsModel, "predict_bounds", counted(BoundsModel.predict_bounds))
    monkeypatch.setattr(ShardModel, "predict_probs", counted(ShardModel.predict_probs))
    result = run_compare(models, bmodel, eval_batches, world, index)

    want = Counter()
    for shard in SHARDS:
        n = len(eval_batches[shard])
        want["predict_bounds", "evaluate_baseline", shard] = n
        want["predict_probs", "booked_cell_probs", shard] = n
        want["predict_probs", "sweep_shard", shard] = n
    assert result.gap.n_events > 0
    want["predict_probs", "sweep_shard < gap_statistics", result.gap.shard] = result.gap.n_events
    assert rows == want


def test_run_compare_names_the_shard_of_a_capacity_error(stack, monkeypatch):
    world, pipeline, eval_batches, models, bmodel, index = stack

    def oversized(rects, level):
        raise CapacityError("covering exceeds cap 200000 (709173 cells at level 10)")

    monkeypatch.setattr("cellsearch.evaluation.cover_rects_raw", oversized)
    with pytest.raises(CapacityError, match=r"^shard EU: covering exceeds cap 200000 \("):
        run_compare(models, bmodel, eval_batches, world, index)


def test_run_compare_reports_a_zero_gap_section(stack):
    """The [gap] section reads zero when the gap destination has no
    evaluation searches, and when its shard has no batch."""
    world, pipeline, eval_batches, models, bmodel, index = stack
    shard = _gap_shard(world)
    batch = eval_batches[shard]
    without_dest = batch.take(np.flatnonzero(batch.dest_ids != world.gap.dest_id))
    other = next(s for s in SHARDS if s != shard)
    for batches in ({shard: without_dest}, {other: eval_batches[other]}):
        result = run_compare(models, bmodel, batches, world, index)
        assert [c.shard for c in result.shards] == list(batches)
        assert format_report(result).split("[gap]\n")[1] == (
            f"dest_id {world.gap.dest_id}\nshard {shard}\nn_events 0\n"
            "cell_retrieved_total 0\nrect_retrieved_total 0\n"
            "cell_mean_retrieved 0\nrect_mean_retrieved 0\n"
        )


def _gap_shard(world):
    return next(d for d in world.destinations if d.dest_id == world.gap.dest_id).continent


def _gap_rects(world, eval_batches, bmodel):
    """The gap shard's batch and the baseline rectangle of each of its
    searches."""
    batch = eval_batches[_gap_shard(world)]
    return batch, bmodel.predict_bounds(batch, destination_coords(batch, world.destinations))


def _expected_gap_totals(world, batch, rects, models, lam):
    """Both routes' band counts by brute force: the classifier's through
    retrieve_cells on an index of the whole store, the rectangle's by a
    scan of the band in each gap search's rectangle."""
    shard = _gap_shard(world)
    rows = np.flatnonzero(batch.dest_ids == world.gap.dest_id)
    gb = batch.take(rows)
    index = ListingIndex.build(world.listings)
    gap_ids = set(world.gap.listing_ids)
    model = models[shard]
    probs = model.predict_probs(gb).astype(np.float64)
    classes = model.vocab.classes
    expected_cell = 0
    for e in range(len(gb)):
        selected = classes[probs[e] >= lam]
        ids = index.retrieve_cells(selected, int(gb.num_guests[e]))
        expected_cell += sum(1 for i in ids if int(i) in gap_ids)
    store = world.listings
    band = [int(np.flatnonzero(store.ids == i)[0]) for i in world.gap.listing_ids]
    expected_rect = 0
    for e, rect in enumerate(rects[i] for i in rows):
        for r in band:
            seats = store.capacities[r] >= gb.num_guests[e]
            if store.active[r] and seats and rect.contains(store.lats[r], store.lngs[r]):
                expected_rect += 1
    return expected_cell, expected_rect


def test_gap_statistics_counts_band_listings(stack):
    """The band as generated, and a band without listings, which counts
    zero on both routes."""
    world, pipeline, eval_batches, models, bmodel, index = stack
    shard = _gap_shard(world)
    lam = 1e-4
    batch, rects = _gap_rects(world, eval_batches, bmodel)
    rows = np.flatnonzero(batch.dest_ids == world.gap.dest_id)
    for band_world in (world, replace(world, gap=replace(world.gap, listing_ids=()))):
        stats = gap_statistics(models[shard], batch, rects, band_world, lam)
        assert stats.shard == shard
        assert stats.n_events == rows.size
        if rows.size:
            expected = _expected_gap_totals(band_world, batch, rects, models, lam)
            assert (stats.cell_retrieved_total, stats.rect_retrieved_total) == pytest.approx(expected, abs=1e-9)


def test_gap_statistics_skips_inactive_band_listings(stack):
    """A band the classifier reaches too (the gap band plus every listing
    in a cell of the shard's vocabulary), with every third of its active
    listings made inactive: both routes match the brute-force counts and
    fall below their counts over the band as generated."""
    world, pipeline, eval_batches, models, bmodel, index = stack
    shard = _gap_shard(world)
    lam = 1e-4
    store = world.listings
    reachable = models[shard].vocab.lookup_array(store.cells) >= 0
    band_ids = np.union1d(world.gap.listing_ids, store.ids[reachable])
    wide = replace(world, gap=replace(world.gap, listing_ids=tuple(band_ids.tolist())))
    active = store.active.copy()
    active[np.flatnonzero(np.isin(store.ids, band_ids) & active)[::3]] = False
    damped = replace(wide, listings=replace(store, active=active))

    batch, rects = _gap_rects(world, eval_batches, bmodel)
    full = gap_statistics(models[shard], batch, rects, wide, lam)
    stats = gap_statistics(models[shard], batch, rects, damped, lam)
    assert stats.n_events > 0
    expected = _expected_gap_totals(damped, batch, rects, models, lam)
    assert (stats.cell_retrieved_total, stats.rect_retrieved_total) == expected
    assert 0 < stats.cell_retrieved_total < full.cell_retrieved_total
    assert 0 < stats.rect_retrieved_total < full.rect_retrieved_total


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
