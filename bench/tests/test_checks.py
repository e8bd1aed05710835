"""Each output check accepts the program's real output and rejects a
planted wrong answer."""

import math
import os

import numpy as np
import pytest

import checks as ck
from cellsearch.datagen import GenConfig, generate_dataset, write_dataset
from cellsearch.s2geom import GeoRect, cells_from_latlng_vec


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    cfg = GenConfig(seed=5, n_destinations=6, n_listings=1500, n_train_events=800, n_eval_events=50)
    out = str(tmp_path_factory.mktemp("data"))
    write_dataset(out, cfg, *generate_dataset(cfg))
    return out


@pytest.fixture
def store(data_dir):
    return ck.Store(data_dir)


def test_level_cells_agree_with_the_package():
    rng = np.random.default_rng(0)
    lat = rng.uniform(-89.9, 89.9, 5000)
    lng = rng.uniform(-180.0, 180.0, 5000)
    for level in (0, 4, 11):
        assert np.array_equal(ck.level_cells(lat, lng, level), cells_from_latlng_vec(lat, lng, level))
    assert int(ck.level_cells(0.0, 0.0, 0)) == 0x1000000000000000


def test_in_rect_wraps_the_antimeridian():
    lat = np.array([0.0, 0.0, 0.0, 0.0])
    lng = np.array([179.8, -179.8, 0.0, 178.0])
    assert ck.in_rect(-1.0, 1.0, 179.5, -179.5, lat, lng).tolist() == [True, True, False, False]
    rect = GeoRect(-1.0, 1.0, 179.5, -179.5)
    assert ck.in_rect(rect.lat_lo, rect.lat_hi, rect.lng_lo, rect.lng_hi, lat, lng).tolist() == \
        rect.contains(lat, lng).tolist()


def test_counts_reject_a_count_off_by_one(store):
    want = {"destinations": 6, "listings": 1500, "train_events": 800, "eval_events": 50}
    assert ck.check_counts(store, want).ok
    assert not ck.check_counts(store, dict(want, listings=1501)).ok
    store.train["search_id"] = store.train["search_id"][1:]
    assert not ck.check_counts(store, want).ok


def test_booked_cells_reject_a_wrong_cell(store):
    assert ck.check_booked_cells(store).ok
    store.eval["booked_cell"][3] += np.uint64(1 << 39)  # the next level-11 cell on the curve
    assert not ck.check_booked_cells(store).ok


def test_gap_check_rejects_a_band_booking(store):
    assert ck.check_no_gap_bookings(store).ok
    store.train["booked_listing_id"][0] = store.manifest["gap_listing_ids"][0]
    assert not ck.check_no_gap_bookings(store).ok


def test_vocab_rejects_a_dropped_class(store):
    shards = store.shard_of(store.train["dest_id"])
    cells = np.unique(store.train["booked_cell"][shards == "EU"])
    assert ck.check_vocab(store, "EU", cells).ok
    assert not ck.check_vocab(store, "EU", cells[1:]).ok


def test_losses_and_uniform_scores():
    assert ck.check_losses_finite([[{"train_loss": 1.0, "val_ce": 2.0}]]).ok
    assert not ck.check_losses_finite([[{"train_loss": 1.0, "val_ce": math.nan}]]).ok
    assert ck.check_uniform_ce("EU", math.log(40), 40).ok
    assert not ck.check_uniform_ce("EU", math.log(40) + 1e-4, 40).ok


def test_sweep_rejects_a_rising_recall_curve():
    lam = np.array([1e-4, 1e-3, 1e-2])
    good = {"EU": (lam, np.array([0.9, 0.8, 0.5]), np.array([30.0, 20.0, 5.0]))}
    assert ck.check_sweep_monotone(good).ok
    rising = {"EU": (lam, np.array([0.9, 0.8, 0.81]), np.array([30.0, 20.0, 5.0]))}
    assert not ck.check_sweep_monotone(rising).ok
    more_cells = {"EU": (lam, np.array([0.9, 0.8, 0.5]), np.array([30.0, 20.0, 21.0]))}
    assert not ck.check_sweep_monotone(more_cells).ok


def test_matched_recall_needs_the_baseline_or_a_warning():
    section = {"cell_recall": "0.9", "baseline_recall": "0.91", "match_warning": "0"}
    assert not ck.check_matched_recall("EU", section).ok
    assert ck.check_matched_recall("EU", dict(section, match_warning="1")).ok
    assert ck.check_matched_recall("EU", dict(section, cell_recall="0.91")).ok


def test_cell_recount_matches_scans_and_rejects_one_extra_listing(store):
    classes = np.unique(store.cells[store.active])
    rng = np.random.default_rng(1)
    probs = rng.uniform(0.0, 1.0, (20, classes.size))
    guests = rng.integers(1, 6, 20)
    lam = 0.7
    recount = ck.cell_retrieved_recount(store, classes, probs, guests, lam)
    scans = [store.scan_cells(classes[p >= lam], g).size for p, g in zip(probs, guests)]
    assert recount == pytest.approx(np.mean(scans), rel=1e-12)
    assert ck.check_mean("evaluate", "cell", float(format(recount, ".9g")), recount).ok
    assert not ck.check_mean("evaluate", "cell", recount + 1.0 / len(scans), recount).ok


def test_rect_recounts_and_recall_floor(store):
    lid = int(store.eval["booked_listing_id"][0])
    r = store.row_of[lid]
    rect = GeoRect.from_center(float(store.lat[r]), float(store.lng[r]), 0.2, 0.2)
    mean, inside = ck.rect_recounts(store, [rect], [1], [lid])
    assert inside == 1.0
    assert mean == ck.in_rect(rect.lat_lo, rect.lat_hi, rect.lng_lo, rect.lng_hi,
                              store.lat, store.lng)[store.active].sum()
    assert ck.check_recall_floor("EU", 1.0, inside).ok
    assert not ck.check_recall_floor("EU", 0.5, inside).ok


def test_serve_scan_rejects_a_dropped_listing_id(store):
    cells = np.unique(store.cells)[:40]
    want = store.scan_cells(cells, 2)
    mask = np.isin(store.cells, cells) & store.active & (store.cap >= 2)
    assert np.array_equal(want, np.sort(store.ids[mask]))
    assert not np.array_equal(want[:-1], store.scan_cells(cells, 2))


def test_report_lambda_round_trips_float32():
    p = np.float32(5.1292114e-05)
    text = format(float(p), ".9g")
    assert ck.report_lambda(text) == float(p)


def test_read_report(tmp_path):
    path = os.path.join(tmp_path, "report.txt")
    with open(path, "w") as fh:
        fh.write("cellsearch-report 1\n\n[shard EU]\nmatched_lambda 0.5\n\n[pooled]\nn 3\n")
    report = ck.read_report(path)
    assert report["EU"]["matched_lambda"] == "0.5"
    assert report["pooled"]["n"] == "3"
