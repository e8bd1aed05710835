"""Generator tests: determinism, invariants of the engineered world, and
record-file round trips."""

import json
import os

import numpy as np
import pytest

from cellsearch.datagen import (
    BOOKING_CUTOFF_SPREADS,
    GenConfig,
    generate_dataset,
    generate_search_log,
    generate_world,
    km_distance,
    load_dataset,
    read_destinations,
    read_events,
    read_listings,
    write_dataset,
    write_destinations,
    write_events,
    write_listings,
)
from cellsearch.errors import ConfigError, DataError
from cellsearch.s2geom import cell_from_latlng

from smallworld import SMALL


def listing_rows(world, ids):
    """Store rows of the given listing ids, each of which must exist."""
    rows = np.searchsorted(world.listings.ids, ids)
    np.testing.assert_array_equal(world.listings.ids[rows], ids)
    return rows


def test_counts_exact(small_dataset):
    world, train, ev = small_dataset
    assert len(world.listings) == SMALL.n_listings
    assert len(world.destinations) == SMALL.n_destinations
    assert len(train) == SMALL.n_train_events
    assert len(ev) == SMALL.n_eval_events
    assert world.listings.ids.tolist() == list(range(1, SMALL.n_listings + 1))


def test_event_ids_disjoint_and_ordered(small_dataset):
    _, train, ev = small_dataset
    assert [e.search_id for e in train] == list(range(len(train)))
    assert [e.search_id for e in ev] == list(
        range(len(train), len(train) + len(ev))
    )


def test_booked_cell_matches_listing(small_dataset):
    world, train, ev = small_dataset
    store = world.listings
    for e in (train + ev)[::37]:
        r = listing_rows(world, e.booked_listing_id)
        assert e.booked_cell == int(cell_from_latlng(store.lats[r], store.lngs[r], 11))


def test_bookings_pass_retrieval_filters(small_dataset):
    world, train, ev = small_dataset
    rows = listing_rows(world, [e.booked_listing_id for e in train + ev])
    assert world.listings.active[rows].all()
    guests = np.array([e.num_guests for e in train + ev])
    assert (world.listings.capacities[rows] >= guests).all()


def test_gap_band_has_listings_but_no_bookings(small_dataset):
    world, train, ev = small_dataset
    assert len(world.gap.listing_ids) >= 50
    gap_ids = set(world.gap.listing_ids)
    assert all(e.booked_listing_id not in gap_ids for e in train + ev)
    # Gap listings really sit inside the band rect.
    rows = listing_rows(world, world.gap.listing_ids)
    assert world.gap.rect.contains(world.listings.lats[rows], world.listings.lngs[rows]).all()


def test_non_outlier_bookings_near_cluster(small_dataset):
    world, train, _ = small_dataset
    store = world.listings
    for e in train[:2000]:
        if e.is_outlier:
            continue
        dest = world.destinations[e.dest_id]
        r = listing_rows(world, e.booked_listing_id)
        d = min(
            float(km_distance(c.lat, c.lng, store.lats[r], store.lngs[r]))
            for c in dest.clusters
        )
        limit = max(BOOKING_CUTOFF_SPREADS * c.spread_km for c in dest.clusters)
        assert d <= limit + 1e-6


def test_outlier_fraction_close_to_rate():
    cfg = GenConfig(
        seed=3,
        n_destinations=6,
        n_listings=1800,
        n_train_events=100_000,
        n_eval_events=100,
    )
    world = generate_world(cfg)
    rng = np.random.default_rng(cfg.seed + 1)
    events = generate_search_log(world, 100_000, 0, rng)
    frac = sum(e.is_outlier for e in events) / len(events)
    assert abs(frac - cfg.outlier_rate) < 0.005


def test_every_positive_continent_present(small_dataset):
    world, _, _ = small_dataset
    assert {d.continent for d in world.destinations} == {"EU", "AMER", "OTHER"}


def test_degenerate_continent_mix():
    cfg = GenConfig(
        seed=5,
        n_destinations=4,
        n_listings=1000,
        n_train_events=10,
        n_eval_events=10,
        continent_mix=(1.0, 0.0, 0.0),
    )
    world = generate_world(cfg)
    assert all(d.continent == "EU" for d in world.destinations)
    assert world.gap.dest_id == -1  # no AMER destination to engineer


def test_multi_cluster_mixture_share():
    # Non-primary booking share for the engineered destination should be
    # close to pan_discovery_rate * secondary weight.
    cfg = GenConfig(
        seed=13,
        n_destinations=6,
        n_listings=2000,
        n_train_events=60_000,
        n_eval_events=100,
    )
    world = generate_world(cfg)
    rng = np.random.default_rng(99)
    events = generate_search_log(world, 60_000, 0, rng)
    dest = world.destinations[world.gap.dest_id]
    b = dest.clusters[1]
    store = world.listings
    n = n_b = 0
    for e in events:
        if e.dest_id != dest.dest_id or e.is_outlier:
            continue
        n += 1
        r = listing_rows(world, e.booked_listing_id)
        if float(km_distance(b.lat, b.lng, store.lats[r], store.lngs[r])) < 15.0:
            n_b += 1
    expect = cfg.pan_discovery_rate * b.weight
    assert n > 500
    assert abs(n_b / n - expect) < 0.03


def test_byte_identical_reruns(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    for d in (d1, d2):
        world, train, ev = generate_dataset(SMALL)
        write_dataset(str(d), SMALL, world, train, ev)
    for name in sorted(os.listdir(d1)):
        b1 = (d1 / name).read_bytes()
        b2 = (d2 / name).read_bytes()
        assert b1 == b2, name


def test_round_trip_files(tmp_path, small_dataset):
    world, train, ev = small_dataset
    write_dataset(str(tmp_path), SMALL, world, train, ev)
    assert read_listings(tmp_path / "listings.tsv") == world.listings
    assert read_destinations(tmp_path / "destinations.tsv") == world.destinations
    assert read_events(tmp_path / "train_events.tsv") == train
    assert read_events(tmp_path / "eval_events.tsv") == ev
    w2 = load_dataset(str(tmp_path))
    assert w2.listings == world.listings
    assert w2.destinations == world.destinations
    assert w2.gap == world.gap


def test_band_listing_absent_from_listings_is_a_data_error(tmp_path, small_dataset):
    world, train, ev = small_dataset
    write_dataset(str(tmp_path), SMALL, world, train, ev)
    manifest = tmp_path / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["gap_listing_ids"].append(SMALL.n_listings + 1)
    manifest.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=f"band listing {SMALL.n_listings + 1}"):
        load_dataset(str(tmp_path))


def test_listing_rows_are_sorted_by_id_on_read(tmp_path, small_dataset):
    world = small_dataset[0]
    path = tmp_path / "listings.tsv"
    write_listings(path, world.listings)
    header, *rows = path.read_text().splitlines(keepends=True)
    path.write_text(header + "".join(rows[::-1]))
    assert read_listings(path) == world.listings


def _set_field(path, lineno, field, value):
    """Set one tab-separated field of the 1-based line `lineno` of a file."""
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[lineno - 1].rstrip("\n").split("\t")
    fields[field] = value
    lines[lineno - 1] = "\t".join(fields) + "\n"
    path.write_text("".join(lines))


@pytest.mark.parametrize(
    "field, value, message",
    [
        (1, "nan", "not a point on the sphere"),
        (1, "95.0", "not a point on the sphere"),
        (2, "-inf", "not a point on the sphere"),
        (2, "180.5", "not a point on the sphere"),
        (3, "0", "capacity 0 is below 1"),
        (0, "4", "listing id 4 repeats"),
        (0, str(2**64), "does not fit in 64 bits"),
        (4, "2", "active '2' is not 0 or 1"),
    ],
    ids=["lat-nan", "lat-95", "lng-inf", "lng-180.5", "capacity-0", "repeated-id", "id-65-bits", "active-2"],
)
def test_bad_listing_row_names_its_line(tmp_path, small_dataset, field, value, message):
    world = small_dataset[0]
    path = tmp_path / "listings.tsv"
    write_listings(path, world.listings)
    # Line 6 holds listing id 5, after ids 1-4 on lines 2-5.
    _set_field(path, 6, field, value)
    with pytest.raises(DataError, match=f"listings.tsv:6: bad row: .*{message}"):
        read_listings(path)


@pytest.mark.parametrize(
    "field, value, message",
    [
        (3, "0", "num_guests 0 or trip_length_nights \\d+ is below 1"),
        (3, "-1", "num_guests -1 or trip_length_nights \\d+ is below 1"),
        (6, "-4", "trip_length_nights -4 is below 1"),
        (4, "2", "is_mobile_app '2' is not 0 or 1"),
        (7, "", "is_weekend '' is not 0 or 1"),
        (10, "true", "is_outlier 'true' is not 0 or 1"),
        (9, "-5", "booked_cell -5 is not a level-11 cell id"),
        (9, str(2**60), f"booked_cell {2**60} is not a level-11 cell id"),
        (9, str(int(cell_from_latlng(10.0, 20.0, 12))), "is not a level-11 cell id"),
        (9, str(7 << 61 | 1 << 38), "is not a level-11 cell id"),
        (0, str(2**63), "does not fit in 64 bits"),
        (0, "{line_3_search_id}", "search id \\d+ repeats"),
    ],
    ids=[
        "guests-0", "guests-negative", "nights-negative", "mobile-2", "weekend-empty",
        "outlier-true", "cell-negative", "cell-2-to-60", "cell-level-12", "cell-face-7",
        "search-id-64-bits", "repeated-search-id",
    ],
)
def test_bad_event_row_names_its_line(tmp_path, small_dataset, field, value, message):
    _, _, ev = small_dataset
    path = tmp_path / "eval_events.tsv"
    write_events(path, ev)
    # Line 4 holds the third event, line 3 the second.
    _set_field(path, 4, field, value.format(line_3_search_id=ev[1].search_id))
    with pytest.raises(DataError, match=f"eval_events.tsv:4: bad row: .*{message}"):
        read_events(path)


@pytest.mark.parametrize(
    "field, value, message",
    [
        (6, "XX", "continent 'XX' is not one of EU, AMER, OTHER"),
        (2, "nan", "not a point on the sphere"),
        (3, "-181", "not a point on the sphere"),
        (7, "-5", "bounds diagonal -5 is not a positive number of km"),
        (7, "0", "bounds diagonal 0 is not a positive"),
        (7, "nan", "bounds diagonal nan is not a positive"),
        (0, "1", "destination id 1 repeats"),
    ],
    ids=["continent-XX", "lat-nan", "lng-181", "diagonal-negative", "diagonal-0", "diagonal-nan", "repeated-id"],
)
def test_bad_destination_row_names_its_line(tmp_path, small_dataset, field, value, message):
    world = small_dataset[0]
    path = tmp_path / "destinations.tsv"
    write_destinations(path, world.destinations)
    # Line 4 holds destination 2, after destinations 0 and 1.
    _set_field(path, 4, field, value)
    with pytest.raises(DataError, match=f"destinations.tsv:4: bad row: .*{message}"):
        read_destinations(path)


def test_config_validation():
    with pytest.raises(ConfigError):
        GenConfig(n_destinations=2)
    with pytest.raises(ConfigError):
        GenConfig(n_destinations=10, n_listings=100)
    with pytest.raises(ConfigError):
        GenConfig(outlier_rate=0.7)
    with pytest.raises(ConfigError):
        GenConfig(pan_discovery_rate=1.5)
    with pytest.raises(ConfigError):
        GenConfig(continent_mix=(0, 0, 0))
