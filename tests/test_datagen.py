"""Generator tests: determinism, invariants of the engineered world, and
record-file round trips."""

import json
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cellsearch.datagen import (
    BOOKING_CUTOFF_SPREADS,
    KM_PER_DEG,
    GenConfig,
    ListingStore,
    _BookingSampler,
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


def _book_one_at_a_time(sampler, dest_id, ci, party, lats, lngs):
    """The booking rule for one point at a time: the first candidate, in
    store row order, nearest the point among those seating the party."""
    idx, c_lat, c_lng, c_cap = sampler.candidates[(dest_id, ci)]
    ok = c_cap >= party
    return np.array([idx[ok][np.argmin(km_distance(lat, lng, c_lat[ok], c_lng[ok]))] for lat, lng in zip(lats, lngs)])


def test_booking_candidates_are_the_bookable_listings_within_the_cutoff(small_dataset):
    world = small_dataset[0]
    store = world.listings
    sampler = _BookingSampler(world)
    bookable = store.active & ~np.isin(store.ids, world.gap.listing_ids)
    for dest in world.destinations:
        for ci, cl in enumerate(dest.clusters):
            d = km_distance(cl.lat, cl.lng, store.lats, store.lngs)
            within = np.flatnonzero((d <= BOOKING_CUTOFF_SPREADS * cl.spread_km) & bookable)
            np.testing.assert_array_equal(sampler.candidates[(dest.dest_id, ci)][0], within)


def test_booking_pass_matches_booking_one_point_at_a_time(small_dataset):
    world = small_dataset[0]
    sampler = _BookingSampler(world)
    rng = np.random.default_rng(0)
    for dest in world.destinations:
        for ci, cl in enumerate(dest.clusters):
            top = sampler.max_cap[(dest.dest_id, ci)]
            lats = rng.normal(cl.lat, cl.spread_km / KM_PER_DEG, 300)
            lngs = rng.normal(cl.lng, cl.spread_km / (KM_PER_DEG * np.cos(np.radians(cl.lat))), 300)
            for party in sorted({1, min(3, top), top}):
                np.testing.assert_array_equal(
                    sampler.book(dest.dest_id, ci, party, lats, lngs),
                    _book_one_at_a_time(sampler, dest.dest_id, ci, party, lats, lngs),
                )


def test_booking_pass_books_the_lower_row_of_two_at_one_point(small_dataset):
    world = small_dataset[0]
    sampler = _BookingSampler(world)
    key = (world.gap.dest_id, 0)
    idx, c_lat, c_lng, c_cap = (a.copy() for a in sampler.candidates[key])
    # Candidates 3 and 7 stand at one point and seat any party.
    c_lat[7], c_lng[7] = c_lat[3], c_lng[3]
    c_cap[[3, 7]] = sampler.max_cap[key]
    sampler.candidates[key] = idx, c_lat, c_lng, c_cap
    lats = np.array([c_lat[3], c_lat[3] + 1e-9, c_lat[0]])
    lngs = np.array([c_lng[3], c_lng[3] - 1e-9, c_lng[0]])
    for party in (1, sampler.max_cap[key]):
        booked = sampler.book(*key, party, lats, lngs)
        assert booked[0] == booked[1] == idx[3] < idx[7]
        np.testing.assert_array_equal(booked, _book_one_at_a_time(sampler, *key, party, lats, lngs))


def test_search_log_clamps_the_party_to_the_clusters_largest_capacity(small_dataset):
    world = small_dataset[0]
    store = world.listings
    # Every listing seats at most 2, so most drawn parties exceed every
    # cluster's largest capacity.
    low = replace(world, listings=ListingStore.from_columns(
        store.ids, store.lats, store.lngs, np.minimum(store.capacities, 2), store.active))
    events = generate_search_log(low, 2000, 0, np.random.default_rng(5))
    guests = np.array([e.num_guests for e in events if not e.is_outlier])
    rows = listing_rows(low, [e.booked_listing_id for e in events if not e.is_outlier])
    assert (guests <= low.listings.capacities[rows]).all()
    assert set(guests) == {1, 2}


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
    # A continent without weight would get no destination: its shard has no
    # training searches, and without AMER there is no gap band.
    nan, inf = float("nan"), float("inf")
    # Three finite weights whose sum overflows cannot be normalized either.
    for mix in ((1.0, 0.0, 0.0), (1.0, 0.0, 1.0), (1.0, nan, 1.0), (1.0, inf, 1.0), (1e308, 1e308, 1e308)):
        with pytest.raises(ConfigError, match="continent_mix must be 3 positive weights"):
            GenConfig(continent_mix=mix)


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
    assert w2.config == SMALL
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
    """Set one tab-separated field of the 1-based line `lineno` of a file,
    or drop it if value is None."""
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[lineno - 1].rstrip("\n").split("\t")
    if value is None:
        del fields[field]
    else:
        fields[field] = value
    lines[lineno - 1] = "\t".join(fields) + "\n"
    path.write_text("".join(lines))


@pytest.mark.parametrize(
    "field, value, message",
    [
        (1, "nan", "bad row: .*not a point on the sphere"),
        (1, "95.0", "bad row: .*not a point on the sphere"),
        (2, "-inf", "bad row: .*not a point on the sphere"),
        (2, "180.5", "bad row: .*not a point on the sphere"),
        (3, "0", "bad row: .*capacity 0 is below 1"),
        (0, "4", "bad row: .*listing id 4 repeats"),
        (0, str(2**64), "bad row: .*does not fit in 64 bits"),
        (0, str(-2**63), "bad row: .*does not fit in 64 bits"),
        (4, "2", "bad row: .*active '2' is not 0 or 1"),
        (1, "abc", "bad row: could not convert string to float: 'abc'"),
        (3, "2.5", "bad row: invalid literal for int\\(\\) with base 10: '2.5'"),
        (2, None, "expected 5 fields, got 4"),
        (1, "12#5", "bad row: could not convert string to float: '12#5'"),
        (4, "1#", "bad row: active '1#' is not 0 or 1"),
    ],
    ids=[
        "lat-nan", "lat-95", "lng-inf", "lng-180.5", "capacity-0", "repeated-id", "id-65-bits", "id-minus-2**63", "active-2",
        "lat-abc", "capacity-2.5", "four-fields", "lat-hash", "active-hash",
    ],
)
def test_bad_listing_row_names_its_line(tmp_path, small_dataset, field, value, message):
    world = small_dataset[0]
    path = tmp_path / "listings.tsv"
    write_listings(path, world.listings)
    # Line 6 holds listing id 5, after ids 1-4 on lines 2-5.
    _set_field(path, 6, field, value)
    with pytest.raises(DataError, match=f"listings.tsv:6: {message}"):
        read_listings(path)


@pytest.mark.parametrize(
    "field, value, message",
    [
        (3, "2.5", "invalid literal for int\\(\\) with base 10: '2.5'"),
        (3, "1e3", "invalid literal for int\\(\\) with base 10: '1e3'"),
        (0, "5.0", "invalid literal for int\\(\\) with base 10: '5.0'"),
        (0, str(2**64), "listing id or capacity does not fit in 64 bits"),
    ],
    ids=["capacity-2.5", "capacity-1e3", "id-5.0", "id-2**64"],
)
def test_integers_written_as_floats_are_refused_whatever_the_warning_filters(
    tmp_path, small_dataset, field, value, message
):
    # The command line runs with Python's default filters, which hide
    # DeprecationWarnings; no filter may let such a row through.
    world = small_dataset[0]
    path = tmp_path / "listings.tsv"
    write_listings(path, world.listings)
    _set_field(path, 6, field, value)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(DataError, match=f"listings.tsv:6: bad row: {message}"):
            read_listings(path)


def test_listing_spellings_only_python_parses_read_row_by_row(tmp_path, small_dataset):
    world = small_dataset[0]
    path = tmp_path / "listings.tsv"
    write_listings(path, world.listings)
    _set_field(path, 6, 0, "0_5")  # int() reads listing id 5; numpy refuses it
    assert read_listings(path) == world.listings


def test_listings_round_trip_without_rows_or_a_last_newline(tmp_path, small_dataset):
    world = small_dataset[0]
    path = tmp_path / "listings.tsv"
    empty = ListingStore.from_columns([], [], [], [], [])
    write_listings(path, empty)
    assert path.read_text().count("\n") == 1
    assert read_listings(path) == empty
    write_listings(path, world.listings)
    path.write_text(path.read_text().rstrip("\n"))
    assert read_listings(path) == world.listings


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
        (6, str(2**64), "does not fit in 64 bits"),
        (8, str(2**64), "does not fit in 64 bits"),
        (0, "{line_3_search_id}", "search id \\d+ repeats"),
    ],
    ids=[
        "guests-0", "guests-negative", "nights-negative", "mobile-2", "weekend-empty",
        "outlier-true", "cell-negative", "cell-2-to-60", "cell-level-12", "cell-face-7",
        "search-id-64-bits", "nights-65-bits", "booked-id-65-bits", "repeated-search-id",
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
