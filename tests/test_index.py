"""Index tests: postings structure, retrieval equality against linear
scans, capacity filters, persistence, and concurrent reads."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cellsearch.datagen import ListingStore
from cellsearch.errors import DataError
from cellsearch.index import ListingIndex, load_index, save_index
from cellsearch.s2geom import GeoRect, cell_from_latlng, cells_from_latlng_vec


@pytest.fixture(scope="module")
def world(small_dataset):
    return small_dataset[0]


@pytest.fixture(scope="module")
def index(world):
    return ListingIndex.build(world.listings)


def listing_rows(store):
    """(id, lat, lng, capacity, active, cell) of every listing."""
    return zip(
        store.ids.tolist(),
        store.lats.tolist(),
        store.lngs.tolist(),
        store.capacities.tolist(),
        store.active.tolist(),
        store.cells.tolist(),
    )


def brute_force_cells(world, cell_set, num_guests, active_only=True):
    out = []
    for lid, _, _, capacity, active, cell in listing_rows(world.listings):
        if active_only and not active:
            continue
        if capacity < num_guests:
            continue
        if cell in cell_set:
            out.append(lid)
    return np.array(sorted(out), dtype=np.int64)


def brute_force_rect(world, rect, num_guests, active_only=True):
    out = []
    for lid, lat, lng, capacity, active, _ in listing_rows(world.listings):
        if active_only and not active:
            continue
        if capacity < num_guests:
            continue
        if bool(rect.contains(lat, lng)):
            out.append(lid)
    return np.array(sorted(out), dtype=np.int64)


def test_postings_partition_active_listings(world, index):
    lengths = np.diff(index.posting_offsets)
    assert lengths.sum() == index.n_active
    assert np.all(lengths > 0)
    assert np.all(np.diff(index.posting_cells.astype(np.int64)) > 0)
    active_ids = set(world.listings.ids[world.listings.active].tolist())
    assert set(index.posting_ids.tolist()) == active_ids
    for k in range(0, index.posting_cells.size, 37):
        lo, hi = index.posting_offsets[k], index.posting_offsets[k + 1]
        chunk = index.posting_ids[lo:hi]
        assert np.all(np.diff(chunk) > 0)


def test_posting_accessor_matches_brute_force(world, index):
    rng = np.random.default_rng(0)
    for cell in rng.choice(index.posting_cells, size=10, replace=False):
        want = brute_force_cells(world, {int(cell)}, 1)
        np.testing.assert_array_equal(index.posting(cell), want)
    absent = int(cell_from_latlng(0.0, 0.0, 11))  # open ocean
    if absent not in set(index.posting_cells.tolist()):
        assert index.posting(absent).size == 0


def test_retrieve_cells_matches_brute_force(world, index):
    rng = np.random.default_rng(1)
    listing_cells = np.unique(world.listings.cells)
    ocean = cells_from_latlng_vec(
        rng.uniform(-40, 40, size=50), rng.uniform(-40, -20, size=50), 11
    )
    for trial in range(25):
        n_pick = int(rng.integers(1, 40))
        picked = rng.choice(listing_cells, size=n_pick, replace=False)
        query = np.concatenate([picked, rng.choice(ocean, size=5)])
        guests = int(rng.integers(1, 11))
        want = brute_force_cells(world, set(query.tolist()), guests)
        got = index.retrieve_cells(query, num_guests=guests)
        np.testing.assert_array_equal(got, want)
        rows = index.posting_rows(np.unique(query))
        np.testing.assert_array_equal(
            np.sort(index.listings.ids[rows]), brute_force_cells(world, set(query.tolist()), 1)
        )
        want_all = brute_force_cells(
            world, set(query.tolist()), guests, active_only=False
        )
        got_all = index.retrieve_cells(query, num_guests=guests, active_only=False)
        np.testing.assert_array_equal(got_all, want_all)


def test_retrieve_cells_accepts_sets_and_empty(index):
    assert index.retrieve_cells([]).size == 0
    some = set(index.posting_cells[:3].tolist())
    got = index.retrieve_cells(some)
    assert got.size > 0
    np.testing.assert_array_equal(got, index.retrieve_cells(np.array(sorted(some))))


def test_retrieve_cells_rejects_wrong_level(index):
    coarse = cell_from_latlng(10.0, 10.0, 7)
    with pytest.raises(DataError):
        index.retrieve_cells([int(coarse)])
    garbage = (np.uint64(7) << np.uint64(61)) | np.uint64(1 << 38)
    with pytest.raises(DataError):
        index.retrieve_cells([garbage])


def test_retrieve_rect_matches_brute_force(world, index):
    rng = np.random.default_rng(2)
    rects = []
    for dest in world.destinations[:6]:
        half_lat = float(rng.uniform(0.05, 0.6))
        half_lng = float(rng.uniform(0.05, 0.8))
        rects.append(GeoRect.from_center(dest.lat, dest.lng, half_lat, half_lng))
    d0 = world.destinations[0]
    rects.append(GeoRect.from_center(d0.lat, d0.lng, 3.0, 3.0))
    rects.append(GeoRect(-5.0, 5.0, 170.0, -170.0))  # antimeridian wrap, ocean
    for rect in rects:
        for guests in (1, 3, 7):
            want = brute_force_rect(world, rect, guests)
            got = index.retrieve_rect(rect, num_guests=guests)
            np.testing.assert_array_equal(np.sort(got), want)
        want_all = brute_force_rect(world, rect, 1, active_only=False)
        got_all = index.retrieve_rect(rect, num_guests=1, active_only=False)
        np.testing.assert_array_equal(np.sort(got_all), want_all)


def test_capacity_count_table_matches_brute_force(world, index):
    rng = np.random.default_rng(3)
    cells = np.concatenate(
        [
            rng.choice(index.posting_cells, size=15, replace=False),
            [np.uint64(cell_from_latlng(0.0, 0.0, 11))],
        ]
    )
    cells = np.append(cells, cells[0])  # a repeated cell gets its own row
    table = index.capacity_count_table(cells, max_guests=10)
    assert table.shape == (17, 11)
    for i, cell in enumerate(cells):
        for g in range(11):
            want = sum(
                1
                for _, _, _, capacity, active, c in listing_rows(world.listings)
                if active and c == int(cell) and capacity >= g
            )
            assert table[i, g] == want
    assert np.all(np.diff(table, axis=1) <= 0)  # monotone in guests


def test_save_load_round_trip(tmp_path, world, index):
    path = tmp_path / "postings.idx"
    save_index(path, index, "listings.tsv")
    loaded, ref = load_index(path, world.listings)
    assert ref == "listings.tsv"
    np.testing.assert_array_equal(loaded.posting_cells, index.posting_cells)
    np.testing.assert_array_equal(loaded.posting_ids, index.posting_ids)
    np.testing.assert_array_equal(loaded.posting_offsets, index.posting_offsets)
    header = path.read_text().splitlines()
    assert header[0] == "cellindex 1"
    assert header[1] == "listings listings.tsv"
    first = header[3].split()
    assert int(first[1]) == len(first) - 2


def test_tampered_index_rejected(tmp_path, world, index):
    path = tmp_path / "postings.idx"
    save_index(path, index, "listings.tsv")
    lines = path.read_text().splitlines()

    swapped = list(lines)
    row = next(
        i for i in range(3, len(swapped)) if int(swapped[i].split()[1]) >= 2
    )
    parts = swapped[row].split()
    parts[2], parts[3] = parts[3], parts[2]
    swapped[row] = " ".join(parts)
    bad = tmp_path / "swapped.idx"
    bad.write_text("\n".join(swapped) + "\n")
    with pytest.raises(DataError):
        load_index(bad, world.listings)

    miscount = list(lines)
    parts = miscount[3].split()
    parts[1] = str(int(parts[1]) + 1)
    miscount[3] = " ".join(parts)
    bad2 = tmp_path / "miscount.idx"
    bad2.write_text("\n".join(miscount) + "\n")
    with pytest.raises(DataError):
        load_index(bad2, world.listings)

    bad3 = tmp_path / "magic.idx"
    bad3.write_text("something 9\n" + "\n".join(lines[1:]) + "\n")
    with pytest.raises(DataError):
        load_index(bad3, world.listings)


def test_concurrent_reads_are_consistent(world, index):
    rng = np.random.default_rng(4)
    queries = [
        rng.choice(index.posting_cells, size=20, replace=False) for _ in range(16)
    ]
    rect = GeoRect.from_center(
        world.destinations[0].lat, world.destinations[0].lng, 0.5, 0.5
    )

    def work(q):
        a = index.retrieve_cells(q, num_guests=2)
        b = index.retrieve_rect(rect, num_guests=2)
        return a, b

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(work, queries * 4))
    for (a, b), q in zip(results, queries * 4):
        np.testing.assert_array_equal(a, index.retrieve_cells(q, num_guests=2))
        np.testing.assert_array_equal(b, results[0][1])


def test_all_inactive_store_uses_scan_fallback():
    lats = [10.0 + 0.01 * i for i in range(5)]
    listings = ListingStore.from_columns(range(5), lats, [20.0] * 5, [2] * 5, [False] * 5)
    idx = ListingIndex.build(listings)
    assert idx.posting_cells.size == 0
    assert idx.n_active == 0
    cell = int(cell_from_latlng(10.0, 20.0, 11))
    assert idx.retrieve_cells([cell]).size == 0
    assert idx.posting_rows([cell]).size == 0
    got = idx.retrieve_cells([cell], active_only=False)
    want = [i for i, lat in enumerate(lats) if int(cell_from_latlng(lat, 20.0, 11)) == cell]
    np.testing.assert_array_equal(got, np.array(sorted(want), dtype=np.int64))


def test_build_rejects_bad_stores(world):
    with pytest.raises(DataError):
        ListingIndex.build(world.listings.take(np.zeros(len(world.listings), dtype=bool)))
    with pytest.raises(DataError, match="listing id 7 repeats"):
        ListingStore.from_columns([7, 3, 7], [1.0] * 3, [2.0] * 3, [1] * 3, [True] * 3)