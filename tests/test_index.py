"""Index tests: postings structure, retrieval equality against linear
scans, capacity filters, persistence, and concurrent reads."""

from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from cellsearch.datagen import MAX_CAPACITY, ListingStore
from cellsearch.errors import DataError
from cellsearch.index import ListingIndex, load_index, save_index, sorted_unique
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


def brute_force_seated(world, cell, num_guests):
    """Store rows of the active listings in the cell that seat the party,
    largest capacity first, ties in id order."""
    store = world.listings
    rows = [
        r for r, (_, _, _, capacity, active, c) in enumerate(listing_rows(store))
        if active and c == int(cell) and capacity >= num_guests
    ]
    return np.array(sorted(rows, key=lambda r: (-int(store.capacities[r]), int(store.ids[r]))), dtype=np.int64)


def brute_force_rect(world, rect, num_guests):
    out = []
    for lid, lat, lng, capacity, active, _ in listing_rows(world.listings):
        if not active:
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
    ids = index.posting_ids
    active_ids = set(world.listings.ids[world.listings.active].tolist())
    assert set(ids.tolist()) == active_ids
    # posting_ids gives each posting in id order, as the postings file lists it.
    by_cell = {}
    for lid, _, _, _, active, cell in listing_rows(world.listings):
        if active:
            by_cell.setdefault(cell, []).append(lid)
    for k, cell in enumerate(index.posting_cells.tolist()):
        lo, hi = index.posting_offsets[k], index.posting_offsets[k + 1]
        assert ids[lo:hi].tolist() == sorted(by_cell[cell])


def test_posting_accessor_matches_brute_force(world, index):
    rng = np.random.default_rng(0)
    cells = rng.choice(index.posting_cells, size=10, replace=False)
    for cell in cells:
        for guests in (0, 1, 4):
            want = brute_force_seated(world, cell, guests)
            np.testing.assert_array_equal(index.seated_rows([cell], guests), want)
    # Several cells come back posting by posting, in the order asked.
    np.testing.assert_array_equal(
        index.seated_rows(cells, 0), np.concatenate([brute_force_seated(world, c, 0) for c in cells])
    )
    absent = int(cell_from_latlng(0.0, 0.0, 11))  # open ocean
    if absent not in set(index.posting_cells.tolist()):
        assert index.seated_rows([absent], 0).size == 0


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
        # Every party size, past both ends of the capacity range.
        for guests in range(-1, MAX_CAPACITY + 3):
            want = brute_force_cells(world, set(query.tolist()), guests)
            got = index.retrieve_cells(query, num_guests=guests)
            np.testing.assert_array_equal(got, want)
            want_all = brute_force_cells(
                world, set(query.tolist()), guests, active_only=False
            )
            got_all = index.retrieve_cells(query, num_guests=guests, active_only=False)
            np.testing.assert_array_equal(got_all, want_all)
        rows = index.seated_rows(np.unique(query), 0)
        np.testing.assert_array_equal(
            np.sort(index.listings.ids[rows]), brute_force_cells(world, set(query.tolist()), 0)
        )


def test_retrieve_cells_accepts_arrays_and_empty(index):
    assert index.retrieve_cells(np.array([], dtype=np.uint64)).size == 0
    some = index.posting_cells[:3]
    got = index.retrieve_cells(some[::-1])
    assert got.size > 0
    np.testing.assert_array_equal(got, index.retrieve_cells(some))


def test_sorted_unique_equals_np_unique():
    rng = np.random.default_rng(4)
    cases = [np.empty(0, dtype=np.uint64), np.array([5], dtype=np.uint64), np.zeros(6, dtype=np.uint64)]
    for n in (2, 17, 1000):
        cases.append(rng.integers(0, 2**63, n, dtype=np.uint64))
        cases.append(rng.integers(0, 9, n, dtype=np.uint64))
        cases.append(np.sort(rng.integers(0, 30, n, dtype=np.uint64)))
    for values in cases:
        got = sorted_unique(values)
        want = np.unique(values)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


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


def test_capacity_count_table_matches_brute_force(world, index):
    rng = np.random.default_rng(3)
    store = world.listings
    largest = store.active & (store.capacities == store.capacities[store.active].max())
    cells = np.concatenate(
        [
            rng.choice(index.posting_cells, size=15, replace=False),
            store.cells[largest][:1],  # a cell that seats the largest party
            [np.uint64(cell_from_latlng(0.0, 0.0, 11))],
        ]
    )
    cells = np.append(cells, cells[0])  # a repeated cell gets its own row
    for max_guests in (0, 3, 10, 15):
        table = index.capacity_count_table(cells, np.arange(max_guests + 1))
        assert table.shape == (18, max_guests + 1)
        for i, cell in enumerate(cells):
            for g in range(max_guests + 1):
                want = sum(
                    1
                    for _, _, _, capacity, active, c in listing_rows(world.listings)
                    if active and c == int(cell) and capacity >= g
                )
                assert table[i, g] == want
        assert np.all(np.diff(table, axis=1) <= 0)  # monotone in guests


def test_capacity_order_is_a_permutation_of_each_posting(world, index):
    store = world.listings
    caps = store.capacities
    by_cell = {}
    for r, (_, _, _, _, active, cell) in enumerate(listing_rows(store)):
        if active:
            by_cell.setdefault(cell, []).append(r)
    assert index.posting_cells.tolist() == sorted(by_cell)
    # One seat column per distinct active capacity, plus the empty one.
    assert index._levels.tolist() == sorted({int(c) for c in caps[store.active]})
    assert index._seats.shape == (index.posting_cells.size, index._levels.size + 1)
    for k, cell in enumerate(index.posting_cells.tolist()):
        lo, hi = index.posting_offsets[k], index.posting_offsets[k + 1]
        by_capacity = index._by_capacity[lo:hi]
        np.testing.assert_array_equal(np.sort(by_capacity), by_cell[cell])
        # Capacity descending, and ids ascending among equal capacities.
        step = np.diff(caps[by_capacity])
        assert np.all(step <= 0)
        assert np.all(np.diff(store.ids[by_capacity])[step == 0] > 0)
        for j, level in enumerate(index._levels.tolist()):
            assert index._seats[k, j] == np.count_nonzero(caps[by_cell[cell]] >= level)
        assert index._seats[k, -1] == 0


def test_postings_are_read_only(index):
    for name in ("posting_cells", "posting_offsets", "_levels", "_by_capacity", "_seats"):
        array = getattr(index, name)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[-1]
        with pytest.raises(ValueError, match="read-only"):
            array += 1


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

    # The file must be exactly what save_index writes: a trailing space on
    # a posting line fails, and so does a file cut after its header.
    spaced = list(lines)
    spaced[3] += " "
    bad4 = tmp_path / "spaced.idx"
    bad4.write_text("\n".join(spaced) + "\n")
    with pytest.raises(DataError, match="spaced.idx"):
        load_index(bad4, world.listings)

    bad5 = tmp_path / "header.idx"
    bad5.write_text("\n".join(lines[:3]) + "\n")
    with pytest.raises(DataError, match="header.idx"):
        load_index(bad5, world.listings)


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
    for guests in (-1, 0, 2, 3):
        assert idx.retrieve_cells([cell], num_guests=guests).size == 0
    assert idx.seated_rows([cell], 0).size == 0
    table = idx.capacity_count_table([cell, cell], np.arange(5))
    np.testing.assert_array_equal(table, np.zeros((2, 5)))
    got = idx.retrieve_cells([cell], active_only=False)
    want = [i for i, lat in enumerate(lats) if int(cell_from_latlng(lat, 20.0, 11)) == cell]
    np.testing.assert_array_equal(got, np.array(sorted(want), dtype=np.int64))


def test_capacities_of_any_size_are_ranked():
    """Seat columns follow the distinct capacities, not their size: a
    listing that seats 10**12 guests indexes like any other."""
    lats = [10.0 + 0.02 * i for i in range(9)]
    caps = [1, 3, 10**12, 3, 1, 10**12, 3, 1, 1]
    active = [True] * 8 + [False]
    store = ListingStore.from_columns(range(9), lats, [20.0] * 9, caps, active)
    idx = ListingIndex.build(store)
    assert idx._levels.tolist() == [1, 3, 10**12]
    world = SimpleNamespace(listings=store)
    cells = idx.posting_cells
    for guests in (-1, 0, 1, 3, 4, 10**12, 10**12 + 1):
        want = np.concatenate([brute_force_seated(world, c, guests) for c in cells])
        np.testing.assert_array_equal(idx.seated_rows(cells, guests), want)
        got = idx.retrieve_cells(cells, num_guests=guests)
        np.testing.assert_array_equal(got, brute_force_cells(world, set(cells.tolist()), guests))
    # One column per given party, in the given order; a party beyond every
    # capacity reads zeros.
    for parties in (np.arange(6), [10**12 + 1, 4, 0, 10**12]):
        table = idx.capacity_count_table(cells, parties)
        for i, cell in enumerate(cells.tolist()):
            for j, g in enumerate(parties):
                assert table[i, j] == brute_force_seated(world, cell, g).size


def test_build_rejects_bad_stores():
    with pytest.raises(DataError):
        ListingIndex.build(ListingStore.from_columns([], [], [], [], []))
    with pytest.raises(DataError, match="non-negative"):
        ListingIndex.build(ListingStore.from_columns([1, 2], [1.0] * 2, [2.0] * 2, [3, -1], [True] * 2))
    with pytest.raises(DataError, match="listing id 7 repeats"):
        ListingStore.from_columns([7, 3, 7], [1.0] * 3, [2.0] * 3, [1] * 3, [True] * 3)