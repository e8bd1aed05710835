"""Cell id tests: bit layout, hierarchy arithmetic, round trips."""

import numpy as np
import pytest

from cellsearch.errors import DataError, InvalidCellError
from cellsearch.s2geom import (
    CellId,
    all_cells_at_level,
    cell_centers_vec,
    cell_from_latlng,
    cell_from_raw_ij,
    cells_from_latlng_vec,
    is_valid_raw,
    num_cells_at_level,
    valid_at_level,
)
from cellsearch.s2geom.cellid import descendant_ids, face_ij


def test_level_zero_face_zero_layout():
    c = cell_from_latlng(0.0, 0.0, 0)
    assert int(c) == 0x1000000000000000
    assert c.face() == 0
    assert c.level() == 0


def test_sentinel_positions():
    # Sentinel sits at bit 60 - 2L; position bits directly below the face.
    for level in (0, 1, 7, 11, 30):
        c = cell_from_latlng(37.0, -122.0, level)
        lsb = int(c) & -int(c)
        assert lsb == 1 << (60 - 2 * level)
        assert c.level() == level
        assert c.face() == int(c) >> 61


def test_invalid_raws_rejected():
    for raw in (
        0,
        1 << 61,  # lsb lands on the face bits (index 61 > 60)
        0x1000000000000002,  # lsb at odd bit index 1
        6 << 61 | 1 << 60,  # face 6
        7 << 61 | 1 << 60,  # face 7
        1 << 63,  # lsb at odd index 63, face out of range
    ):
        assert not is_valid_raw(raw)
        with pytest.raises(InvalidCellError):
            CellId.from_raw(raw)


def test_valid_raw_accepts_all_levels():
    for level in range(31):
        for face in range(6):
            raw = (face << 61) | (1 << (60 - 2 * level))
            assert is_valid_raw(raw)
            assert CellId.from_raw(raw).level() == level


def test_token_round_trip():
    c = cell_from_latlng(48.86, 2.35, 11)
    assert len(c.token()) == 16
    assert CellId.from_token(c.token()) == c
    with pytest.raises(InvalidCellError):
        CellId.from_token("zzzz")


def test_parent_child_inverse():
    rng = np.random.default_rng(5)
    for _ in range(300):
        lat = rng.uniform(-89, 89)
        lng = rng.uniform(-180, 180)
        level = int(rng.integers(1, 30))
        c = cell_from_latlng(lat, lng, level)
        p = c.parent(level - 1)
        assert p.level() == level - 1
        assert c in p.children()
        for child in p.children():
            assert child.parent(level - 1) == p
            assert p.contains(child)
            assert not child.contains(p) or child == p


def test_children_partition_parent_range():
    c = cell_from_latlng(10.0, 20.0, 6)
    kids = c.children()
    lo = min(k.range_min() for k in kids)
    hi = max(k.range_max() for k in kids)
    assert lo == c.range_min() and hi == c.range_max()
    spans = sorted((k.range_min(), k.range_max()) for k in kids)
    for (a_lo, a_hi), (b_lo, b_hi) in zip(spans, spans[1:]):
        # Exactly one raw value separates consecutive child ranges: either
        # the parent itself (it sorts mid-range) or an invalid odd-sentinel.
        assert a_hi + 2 == b_lo
        gap = a_hi + 1
        assert gap == int(c) or not is_valid_raw(gap)


def test_containment_transitive_random_chains():
    rng = np.random.default_rng(9)
    for _ in range(200):
        lat = rng.uniform(-89, 89)
        lng = rng.uniform(-180, 180)
        l1, l2, l3 = sorted(rng.choice(30, 3, replace=False))
        deep = cell_from_latlng(lat, lng, int(l3))
        mid = deep.parent(int(l2))
        top = deep.parent(int(l1))
        assert top.contains(mid) and mid.contains(deep)
        assert top.contains(deep)
        # Siblings at mid level are not contained in each other.
        assert mid.contains(mid)


def test_parent_deeper_than_cell_rejected():
    c = cell_from_latlng(0, 0, 4)
    with pytest.raises(DataError):
        c.parent(5)


def test_descendant_count_in_range():
    c = cell_from_latlng(-33.9, 18.4, 5)
    for k in (1, 2, 3):
        level = 5 + k
        cells = all_cells_at_level(level)
        inside = (cells >= np.uint64(c.range_min())) & (
            cells <= np.uint64(c.range_max())
        )
        assert int(inside.sum()) == 4**k


def test_num_cells_formula():
    for level, count in ((0, 6), (1, 24), (2, 96), (11, 25_165_824)):
        assert num_cells_at_level(level) == count
        assert num_cells_at_level(level) == 6 * 4**level


def test_all_cells_at_level_valid_sorted_unique():
    for level in (0, 1, 3, 5):
        cells = all_cells_at_level(level)
        assert cells.size == num_cells_at_level(level)
        assert np.all(np.diff(cells.astype(np.int64)) > 0)
        for raw in cells[:: max(1, cells.size // 64)]:
            c = CellId.from_raw(int(raw))
            assert c.level() == level


def test_encode_center_encode_fixed_point():
    rng = np.random.default_rng(21)
    for level in (0, 4, 7, 11, 16):
        lat = rng.uniform(-90, 90, 2000)
        lng = rng.uniform(-180, 180, 2000)
        for k in range(200):
            c = cell_from_latlng(float(lat[k]), float(lng[k]), level)
            ctr = c.center()
            assert cell_from_latlng(ctr.lat, ctr.lng, level) == c


def test_vec_encode_matches_scalar():
    rng = np.random.default_rng(23)
    lat = rng.uniform(-90, 90, 500)
    lng = rng.uniform(-180, 180, 500)
    for level in (0, 7, 11):
        raws = cells_from_latlng_vec(lat, lng, level)
        for k in range(0, 500, 7):
            assert int(raws[k]) == int(cell_from_latlng(lat[k], lng[k], level))


def test_vec_centers_match_scalar():
    rng = np.random.default_rng(29)
    lat = rng.uniform(-88, 88, 300)
    lng = rng.uniform(-180, 180, 300)
    raws = cells_from_latlng_vec(lat, lng, 11)
    clat, clng = cell_centers_vec(raws, 11)
    for k in range(0, 300, 11):
        ctr = CellId.from_raw(int(raws[k])).center()
        assert abs(ctr.lat - clat[k]) < 1e-12
        assert abs(ctr.lng - clng[k]) < 1e-12


@pytest.mark.parametrize("level", [0, 5, 11, 30])
def test_valid_at_level_matches_scalar_rule(level):
    rng = np.random.default_rng(41 + level)
    raws = [int(r) for r in rng.integers(0, 2**64, 500, dtype=np.uint64)]
    # Cells at every level on faces 0-7, some with one more low bit set.
    for _ in range(3000):
        lev = int(rng.integers(0, 31))
        face, pos = int(rng.integers(0, 8)), int(rng.integers(0, 4**lev))
        raw = face << 61 | pos << (61 - 2 * lev) | 1 << (60 - 2 * lev)
        if rng.random() < 0.3:
            raw |= 1 << int(rng.integers(0, 64))
        raws.append(raw)
    sentinel = 1 << (60 - 2 * level)
    raws += [
        0,
        2**64 - 1,
        sentinel,
        sentinel | 1,  # a bit below the sentinel
        sentinel >> 1,  # the sentinel one bit low, on an odd bit
        5 << 61 | sentinel,
        6 << 61 | sentinel,  # face 6
        7 << 61 | sentinel,  # face 7
        1 << 61,  # lowest bit on the face bits
    ]
    want = [is_valid_raw(r) and CellId(r).level() == level for r in raws]
    assert valid_at_level(np.array(raws, dtype=np.uint64), level).tolist() == want
    assert want.count(True) > 50


def test_descendant_ids_match_repeated_children():
    rng = np.random.default_rng(43)
    for level, target in ((0, 0), (0, 2), (3, 3), (4, 7), (9, 11), (27, 30)):
        lat = rng.uniform(-89, 89, 5)
        lng = rng.uniform(-180, 180, 5)
        face, i, j = face_ij(lat, lng, level)
        want = []
        for k in range(5):
            cells = [cell_from_raw_ij(int(face[k]), int(i[k]), int(j[k]), level)]
            assert cells[0] == cell_from_latlng(lat[k], lng[k], level)
            for _ in range(target - level):
                cells = [child for cell in cells for child in cell.children()]
            want += cells
        got = descendant_ids(face, i, j, level, target)
        assert got.dtype == np.uint64
        assert got.tolist() == [int(c) for c in want]


def test_rejects_bad_coordinates():
    for lat, lng in ((float("nan"), 0.0), (0.0, float("inf")), (91.0, 0.0), (0.0, 181.0)):
        with pytest.raises(DataError):
            cell_from_latlng(lat, lng, 11)
    with pytest.raises(DataError):
        cell_from_latlng(0.0, 0.0, 31)


def test_hilbert_prefix_locality():
    # Two points ~100 m apart share a deep common ancestor.
    a = cell_from_latlng(52.5200, 13.4050, 20)
    b = cell_from_latlng(52.5209, 13.4050, 20)
    for level in range(12):
        assert a.parent(level) == b.parent(level)
