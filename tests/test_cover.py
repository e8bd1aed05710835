"""Covering tests.

Three independent oracles check the exact intersection predicate:
  1. covering == brute-force filter over the full cell enumeration
     (verifies the BFS refinement),
  2. random sphere points: a point inside both the rect and a cell forces
     that cell into the covering, and a cell outside the covering may not
     contain any sampled rect point (verifies no false negatives),
  3. an analytically derived cell latitude range decides full-longitude
     band coverings exactly (verifies the latitude-edge math).
"""

import math

import numpy as np
import pytest

from cellsearch.errors import CapacityError, ConfigError, DataError
from cellsearch.s2geom import (
    CellId,
    GeoRect,
    all_cells_at_level,
    cell_from_latlng,
    cells_from_latlng_vec,
    cover_rect_raw,
    cover_rects_raw,
    num_cells_at_level,
)
from cellsearch.s2geom import hilbert, region, transforms
from cellsearch.s2geom.region import rect_intersects_cells

RECT_BATTERY = [
    GeoRect(10, 25, 30, 55),            # generic mid-latitude
    GeoRect(48.8, 48.9, 2.3, 2.4),      # small city-sized
    GeoRect(-20, 10, 160, -150),        # antimeridian wrap
    GeoRect(75, 90, -180, 180),         # north polar cap
    GeoRect(-90, -80, -180, 180),       # south polar cap
    GeoRect(-5, 12, -180, 180),         # full-longitude band
    GeoRect(-10, 10, -5, 5),            # equator, face-0 center
    GeoRect(80, 89, 10, 40),            # near-pole partial lune
    GeoRect(-90, 90, 20, 30),           # pole-to-pole lune
    GeoRect(33, 33, -120, -100),        # degenerate latitude line
    GeoRect(10, 20, 77, 77),            # degenerate meridian segment
    GeoRect(5, 6, 179.5, -179.5),       # thin wrap sliver
    GeoRect(30, 50, 35, 55),            # spans a cube corner (~35.26, 45)
    GeoRect(-90, 90, -180, 180),        # full sphere
]


def _decode_level(raws, level):
    face = (raws >> np.uint64(61)).astype(np.int64)
    mask = np.uint64((1 << (2 * level)) - 1)
    pos = ((raws >> np.uint64(61 - 2 * level)) & mask).astype(np.int64)
    i, j = hilbert.position_to_xy_vec(level, pos, face & hilbert.SWAP_MASK)
    return face, i, j


def _brute_force_cover(rect, level):
    raws = all_cells_at_level(level)
    face, i, j = _decode_level(raws, level)
    keep = rect_intersects_cells(rect, face, i, j, level)
    return raws[keep]


@pytest.mark.parametrize("rect", RECT_BATTERY)
def test_cover_equals_enumeration_filter(rect):
    for level in (0, 1, 2, 3, 4, 5):
        got = cover_rect_raw(rect, level, cap=10**6)
        want = _brute_force_cover(rect, level)
        np.testing.assert_array_equal(got, want)


def test_cover_equals_enumeration_filter_level6_spot():
    for rect in (RECT_BATTERY[0], RECT_BATTERY[2], RECT_BATTERY[8]):
        got = cover_rect_raw(rect, 6, cap=10**6)
        np.testing.assert_array_equal(got, _brute_force_cover(rect, 6))


def test_point_membership_consistency():
    rng = np.random.default_rng(31)
    # Uniform points on the sphere.
    xyz = rng.normal(size=(120_000, 3))
    xyz /= np.linalg.norm(xyz, axis=1, keepdims=True)
    lat, lng = transforms.xyz_to_latlng(xyz)
    level = 6
    point_cells = cells_from_latlng_vec(lat, lng, level)
    for rect in RECT_BATTERY:
        cover = cover_rect_raw(rect, level, cap=10**6)
        in_rect = rect.contains(lat, lng)
        # Every cell holding an in-rect point must be covered.
        must_cover = np.unique(point_cells[in_rect])
        assert np.isin(must_cover, cover).all(), rect
        # No sampled in-rect point may fall in an uncovered cell.
        uncovered = point_cells[in_rect][~np.isin(point_cells[in_rect], cover)]
        assert uncovered.size == 0, rect


def _cell_lat_range(face, i, j, level):
    """Independent latitude range of a cell: corner latitudes plus the
    turning-point latitude of each edge's great circle when the turning
    point lies on the edge arc. Level-0 polar faces contain a pole."""
    size = 1 << level
    su = [transforms.st_to_uv(i / size), transforms.st_to_uv((i + 1) / size)]
    sv = [transforms.st_to_uv(j / size), transforms.st_to_uv((j + 1) / size)]
    uv = [(su[0], sv[0]), (su[1], sv[0]), (su[1], sv[1]), (su[0], sv[1])]
    pts = []
    for u, v in uv:
        p = transforms.face_uv_to_xyz(face, u, v)
        pts.append(p / np.linalg.norm(p))
    lats = [math.degrees(math.asin(max(-1.0, min(1.0, p[2])))) for p in pts]
    lo, hi = min(lats), max(lats)
    for a, b in zip(pts, pts[1:] + pts[:1]):
        n = np.cross(a, b)
        n /= np.linalg.norm(n)
        zproj = np.array([0.0, 0.0, 1.0]) - n[2] * n
        nz = np.linalg.norm(zproj)
        if nz < 1e-12:
            continue  # edge on the equator, corners already cover it
        m = zproj / nz
        for cand in (m, -m):
            # Is cand within the arc a -> b?
            e1 = a
            e2 = np.cross(n, a)
            ang_b = math.atan2(float(b @ e2), float(b @ e1)) % (2 * math.pi)
            ang_c = math.atan2(float(cand @ e2), float(cand @ e1)) % (2 * math.pi)
            if ang_c <= ang_b + 1e-15:
                lat_c = math.degrees(math.asin(max(-1.0, min(1.0, cand[2]))))
                lo, hi = min(lo, lat_c), max(hi, lat_c)
    if level == 0 and face == 2:
        hi = 90.0
    if level == 0 and face == 5:
        lo = -90.0
    return lo, hi


@pytest.mark.parametrize("band", [(-5, 12), (40, 55), (-90, -70), (62, 90), (0, 0.5)])
def test_band_cover_matches_latitude_ranges(band):
    lat_lo, lat_hi = band
    rect = GeoRect(lat_lo, lat_hi, -180, 180)
    for level in (0, 1, 2, 3):
        raws = all_cells_at_level(level)
        face, i, j = _decode_level(raws, level)
        cover = cover_rect_raw(rect, level, cap=10**6)
        for k in range(raws.size):
            lo, hi = _cell_lat_range(int(face[k]), int(i[k]), int(j[k]), level)
            expect = (hi >= lat_lo) and (lo <= lat_hi)
            got = raws[k] in cover
            assert got == expect, (level, int(face[k]), int(i[k]), int(j[k]))


def test_cover_monotone_across_levels():
    rng = np.random.default_rng(37)
    for _ in range(20):
        clat = rng.uniform(-80, 80)
        clng = rng.uniform(-180, 180)
        rect = GeoRect.from_center(clat, clng, rng.uniform(0.5, 8), rng.uniform(0.5, 8))
        coarse = set(cover_rect_raw(rect, 4, cap=10**6).tolist())
        fine = cover_rect_raw(rect, 5, cap=10**6)
        parents = set()
        for raw in fine.tolist():
            parents.add(int(CellId(raw).parent(4)))
        assert parents <= coarse
        # and every coarse cell has at least one fine descendant
        assert len(parents) == len(coarse)


def test_point_rect_cover_is_containing_cell():
    rng = np.random.default_rng(41)
    for _ in range(50):
        lat = rng.uniform(-85, 85)
        lng = rng.uniform(-179, 179)
        rect = GeoRect(lat, lat, lng, lng)
        cover = cover_rect_raw(rect, 11).tolist()
        assert 1 <= len(cover) <= 4
        assert int(cell_from_latlng(lat, lng, 11)) in cover


def test_full_sphere_cover_counts():
    rect = GeoRect(-90, 90, -180, 180)
    for level in (0, 1, 2, 3):
        assert cover_rect_raw(rect, level, cap=10**6).size == num_cells_at_level(level)


def test_cover_capacity_error():
    rect = GeoRect(-60, 60, -120, 120)
    with pytest.raises(CapacityError):
        cover_rect_raw(rect, 11, cap=500)


def test_batched_cover_equals_per_rect_cover():
    for level in (0, 1, 2, 3, 4, 5):
        got = cover_rects_raw(RECT_BATTERY, level, cap=10**6)
        assert len(got) == len(RECT_BATTERY)
        for rect, cells in zip(RECT_BATTERY, got):
            want = cover_rect_raw(rect, level, cap=10**6)
            assert cells.dtype == want.dtype
            np.testing.assert_array_equal(cells, want, err_msg=f"{rect} level {level}")


def _plain_refinement(rect, level):
    """Breadth-first refinement that tests every cell with the predicate
    and never shortcuts a cell lying inside the rect."""
    face = np.arange(6, dtype=np.int64)
    i = np.zeros(6, dtype=np.int64)
    j = np.zeros(6, dtype=np.int64)
    for cur in range(level + 1):
        keep = rect_intersects_cells(rect, face, i, j, cur)
        face, i, j = face[keep], i[keep], j[keep]
        if cur < level:
            face = np.repeat(face, 4)
            i = np.repeat(i, 4) * 2 + np.tile([0, 0, 1, 1], face.size // 4)
            j = np.repeat(j, 4) * 2 + np.tile([0, 1, 0, 1], face.size // 4)
    pos = hilbert.xy_to_position_vec(level, i, j, face & hilbert.SWAP_MASK)
    raws = (
        (face.astype(np.uint64) << np.uint64(61))
        | (pos.astype(np.uint64) << np.uint64(61 - 2 * level))
        | np.uint64(1 << (60 - 2 * level))
    )
    return np.sort(raws)


def test_interior_ranges_match_plain_refinement_at_retrieval_level():
    # Rects of the size the bounds regressor predicts (about a thousand
    # level-11 cells), some wrapping the antimeridian and some polar,
    # then some straddling face edges and cube corners, where a lone
    # rect's covering cannot start from a seeded block.
    rng = np.random.default_rng(43)
    rects = []
    for k in range(30):
        lat = rng.uniform(-80, 80)
        lng = rng.uniform(-180, 180)
        if k % 5 == 1:
            lng = 180.0 - rng.uniform(0.0, 0.5)
        if k % 5 == 2:
            lat = rng.choice([-1.0, 1.0]) * rng.uniform(86.0, 89.9)
        rects.append(GeoRect.from_center(lat, lng, rng.uniform(0.4, 1.2), rng.uniform(0.4, 1.2)))
    corner_lat = math.degrees(math.atan(1.0 / math.sqrt(2.0)))  # 35.26
    for lat, lng in [(corner_lat, 45.0), (-corner_lat, -135.0), (corner_lat, 135.0),
                     (-corner_lat, -45.0), (0.0, 45.0), (45.0, 0.0), (-45.0, 90.0)]:
        rects.append(GeoRect.from_center(lat, lng, 0.6, 0.8))
    # Edges on the equator and the prime meridian, which are cell edges at
    # every level: the closed cells beyond them lie in the seeded block's
    # ring, so the covering falls back to the faces.
    rects.append(GeoRect(0.0, 0.8, 0.0, 1.1))
    assert any(r.lng_lo > r.lng_hi for r in rects)
    assert any(r.lat_hi == 90.0 or r.lat_lo == -90.0 for r in rects)
    seeded = [region._seed_start(r, 11) is not None for r in rects]
    assert any(seeded) and not all(seeded)
    got = cover_rects_raw(rects, 11)
    for rect, cells in zip(rects, got):
        want = _plain_refinement(rect, 11)
        np.testing.assert_array_equal(cells, want, err_msg=str(rect))
        np.testing.assert_array_equal(cover_rect_raw(rect, 11), want, err_msg=str(rect))


def test_ring_hit_falls_back_to_the_face_start(monkeypatch):
    # A wider block starts at a finer level, so its one-cell ring is
    # thinner. At width 64 this rect seeds at level 8, and the arc of its
    # lower latitude edge, which reaches past its corners, hits the ring.
    rect = GeoRect(55, 60, -10, 10)
    monkeypatch.setattr(region, "_SEED_SPAN", 64)
    ring_hit = []
    refine = region._refine

    def spy(*args):
        cells = refine(*args)
        ring_hit.append(cells is None)
        return cells

    monkeypatch.setattr(region, "_refine", spy)
    got = cover_rect_raw(rect, 8)
    assert ring_hit == [True, False]
    np.testing.assert_array_equal(got, cover_rects_raw([rect], 8)[0])
    np.testing.assert_array_equal(got, _plain_refinement(rect, 8))


def test_cap_counts_interior_ranges():
    cases = [
        # At level 8 this rect covers 3,759 cells, nearly all of them
        # below interior cells of coarser levels; it spans two faces.
        (GeoRect(10, 25, 30, 55), 8, False),
        # A served-size rect, covered from a seeded block.
        (GeoRect.from_center(48.85, 2.35, 0.5, 0.7), 11, True),
    ]
    for rect, level, seeds in cases:
        assert (region._seed_start(rect, level) is not None) == seeds
        size = cover_rect_raw(rect, level, cap=10**6).size
        assert cover_rect_raw(rect, level, cap=size).size == size
        with pytest.raises(CapacityError):
            cover_rect_raw(rect, level, cap=size - 1)


def test_cap_applies_to_each_rect_of_a_batch():
    small = [GeoRect.from_center(5.0 * k - 40.0, 3.0 * k, 0.5, 0.5) for k in range(24)]
    sizes = [cells.size for cells in cover_rects_raw(small, 11)]
    big = GeoRect.from_center(20.0, 20.0, 3.0, 3.0)
    cap = max(sizes)
    assert cover_rect_raw(big, 11, cap=10**6).size > cap
    assert [c.size for c in cover_rects_raw(small, 11, cap=cap)] == sizes
    # The oversized rect sits in the second chunk of the pass.
    with pytest.raises(CapacityError):
        cover_rects_raw(small[:20] + [big] + small[20:], 11, cap=cap)


def test_cover_level_cap():
    with pytest.raises(ConfigError):
        cover_rect_raw(GeoRect(0, 1, 0, 1), 17)


def test_rect_validation():
    with pytest.raises(DataError):
        GeoRect(10, 5, 0, 1)  # inverted latitudes
    with pytest.raises(DataError):
        GeoRect(-100, 5, 0, 1)
    with pytest.raises(DataError):
        GeoRect(0, 1, -200, 1)
    with pytest.raises(DataError):
        GeoRect(0, float("nan"), 0, 1)


def test_rect_contains_and_wrap():
    rect = GeoRect(-10, 10, 170, -170)
    assert rect.contains(0, 180) and rect.contains(0, -180)
    assert rect.contains(0, 175) and rect.contains(0, -175)
    assert not rect.contains(0, 0)
    assert not rect.contains(20, 180)
    assert rect.lng_length == 20
    full = GeoRect(0, 1, -180, 180)
    assert full.is_full_lng and full.contains(0.5, 123)


def test_rect_from_center_clamps_and_wraps():
    r = GeoRect.from_center(89, 0, 5, 5)
    assert r.lat_hi == 90 and r.lat_lo == 84
    r2 = GeoRect.from_center(0, 179, 1, 5)
    assert r2.lng_lo == 174 and r2.lng_hi == -176
    r3 = GeoRect.from_center(0, 0, 1, 200)
    assert r3.is_full_lng


def test_single_cell_predicate_agrees():
    # Each cell decoded on its own through the scalar Hilbert functions.
    rect = GeoRect(10, 25, 30, 55)
    raws = all_cells_at_level(3).tolist()
    face, i, j, _ = zip(*(CellId(raw).to_ij() for raw in raws))
    keep = rect_intersects_cells(rect, face, i, j, 3)
    cover = set(cover_rect_raw(rect, 3).tolist())
    assert keep.tolist() == [raw in cover for raw in raws]
