"""Lat/lng rectangles and their coverings by grid cells.

The covering algorithm needs an exact intersection predicate between a
cell (a quadrilateral of geodesic edges on the sphere) and a lat/lng
rectangle (bounded by meridian segments and latitude-circle arcs, which
are not geodesics). A cell and a rect intersect iff

    * some cell corner lies inside the rect, or
    * some rect corner (or pole, for caps) lies inside the cell, or
    * some cell edge crosses a meridian edge of the rect, or
    * some cell edge crosses a latitude edge of the rect.

Cell edges are great-circle arcs, so the meridian test is plain geodesic
crossing; the latitude test intersects the edge's great circle with the
z = sin(lat) plane and checks the hit angles against the edge's arc span
and the rect's longitude span. The predicate is monotone (a child cell
intersecting implies its parent intersects), which makes breadth-first
refinement from the six face cells equivalent to filtering a full
enumeration of the target level.

Coverings are made for many rects in one breadth-first pass. Every live
cell carries the id of the rect it is tested against, and the rects'
geometry is held in arrays indexed by that id: bounds, witness points on
all six faces, meridian segments and latitude-circle sines, each padded
to a fixed width with entries that never hit. One predicate call then
tests all cells of a level against their own rects.

The predicate also marks interior cells: all four corners inside the
rect, no rect edge crossing a cell edge and no witness inside the cell.
Such a cell lies wholly inside the rect, so it is not refined; its
target-level descendants are emitted at once as the range of Hilbert
positions under it (cellid.descendant_ids). Only boundary cells are refined, the interior
covering idea of S2's RegionCoverer.

Rects go through the pass in chunks of 16. Smaller chunks pay numpy's
fixed cost per call more often. Larger chunks grow every level's
arrays, and with them peak memory, and measured no faster on coverings
of about a thousand level-11 cells.

A lone rect (cover_rect_raw, one served search) starts from a block of
cells sized to it, not from the six faces, the initial-candidates idea
of S2's RegionCoverer. Its witnesses and center are located at the
covering level; when they lie on one face, the block spans their cells
at the finest level k where that span is at most 8 cells per axis,
padded by a ring of one cell on every side, so it is at most 10 x 10
cells and lies wholly on that face (otherwise there is no seed). The
first pass tests the block at level k. If no ring cell intersects the
rect, the block holds every intersecting level-k cell: the rect is
connected and its center lies in the block, so reaching a level-k cell
outside the block would take it through a ring cell, since closed
cells share their edges. The predicate is monotone, so refining the
block's live and interior cells yields the covering that refining from
the faces yields. If a ring cell is hit, the pass is dropped and the
covering starts from the faces. A rect on a face edge or cube corner
has no seed. The width 8 was picked by timing one covering of each of
the 800 served rects of an evaluation (about a thousand level-11 cells
each; five interleaved rounds on a 2-core machine): the median was
11.5 ms from the faces and 7.9, 7.3, 6.4, 5.9 and 5.6 ms at widths 2,
4, 8, 16 and 32. Most of the gain is in by 8; the steps past it are
smaller than the 5.2-7.1 ms spread of one width's rounds, while the
block tested whole at the first level grows with the square of the
width.

Chunks of several rects keep starting from the faces: their rects
would start at different levels, which the one loop does not track,
and in a chunk of 16 each level's fixed cost is already shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import CapacityError, ConfigError, DataError
from . import transforms
from .cellid import check_level, descendant_ids, face_ij

COVER_MAX_LEVEL = 16
DEFAULT_COVER_CAP = 200_000

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class GeoRect:
    """A lat/lng rectangle in degrees, possibly wrapping the antimeridian.

    lng_lo > lng_hi means the longitude interval wraps; lng_lo == -180 and
    lng_hi == 180 means the full circle. Degenerate (point or line) rects
    are legal.
    """

    lat_lo: float
    lat_hi: float
    lng_lo: float
    lng_hi: float

    def __post_init__(self):
        vals = (self.lat_lo, self.lat_hi, self.lng_lo, self.lng_hi)
        if not all(math.isfinite(v) for v in vals):
            raise DataError(f"non-finite rect bounds {vals}")
        if not (-90.0 <= self.lat_lo <= self.lat_hi <= 90.0):
            raise DataError(
                f"latitude range [{self.lat_lo}, {self.lat_hi}] invalid"
            )
        if not (-180.0 <= self.lng_lo <= 180.0 and -180.0 <= self.lng_hi <= 180.0):
            raise DataError(
                f"longitude range [{self.lng_lo}, {self.lng_hi}] invalid"
            )

    @classmethod
    def from_center(
        cls, lat: float, lng: float, half_lat: float, half_lng: float
    ) -> "GeoRect":
        """Rect around a center point, clamped to valid lat and wrapped in lng."""
        if half_lat < 0 or half_lng < 0:
            raise DataError("negative half-extent")
        lat_lo = max(-90.0, lat - half_lat)
        lat_hi = min(90.0, lat + half_lat)
        if half_lng >= 180.0:
            return cls(lat_lo, lat_hi, -180.0, 180.0)
        lng_lo = math.remainder(lng - half_lng, 360.0)
        lng_hi = math.remainder(lng + half_lng, 360.0)
        # math.remainder yields (-180, 180]; keep exact +/-180 stable
        return cls(lat_lo, lat_hi, lng_lo, lng_hi)

    @property
    def is_full_lng(self) -> bool:
        return self.lng_lo == -180.0 and self.lng_hi == 180.0

    @property
    def is_full_sphere(self) -> bool:
        return self.lat_lo == -90.0 and self.lat_hi == 90.0 and self.is_full_lng

    @property
    def lng_length(self) -> float:
        """Longitude span in degrees, in [0, 360]."""
        if self.is_full_lng:
            return 360.0
        d = self.lng_hi - self.lng_lo
        return d if d >= 0 else d + 360.0

    @property
    def is_point(self) -> bool:
        return self.lat_lo == self.lat_hi and self.lng_length == 0.0

    def contains(self, lat, lng):
        """Membership test; accepts scalars or arrays (degrees)."""
        lat = np.asarray(lat, dtype=np.float64)
        lng = np.asarray(lng, dtype=np.float64)
        ok_lat = (lat >= self.lat_lo) & (lat <= self.lat_hi)
        if self.is_full_lng:
            return ok_lat
        ok_lng = np.mod(lng - self.lng_lo, 360.0) <= self.lng_length
        return ok_lat & ok_lng

    def center(self) -> tuple[float, float]:
        lat = 0.5 * (self.lat_lo + self.lat_hi)
        lng = math.remainder(self.lng_lo + 0.5 * self.lng_length, 360.0)
        return lat, lng


def _witnesses(rect: GeoRect) -> list:
    """(lat, lng) points of the rect that might lie strictly inside a cell:
    its corners (four points per latitude on a full-longitude rect) and
    the poles it reaches."""
    lngs = (-180.0, -90.0, 0.0, 90.0) if rect.is_full_lng else (rect.lng_lo, rect.lng_hi)
    witness = [(lat, lng) for lat in (rect.lat_lo, rect.lat_hi) for lng in lngs]
    if rect.lat_hi == 90.0:
        witness.append((90.0, 0.0))
    if rect.lat_lo == -90.0:
        witness.append((-90.0, 0.0))
    return witness


def _meridians(rect: GeoRect) -> list:
    """Meridian edges as geodesic segments (c, d). Segments spanning more
    than 90 degrees are split so no segment comes close to antipodal
    endpoints (pole-to-pole meridians would degenerate)."""
    if rect.is_full_lng or not rect.lat_lo < rect.lat_hi:
        return []
    stops = [rect.lat_lo, rect.lat_hi]
    if rect.lat_hi - rect.lat_lo > 90.0:
        stops.insert(1, 0.5 * (rect.lat_lo + rect.lat_hi))
    return [
        (transforms.latlng_to_xyz(lo, lng), transforms.latlng_to_xyz(hi, lng))
        for lng in (rect.lng_lo, rect.lng_hi)
        for lo, hi in zip(stops, stops[1:])
    ]


# Widths of the padded per-rect tables: two latitudes times four witness
# longitudes plus both poles; two longitudes times two meridian segments;
# two latitude circles.
_MAX_WITNESSES = 10
_MAX_MERIDIANS = 4
_MAX_LAT_EDGES = 2


class _RectArrays:
    """Geometry of a list of rects as arrays indexed by rect id.

    Padding never changes a predicate: padded witnesses have w_valid
    False, padded meridian segments are zero vectors (which never cross
    strictly) and padded latitude sines are NaN (which never reach).
    """

    def __init__(self, rects):
        m = len(rects)
        self.lat_lo = np.array([r.lat_lo for r in rects], dtype=np.float64)
        self.lat_hi = np.array([r.lat_hi for r in rects], dtype=np.float64)
        self.lng_lo = np.array([r.lng_lo for r in rects], dtype=np.float64)
        self.lng_len = np.array([r.lng_length for r in rects], dtype=np.float64)
        self.lng_lo_r = np.array([math.radians(r.lng_lo) for r in rects])
        self.lng_len_r = np.array([math.radians(r.lng_length) for r in rects])
        self.full_lng = np.array([r.is_full_lng for r in rects], dtype=bool)
        self.point = np.array([r.is_point for r in rects], dtype=bool)
        self.full_sphere = np.array([r.is_full_sphere for r in rects], dtype=bool)

        # Face-local coordinates of every witness on all six faces.
        self.w_valid = np.zeros((m, 6, _MAX_WITNESSES), dtype=bool)
        self.w_u = np.zeros((m, 6, _MAX_WITNESSES))
        self.w_v = np.zeros((m, 6, _MAX_WITNESSES))
        # Per meridian slot and rect id: c, d and c x d as nine rows.
        self.meridians = np.zeros((9, _MAX_MERIDIANS, m))
        # Latitude-circle edges strictly between the poles, as sines.
        self.sin_lat = np.full((_MAX_LAT_EDGES, m), np.nan)
        self.n_meridians = self.n_lat_edges = 0
        for k, rect in enumerate(rects):
            w = np.array(_witnesses(rect), dtype=np.float64)
            wxyz = transforms.latlng_to_xyz(w[:, 0], w[:, 1])  # (w, 3)
            d = wxyz @ transforms.FACE_NORMALS.T  # (w, 6)
            with np.errstate(divide="ignore", invalid="ignore"):
                wu = (wxyz @ transforms.FACE_U_AXES.T) / d
                wv = (wxyz @ transforms.FACE_V_AXES.T) / d
            self.w_valid[k, :, : w.shape[0]] = d.T > 0
            self.w_u[k, :, : w.shape[0]] = wu.T
            self.w_v[k, :, : w.shape[0]] = wv.T

            meridians = _meridians(rect)
            for s, (c, dpt) in enumerate(meridians):
                self.meridians[:, s, k] = np.concatenate([c, dpt, np.cross(c, dpt)])
            lats = [lat for lat in sorted({rect.lat_lo, rect.lat_hi}) if -90.0 < lat < 90.0]
            for s, lat in enumerate(lats):
                self.sin_lat[s, k] = math.sin(math.radians(lat))
            self.n_meridians = max(self.n_meridians, len(meridians))
            self.n_lat_edges = max(self.n_lat_edges, len(lats))

    def lng_contains_rad(self, rid, lng_r: np.ndarray) -> np.ndarray:
        """Is each longitude (radians) in the span of its rect rid?"""
        return self.full_lng[rid] | (
            np.mod(lng_r - self.lng_lo_r[rid], _TWO_PI) <= self.lng_len_r[rid]
        )


def _dot(p, q):
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def _cross(p, q):
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


def _meridian_crossings(g: _RectArrays, rid, a, b, ab) -> np.ndarray:
    """Do edges (a_k, b_k), given as xyz rows with their cross product ab,
    strictly cross a meridian segment (c, d) of rect rid_k?"""
    seg = np.take(g.meridians[:, : g.n_meridians], rid, axis=2)  # (9, slots, edges)
    c, d, cd = seg[0:3], seg[3:6], seg[6:9]
    acb = -_dot(ab, c)
    bda = _dot(ab, d)
    cbd = -_dot(b, cd)
    dac = _dot(a, cd)
    return ((acb * bda > 0) & (acb * cbd > 0) & (acb * dac > 0)).any(axis=0)


def _lat_edge_crossings(g: _RectArrays, rid, a, b, ab) -> np.ndarray:
    """Do edges (a_k, b_k), given as xyz rows with their cross product ab,
    cross a latitude circle of rect rid_k inside its longitude span?"""
    nz = np.sqrt(_dot(ab, ab))
    ok = nz > 1e-300
    nz = np.where(ok, nz, 1.0)
    z = tuple(c / nz for c in ab)
    flip = z[2] < 0
    z = tuple(np.where(flip, -c, c) for c in z)

    # Basis (x, y, z) with x pointing at the great circle's highest latitude.
    ny = np.hypot(z[0], z[1])
    ok &= ny > 1e-15  # edge along the equator: handled by containment tests
    ny = np.where(ok, ny, 1.0)
    y = (z[1] / ny, -z[0] / ny, 0.0)
    x = _cross(y, z)

    # Angular span of the edge within its great circle.
    a_ang = np.arctan2(_dot(a, y), _dot(a, x))
    b_ang = np.arctan2(_dot(b, y), _dot(b, x))
    fwd = np.mod(b_ang - a_ang, _TWO_PI)
    swap = fwd > math.pi
    lo = np.where(swap, b_ang, a_ang)
    length = np.where(swap, _TWO_PI - fwd, fwd)

    # Both hit angles on every latitude slot at once: (slots, edges).
    sin_lat = g.sin_lat[: g.n_lat_edges, rid]
    reach = ok & (np.abs(sin_lat) < x[2])
    cos_t = np.clip(sin_lat / np.where(reach, x[2], 1.0), -1.0, 1.0)
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - cos_t * cos_t))
    theta = np.arctan2(sin_t, cos_t)
    hit = np.zeros(reach.shape, dtype=bool)
    for sign in (1.0, -1.0):
        t = sign * theta
        in_arc = np.mod(t - lo, _TWO_PI) <= length
        px = x[0] * cos_t + sign * y[0] * sin_t
        py = x[1] * cos_t + sign * y[1] * sin_t
        hit |= reach & in_arc & g.lng_contains_rad(rid, np.arctan2(py, px))
    return hit.any(axis=0)


def _rect_intersects_ij(g: _RectArrays, rid, face, i, j, level: int):
    """(intersects, interior) for cells given as (face, i, j) arrays at one
    level, each tested against its own rect rid.

    A cell is interior when all four corners lie in the rect, no rect edge
    crosses a cell edge and no witness lies in the cell: the rect's
    boundary then misses the cell, so the whole cell lies in the rect.
    """
    n = face.shape[0]
    i = np.asarray(i, dtype=np.float64)
    j = np.asarray(j, dtype=np.float64)
    size = float(1 << level)
    u0, u1, v0, v1 = transforms.st_to_uv(np.concatenate([i, i + 1, j, j + 1]) / size).reshape(4, n)

    # Rect witnesses inside the cell (closed uv box, front hemisphere).
    wu = g.w_u[rid, face]  # (n, w)
    wv = g.w_v[rid, face]
    witness = (
        g.w_valid[rid, face]
        & (wu >= u0[:, None])
        & (wu <= u1[:, None])
        & (wv >= v0[:, None])
        & (wv <= v1[:, None])
    ).any(axis=1)

    # The corner ring c0 c1 c2 c3 c0 as blocks of n; edge k runs from
    # corner k (rows a) to corner k + 1 (rows b).
    ring = transforms.face_uv_to_xyz(
        np.tile(face, 5),
        np.concatenate([u0, u1, u1, u0, u0]),
        np.concatenate([v0, v0, v1, v1, v0]),
    )
    ring = np.ascontiguousarray(ring.T)  # (3, 5n)
    a, b = ring[:, : 4 * n], ring[:, n:]
    rid4 = np.tile(rid, 4)

    # Cell corners inside the rect.
    lat = np.degrees(np.arctan2(a[2], np.hypot(a[0], a[1])))
    lng = np.degrees(np.arctan2(a[1], a[0]))
    corner_in = (
        (lat >= g.lat_lo[rid4])
        & (lat <= g.lat_hi[rid4])
        & (g.full_lng[rid4] | (np.mod(lng - g.lng_lo[rid4], 360.0) <= g.lng_len[rid4]))
    ).reshape(4, n)

    # Edge crossings with the rect's meridian and latitude edges.
    ab = _cross(a, b)
    crossed = np.zeros(4 * n, dtype=bool)
    if g.n_meridians:
        crossed |= _meridian_crossings(g, rid4, a, b, ab)
    if g.n_lat_edges:
        with np.errstate(invalid="ignore"):
            crossed |= _lat_edge_crossings(g, rid4, a, b, ab)
    crossed = crossed.reshape(4, n).any(axis=0)

    point = g.point[rid]
    full = g.full_sphere[rid]
    intersects = full | witness | (~point & (corner_in.any(axis=0) | crossed))
    interior = full | (~point & ~witness & ~crossed & corner_in.all(axis=0))
    return intersects, interior


def rect_intersects_cells(rect: GeoRect, face, i, j, level: int) -> np.ndarray:
    """Exact rect/cell intersection for cells given as (face, i, j) arrays."""
    check_level(level)
    face = np.atleast_1d(np.asarray(face, dtype=np.int64))
    i = np.atleast_1d(np.asarray(i, dtype=np.int64))
    j = np.atleast_1d(np.asarray(j, dtype=np.int64))
    rid = np.zeros(face.shape[0], dtype=np.int64)
    return _rect_intersects_ij(_RectArrays([rect]), rid, face, i, j, level)[0]


_CHILD_DI = np.array([0, 0, 1, 1], dtype=np.int64)
_CHILD_DJ = np.array([0, 1, 0, 1], dtype=np.int64)

# Rects per breadth-first pass; the module docstring says why 16.
_CHUNK = 16

# Widest span of a lone rect's witnesses, in cells per axis, at the level
# its covering starts from; the module docstring says why 8.
_SEED_SPAN = 8


def _face_start(m: int):
    """_refine's start for m rects: the six face cells of each at level 0,
    none of them in a ring."""
    face = np.tile(np.arange(6, dtype=np.int64), m)
    zeros = np.zeros(6 * m, dtype=np.int64)
    return 0, face, zeros, zeros, np.repeat(np.arange(m, dtype=np.int64), 6), zeros.astype(bool)


def _seed_start(rect: GeoRect, level: int):
    """_refine's start for a lone rect: a block of cells sized to it and
    the mask of its ring, or None when the rect has no seed.

    The block spans the level-L cells of the rect's witnesses and center
    at the finest level k where they span at most _SEED_SPAN cells per
    axis, padded by a ring of one cell on every side. There is none when
    those points lie on more than one face or the block leaves the face.
    """
    lat, lng = np.array(_witnesses(rect) + [rect.center()], dtype=np.float64).T
    face, i, j = face_ij(lat, lng, level)
    if (face != face[0]).any():
        return None
    i_lo, i_hi, j_lo, j_hi = int(i.min()), int(i.max()), int(j.min()), int(j.max())
    k = level
    while max(i_hi - i_lo, j_hi - j_lo) >= _SEED_SPAN:
        k -= 1
        i_lo, i_hi, j_lo, j_hi = i_lo >> 1, i_hi >> 1, j_lo >> 1, j_hi >> 1
    i_lo, i_hi, j_lo, j_hi = i_lo - 1, i_hi + 1, j_lo - 1, j_hi + 1
    if min(i_lo, j_lo) < 0 or max(i_hi, j_hi) >= 1 << k:
        return None
    bi, bj = np.meshgrid(np.arange(i_lo, i_hi + 1), np.arange(j_lo, j_hi + 1), indexing="ij")
    bi, bj = bi.ravel(), bj.ravel()
    ring = (bi == i_lo) | (bi == i_hi) | (bj == j_lo) | (bj == j_hi)
    return k, np.full(bi.size, face[0], dtype=np.int64), bi, bj, np.zeros(bi.size, dtype=np.int64), ring


def _refine(g: _RectArrays, m: int, start: int, face, i, j, rid, ring, level: int, cap: int):
    """Breadth-first refinement from cells (face, i, j) at level start,
    each tested against its rect rid, down to level L: per rect, its
    level-L covering as a sorted uint64 array. Returns None when a ring
    cell of the first pass intersects its rect."""
    emitted = np.zeros(m, dtype=np.int64)  # level-L cells of interior ranges, per rect
    found_rid, found_raw = [], []
    for cur in range(start, level + 1):
        keep, interior = _rect_intersects_ij(g, rid, face, i, j, cur)
        if cur == start and (keep & ring).any():
            return None
        whole = keep & interior if cur < level else np.zeros_like(keep)
        live = keep & ~whole
        span = 4 ** (level - cur)
        emitted += np.bincount(rid[whole], minlength=m) * span
        # Every live cell has a covered descendant, so this never exceeds
        # the final covering and reaches it at the last level.
        size = emitted + np.bincount(rid[live], minlength=m)
        if size.max() > cap:
            raise CapacityError(
                f"covering exceeds cap {cap} (at least {int(size.max())} cells at level {level})"
            )
        if whole.any():
            found_raw.append(descendant_ids(face[whole], i[whole], j[whole], cur, level))
            found_rid.append(np.repeat(rid[whole], span))
        face, i, j, rid = face[live], i[live], j[live], rid[live]
        if cur == level or face.shape[0] == 0:
            break
        face = np.repeat(face, 4)
        rid = np.repeat(rid, 4)
        i = np.repeat(i, 4) * 2 + np.tile(_CHILD_DI, face.shape[0] // 4)
        j = np.repeat(j, 4) * 2 + np.tile(_CHILD_DJ, face.shape[0] // 4)

    raws = np.concatenate(found_raw + [descendant_ids(face, i, j, level, level)])
    owner = np.concatenate(found_rid + [rid])
    order = np.lexsort((raws, owner))
    return np.split(raws[order], np.cumsum(np.bincount(owner, minlength=m))[:-1])


def _check_cover_args(level: int, cap: int) -> None:
    check_level(level)
    if level > COVER_MAX_LEVEL:
        raise ConfigError(f"covering level {level} above cap {COVER_MAX_LEVEL}")
    if cap <= 0:
        raise ConfigError(f"covering cap {cap} must be positive")


def cover_rects_raw(rects, level: int, cap: int = DEFAULT_COVER_CAP) -> list:
    """cover_rect_raw of every rect, in one breadth-first pass from the
    six faces per chunk of rects; raises CapacityError when any rect's
    covering exceeds the cap."""
    _check_cover_args(level, cap)
    rects = list(rects)
    out = []
    for lo in range(0, len(rects), _CHUNK):
        chunk = rects[lo : lo + _CHUNK]
        out.extend(_refine(_RectArrays(chunk), len(chunk), *_face_start(len(chunk)), level, cap))
    return out


def cover_rect_raw(
    rect: GeoRect, level: int, cap: int = DEFAULT_COVER_CAP
) -> np.ndarray:
    """All level-L cells intersecting the rect, as a sorted uint64 array.

    Breadth-first refinement from the seeded block of cells sized to the
    rect, or from the six face cells when the rect has no seed or its
    block's ring is hit. Cells wholly inside the rect are not refined:
    their level-L descendants are emitted as one range of Hilbert
    positions. The cap is enforced at every level on the cells emitted so
    far plus the live boundary cells, which never exceeds the final
    covering size.
    """
    _check_cover_args(level, cap)
    g = _RectArrays([rect])
    seed = _seed_start(rect, level)
    cells = None if seed is None else _refine(g, 1, *seed, level, cap)
    if cells is None:
        cells = _refine(g, 1, *_face_start(1), level, cap)
    return cells[0]
