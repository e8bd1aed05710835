"""64-bit hierarchical cell identifiers.

Bit layout (most significant first): 3 face bits (0..5), then 2 bits per
level of Hilbert-curve position, then a single sentinel 1 bit, then zeros.
At level L the sentinel sits at bit 60 - 2L, so the level is recoverable
from the lowest set bit and lexicographic order on raw values equals
Hilbert order within a face. The face-0 level-0 cell is
0x1000000000000000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DataError, InvalidCellError
from . import hilbert, transforms

MAX_LEVEL = 30
NUM_FACES = 6
FACE_SHIFT = 61


@dataclass(frozen=True)
class LatLng:
    """A point in degrees; lat in [-90, 90], lng in [-180, 180]."""

    lat: float
    lng: float

    def __post_init__(self):
        if not (math.isfinite(self.lat) and math.isfinite(self.lng)):
            raise DataError(f"non-finite coordinates ({self.lat}, {self.lng})")
        if not -90.0 <= self.lat <= 90.0:
            raise DataError(f"latitude {self.lat} outside [-90, 90]")
        if not -180.0 <= self.lng <= 180.0:
            raise DataError(f"longitude {self.lng} outside [-180, 180]")


def check_level(level: int) -> int:
    if not isinstance(level, (int, np.integer)) or not 0 <= level <= MAX_LEVEL:
        raise DataError(f"level {level!r} outside [0, {MAX_LEVEL}]")
    return int(level)


def _lsb_index(raw: int) -> int:
    return (raw & -raw).bit_length() - 1


def is_valid_raw(raw: int) -> bool:
    """True when raw decodes to a cell: face < 6, sentinel on an even bit."""
    if not 0 < raw < (1 << 64):
        return False
    if (raw >> FACE_SHIFT) >= NUM_FACES:
        return False
    idx = _lsb_index(raw)
    return idx <= 60 and idx % 2 == 0


class CellId(int):
    """A validated cell id. Plain int underneath, so it hashes and sorts
    as its raw value and mixes freely with ints in sets and dicts."""

    __slots__ = ()

    @classmethod
    def from_raw(cls, raw: int) -> "CellId":
        if not is_valid_raw(raw):
            raise InvalidCellError(f"invalid cell id 0x{int(raw):016x}")
        return cls(raw)

    @classmethod
    def from_token(cls, token: str) -> "CellId":
        """Parse the 16-hex-digit debug form."""
        try:
            raw = int(token, 16)
        except ValueError:
            raise InvalidCellError(f"bad cell token {token!r}") from None
        return cls.from_raw(raw)

    def face(self) -> int:
        return int(self) >> FACE_SHIFT

    def level(self) -> int:
        idx = _lsb_index(self)
        if idx % 2 or idx > 60 or self.face() >= NUM_FACES:
            raise InvalidCellError(f"invalid cell id 0x{int(self):016x}")
        return (60 - idx) // 2

    def lsb(self) -> int:
        return int(self) & -int(self)

    def range_min(self) -> int:
        return int(self) - (self.lsb() - 1)

    def range_max(self) -> int:
        return int(self) + (self.lsb() - 1)

    def parent(self, level: int) -> "CellId":
        """Ancestor at the given level (<= own level)."""
        check_level(level)
        if level > self.level():
            raise DataError(
                f"parent level {level} below cell level {self.level()}"
            )
        new_lsb = 1 << (60 - 2 * level)
        raw = (int(self) & ~((new_lsb << 1) - 1)) | new_lsb
        return CellId(raw)

    def children(self) -> "tuple[CellId, CellId, CellId, CellId]":
        """The four cells one level deeper, in Hilbert order."""
        if self.level() >= MAX_LEVEL:
            raise DataError(f"cell at max level {MAX_LEVEL} has no children")
        base = int(self) - self.lsb()
        child_lsb = self.lsb() >> 2
        return tuple(
            CellId(base + child_lsb * (2 * k + 1)) for k in range(4)
        )

    def contains(self, other: int) -> bool:
        """Descendant-or-self test via raw range containment."""
        return self.range_min() <= int(other) <= self.range_max()

    def position(self) -> int:
        """Hilbert position within the face at this cell's level."""
        level = self.level()
        return (int(self) >> (61 - 2 * level)) & ((1 << (2 * level)) - 1)

    def to_ij(self) -> tuple[int, int, int, int]:
        """(face, i, j, level) grid coordinates."""
        face = self.face()
        level = self.level()
        i, j = hilbert.position_to_xy(
            level, self.position(), face & hilbert.SWAP_MASK
        )
        return face, i, j, level

    def center(self) -> LatLng:
        """Center of the cell on the sphere."""
        face, i, j, level = self.to_ij()
        u = transforms.st_to_uv(transforms.ij_to_st_center(i, level))
        v = transforms.st_to_uv(transforms.ij_to_st_center(j, level))
        lat, lng = transforms.xyz_to_latlng(transforms.face_uv_to_xyz(face, u, v))
        return LatLng(float(lat), float(lng))

    def token(self) -> str:
        """16-hex-digit debug form."""
        return format(int(self), "016x")

    def __repr__(self) -> str:
        return f"CellId({self.token()})"


def cell_from_raw_ij(face: int, i: int, j: int, level: int) -> CellId:
    """Assemble a cell id from grid coordinates."""
    pos = hilbert.xy_to_position(level, i, j, face & hilbert.SWAP_MASK)
    raw = (face << FACE_SHIFT) | (pos << (61 - 2 * level)) | (1 << (60 - 2 * level))
    return CellId(raw)


def cell_from_latlng(lat: float, lng: float, level: int) -> CellId:
    """The level-L cell containing a lat/lng point (degrees)."""
    check_level(level)
    point = LatLng(float(lat), float(lng))  # validates ranges / finiteness
    xyz = transforms.latlng_to_xyz(point.lat, point.lng)
    face, u, v = transforms.xyz_to_face_uv(xyz)
    i = int(transforms.st_to_ij(transforms.uv_to_st(u), level))
    j = int(transforms.st_to_ij(transforms.uv_to_st(v), level))
    return cell_from_raw_ij(int(face), i, j, level)


def cells_from_latlng_vec(lat, lng, level: int) -> np.ndarray:
    """Vectorized cell_from_latlng; returns uint64 raw ids.

    Inputs are not range-validated; callers own their arrays.
    """
    check_level(level)
    xyz = transforms.latlng_to_xyz(lat, lng)
    face, u, v = transforms.xyz_to_face_uv(xyz)
    i = transforms.st_to_ij(transforms.uv_to_st(u), level)
    j = transforms.st_to_ij(transforms.uv_to_st(v), level)
    pos = hilbert.xy_to_position_vec(level, i, j, face & hilbert.SWAP_MASK)
    raw = (
        (face.astype(np.uint64) << np.uint64(FACE_SHIFT))
        | (pos.astype(np.uint64) << np.uint64(61 - 2 * level))
        | np.uint64(1 << (60 - 2 * level))
    )
    return raw


def cell_centers_vec(raws, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Center (lat, lng) arrays for uint64 cell ids, all at one level."""
    check_level(level)
    raws = np.asarray(raws, dtype=np.uint64)
    face = (raws >> np.uint64(FACE_SHIFT)).astype(np.int64)
    mask = np.uint64((1 << (2 * level)) - 1)
    pos = ((raws >> np.uint64(61 - 2 * level)) & mask).astype(np.int64)
    i, j = hilbert.position_to_xy_vec(level, pos, face & hilbert.SWAP_MASK)
    u = transforms.st_to_uv(transforms.ij_to_st_center(i, level))
    v = transforms.st_to_uv(transforms.ij_to_st_center(j, level))
    return transforms.xyz_to_latlng(transforms.face_uv_to_xyz(face, u, v))


def num_cells_at_level(level: int) -> int:
    """6 * 4**level."""
    check_level(level)
    return 6 * 4**level


def all_cells_at_level(level: int) -> np.ndarray:
    """All cell ids at a level, ascending (face-major, Hilbert within face).

    The whole level is a single arithmetic progression in raw space:
    sentinel + k * 2*sentinel for k in [0, 6 * 4**level).
    """
    check_level(level)
    sent = 1 << (60 - 2 * level)
    count = num_cells_at_level(level)
    return np.uint64(sent) + np.uint64(2 * sent) * np.arange(count, dtype=np.uint64)
