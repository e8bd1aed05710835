"""Projection math for the hierarchical sphere grid.

The unit sphere is wrapped by a cube; each of the six faces carries a local
(u, v) coordinate system in [-1, 1]^2, reached from grid coordinates
(s, t) in [0, 1]^2 via a quadratic transform that roughly equalizes cell
areas on the sphere. All functions accept scalars or numpy arrays.

Face layout (face = index of the largest-magnitude xyz component, +3 when
that component is negative):

    face 0: x > 0   (1,  u,  v)        face 3: x < 0   (-1, -v, -u)
    face 1: y > 0   (-u, 1,  v)        face 4: y < 0   (v, -1, -u)
    face 2: z > 0   (-u, -v, 1)        face 5: z < 0   (v,  u, -1)
"""

from __future__ import annotations

import numpy as np

# xyz = NORMALS[f] + u * U_AXES[f] + v * V_AXES[f], before normalization.
FACE_NORMALS = np.array(
    [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
        [-1, 0, 0],
        [0, -1, 0],
        [0, 0, -1],
    ],
    dtype=np.float64,
)
FACE_U_AXES = np.array(
    [
        [0, 1, 0],
        [-1, 0, 0],
        [-1, 0, 0],
        [0, 0, -1],
        [0, 0, -1],
        [0, 1, 0],
    ],
    dtype=np.float64,
)
FACE_V_AXES = np.array(
    [
        [0, 0, 1],
        [0, 0, 1],
        [0, -1, 0],
        [0, -1, 0],
        [1, 0, 0],
        [1, 0, 0],
    ],
    dtype=np.float64,
)


def st_to_uv(s):
    """Quadratic grid-to-face transform, [0, 1] -> [-1, 1]."""
    s = np.asarray(s, dtype=np.float64)
    d = np.maximum(s, 1.0 - s)
    mag = (4.0 * d * d - 1.0) / 3.0
    return np.where(s >= 0.5, mag, -mag)


def uv_to_st(u):
    """Inverse of st_to_uv, [-1, 1] -> [0, 1]."""
    u = np.asarray(u, dtype=np.float64)
    half = 0.5 * np.sqrt(1.0 + 3.0 * np.abs(u))
    return np.where(u >= 0.0, half, 1.0 - half)


def st_to_ij(s, level: int):
    """Discretize s in [0, 1] to a cell index in [0, 2**level).

    The top edge s == 1.0 is clamped into the last cell so every valid
    coordinate maps to some cell.
    """
    size = 1 << level
    i = np.floor(np.asarray(s, dtype=np.float64) * size).astype(np.int64)
    return np.clip(i, 0, size - 1)


def ij_to_st_center(i, level: int):
    """Center s-coordinate of cell index i at the given level."""
    return (np.asarray(i, dtype=np.float64) + 0.5) / (1 << level)


def face_uv_to_xyz(face, u, v):
    """Un-normalized point on the cube for face-local (u, v).

    Returns an array of shape (..., 3). The result lies on the cube, not
    the sphere; normalize before converting to lat/lng.
    """
    face = np.asarray(face, dtype=np.int64)
    u = np.asarray(u, dtype=np.float64)[..., None]
    v = np.asarray(v, dtype=np.float64)[..., None]
    return FACE_NORMALS[face] + u * FACE_U_AXES[face] + v * FACE_V_AXES[face]


def xyz_to_face_uv(p):
    """Project points of shape (..., 3) to (face, u, v).

    Valid for any nonzero vector; the face is the axis of the
    largest-magnitude component.
    """
    p = np.asarray(p, dtype=np.float64)
    axis = np.argmax(np.abs(p), axis=-1)
    neg = np.take_along_axis(p, axis[..., None], axis=-1)[..., 0] < 0
    face = axis + 3 * neg
    # Dot products against the face axes reduce to signed component picks.
    d = np.einsum("...i,...i->...", p, FACE_NORMALS[face])
    u = np.einsum("...i,...i->...", p, FACE_U_AXES[face]) / d
    v = np.einsum("...i,...i->...", p, FACE_V_AXES[face]) / d
    return face, u, v


def latlng_to_xyz(lat_deg, lng_deg):
    """Unit vectors for latitude/longitude in degrees, shape (..., 3)."""
    lat = np.radians(np.asarray(lat_deg, dtype=np.float64))
    lng = np.radians(np.asarray(lng_deg, dtype=np.float64))
    cos_lat = np.cos(lat)
    return np.stack(
        [cos_lat * np.cos(lng), cos_lat * np.sin(lng), np.sin(lat)], axis=-1
    )


def xyz_to_latlng(p):
    """(lat_deg, lng_deg) for vectors of shape (..., 3); need not be unit."""
    p = np.asarray(p, dtype=np.float64)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    lat = np.degrees(np.arctan2(z, np.hypot(x, y)))
    lng = np.degrees(np.arctan2(y, x))
    return lat, lng
