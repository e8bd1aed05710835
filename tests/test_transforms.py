"""Projection-layer unit tests: quadratic grid transform, cube faces,
lat/lng conversion."""

import numpy as np
import numpy.testing as npt

from cellsearch.s2geom import transforms as tr


def test_st_uv_endpoints():
    assert tr.st_to_uv(0.0) == -1.0
    assert tr.st_to_uv(0.5) == 0.0
    assert tr.st_to_uv(1.0) == 1.0
    assert tr.uv_to_st(-1.0) == 0.0
    assert tr.uv_to_st(0.0) == 0.5
    assert tr.uv_to_st(1.0) == 1.0


def test_st_to_uv_matches_closed_form():
    # Independent recomputation of the piecewise quadratic.
    for s in np.linspace(0.0, 1.0, 1001):
        if s >= 0.5:
            expect = (1.0 / 3.0) * (4.0 * s * s - 1.0)
        else:
            expect = (1.0 / 3.0) * (1.0 - 4.0 * (1.0 - s) ** 2)
        npt.assert_allclose(tr.st_to_uv(s), expect, rtol=0, atol=1e-15)


def test_uv_to_st_matches_closed_form():
    for u in np.linspace(-1.0, 1.0, 1001):
        if u >= 0:
            expect = 0.5 * np.sqrt(1.0 + 3.0 * u)
        else:
            expect = 1.0 - 0.5 * np.sqrt(1.0 - 3.0 * u)
        npt.assert_allclose(tr.uv_to_st(u), expect, rtol=0, atol=1e-15)


def test_st_uv_round_trip_tight():
    rng = np.random.default_rng(7)
    s = rng.random(20000)
    npt.assert_allclose(tr.uv_to_st(tr.st_to_uv(s)), s, rtol=0, atol=1e-12)
    u = rng.uniform(-1, 1, 20000)
    npt.assert_allclose(tr.st_to_uv(tr.uv_to_st(u)), u, rtol=0, atol=1e-12)


def test_st_to_uv_monotone():
    s = np.linspace(0, 1, 4097)
    u = tr.st_to_uv(s)
    assert np.all(np.diff(u) > 0)


def test_face_assignment_axes():
    axes = np.array(
        [
            [1, 0, 0],
            [0, 1, 0],
            [0, 0, 1],
            [-1, 0, 0],
            [0, -1, 0],
            [0, 0, -1],
        ],
        dtype=float,
    )
    face, u, v = tr.xyz_to_face_uv(axes)
    npt.assert_array_equal(face, np.arange(6))
    npt.assert_allclose(u, 0, atol=1e-15)
    npt.assert_allclose(v, 0, atol=1e-15)


def test_face_uv_round_trip():
    rng = np.random.default_rng(11)
    for f in range(6):
        u = rng.uniform(-1, 1, 5000)
        v = rng.uniform(-1, 1, 5000)
        xyz = tr.face_uv_to_xyz(np.full(5000, f), u, v)
        f2, u2, v2 = tr.xyz_to_face_uv(xyz)
        # Interior points stay on their face; |u|,|v| < 1 guarantees it.
        assert np.all(f2 == f)
        npt.assert_allclose(u2, u, atol=1e-14)
        npt.assert_allclose(v2, v, atol=1e-14)


def test_xyz_face_uv_round_trip_random_sphere():
    rng = np.random.default_rng(13)
    p = rng.normal(size=(20000, 3))
    p /= np.linalg.norm(p, axis=-1, keepdims=True)
    face, u, v = tr.xyz_to_face_uv(p)
    assert np.all((u >= -1) & (u <= 1) & (v >= -1) & (v <= 1))
    back = tr.face_uv_to_xyz(face, u, v)
    back /= np.linalg.norm(back, axis=-1, keepdims=True)
    npt.assert_allclose(back, p, atol=1e-14)


def test_latlng_xyz_round_trip():
    rng = np.random.default_rng(17)
    lat = rng.uniform(-90, 90, 10000)
    lng = rng.uniform(-180, 180, 10000)
    lat2, lng2 = tr.xyz_to_latlng(tr.latlng_to_xyz(lat, lng))
    npt.assert_allclose(lat2, lat, atol=1e-12)
    npt.assert_allclose(lng2, lng, atol=1e-12)


def test_latlng_poles():
    xyz = tr.latlng_to_xyz(90.0, 123.0)
    npt.assert_allclose(xyz, [0, 0, 1], atol=1e-15)
    lat, _ = tr.xyz_to_latlng(np.array([0.0, 0.0, -1.0]))
    assert lat == -90.0


def test_st_to_ij_clamps_top_edge():
    assert tr.st_to_ij(1.0, 5) == 31
    assert tr.st_to_ij(0.0, 5) == 0
    assert tr.st_to_ij(0.999999999, 0) == 0
