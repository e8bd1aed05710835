"""Bounds-regressor tests: gradients against finite differences, loss
decomposition, hinge-driven box growth, and rect construction."""

import numpy as np
import pytest
from modeltools import gradient_rel_errors, numerical_gradient, tiny_batch, tiny_bounds, tiny_model

from cellsearch import nn
from cellsearch.baseline import (
    MIN_EXTENT_DEG,
    BoundsConfig,
    BoundsModel,
    bounds_loss_and_grads,
    bounds_to_cellset,
    destination_coords,
    offset_targets,
)
from cellsearch.checkpoint import load_baseline, save_baseline, save_model
from cellsearch.errors import ConfigError, DataError
from cellsearch.features import encode_events, fit_pipeline
from cellsearch.s2geom import cell_from_latlng, cells_from_latlng_vec

# Box-size weights the loss decomposition is checked at.
BETA_GRID = (0.3, 0.1, 0.03, 0.01, 0.003, 0.001)


def random_inputs(model, n, seed):
    rng = np.random.default_rng(seed)
    cat = rng.integers(0, np.array(model.spec.emb_rows), size=(n, 1))
    cont = rng.normal(size=(n, model.spec.n_continuous))
    targets = rng.normal(scale=0.5, size=(n, 2))
    return cat, cont, targets


def kink_margin(model, cat, cont, targets):
    """Distance of every kink-prone quantity from its kink."""
    h, cache = nn.trunk_forward(model.params, model.spec, cat, cont)
    out = h @ model.params["out_w"] + model.params["out_b"]
    half = nn.softplus(out[:, 2:]) + MIN_EXTENT_DEG
    resid = targets - out[:, :2]
    margins = [float(np.abs(z).min()) for z in cache.pre_acts]
    margins.append(float(np.abs(resid).min()))
    margins.append(float(np.abs(np.abs(resid) - half).min()))
    return min(margins)


def test_bounds_gradients_match_finite_differences():
    found = None
    for seed in range(40):
        model = tiny_bounds(seed=seed)
        cat, cont, targets = random_inputs(model, 6, seed + 50)
        if kink_margin(model, cat, cont, targets) > 1e-3:
            found = (model, cat, cont, targets)
            break
    assert found, "no seed gave safe hinge and ReLU margins"
    model, cat, cont, targets = found
    _, grads, _ = bounds_loss_and_grads(
        model.params, model.spec, cat, cont, targets, 1.0, 0.01
    )

    def loss_fn():
        loss, _, _ = bounds_loss_and_grads(
            model.params, model.spec, cat, cont, targets, 1.0, 0.01
        )
        return loss

    numeric = numerical_gradient(loss_fn, model.params)
    errs = gradient_rel_errors(grads, numeric)
    assert max(errs.values()) < 1e-6


def test_loss_decomposition_exact_and_nonnegative():
    model = tiny_bounds(seed=2)
    cat, cont, targets = random_inputs(model, 40, 3)
    for beta in BETA_GRID:
        loss, _, (miss, size) = bounds_loss_and_grads(
            model.params, model.spec, cat, cont, targets, 1.0, beta
        )
        assert miss >= 0.0 and size >= 0.0
        assert loss == pytest.approx(1.0 * miss + beta * size, rel=1e-12)


def test_zero_beta_grows_boxes_under_persistent_misses():
    model = tiny_bounds(seed=4, beta=0.0, learning_rate=0.01)
    cat, cont, _ = random_inputs(model, 16, 5)
    targets = np.full((16, 2), 25.0)  # far outside any initial box
    # With every miss active and no size penalty, the extent outputs can
    # only be pushed up: their bias gradient is strictly negative.
    _, grads, _ = bounds_loss_and_grads(
        model.params, model.spec, cat, cont, targets, 1.0, 0.0
    )
    assert np.all(grads["out_b"][2:] < 0.0)
    halves = []
    for _ in range(12):
        h, _ = nn.trunk_forward(model.params, model.spec, cat, cont)
        out = h @ model.params["out_w"] + model.params["out_b"]
        halves.append(float((nn.softplus(out[:, 2:]) + MIN_EXTENT_DEG).mean()))
        model.train_step(cat, cont, targets)
    diffs = np.diff(halves)
    assert np.all(diffs > 0.0)


def test_positive_beta_shrinks_boxes_once_targets_are_inside():
    model = tiny_bounds(seed=4, beta=0.1, learning_rate=0.05)
    cat, cont, _ = random_inputs(model, 16, 5)
    targets = np.zeros((16, 2))
    # Inflate the boxes so the hinge is inactive, then watch beta shrink them.
    model.params["out_b"][2:] = 8.0
    halves = []
    for _ in range(10):
        h, _ = nn.trunk_forward(model.params, model.spec, cat, cont)
        out = h @ model.params["out_w"] + model.params["out_b"]
        halves.append(float((nn.softplus(out[:, 2:]) + MIN_EXTENT_DEG).mean()))
        model.train_step(cat, cont, targets)
    assert np.all(np.diff(halves) < 0.0)


def test_containment_is_monotone_in_extents():
    model = tiny_bounds(seed=6)
    cat, cont, targets = random_inputs(model, 60, 7)
    batch, _ = tiny_batch(tiny_model(seed=6), 60, seed=7)
    batch.categorical[:] = cat
    batch.continuous[:] = cont
    dest = np.tile([40.0, -73.0], (60, 1))
    rects = model.predict_bounds(batch, dest)
    pred_off, half = model.predict_offsets(batch)
    grown = [
        # Same centers, doubled extents.
        type(r).from_center(
            (r.lat_lo + r.lat_hi) / 2.0,
            r.center()[1],
            2.0 * float(half[i, 0]),
            2.0 * float(half[i, 1]),
        )
        for i, r in enumerate(rects)
    ]
    lat_pts = dest[:, 0] + targets[:, 0]
    lng_pts = dest[:, 1] + targets[:, 1]
    for i, (small, big) in enumerate(zip(rects, grown)):
        if small.contains(lat_pts[i], lng_pts[i]):
            assert big.contains(lat_pts[i], lng_pts[i])


def test_predict_bounds_geometry():
    model = tiny_bounds(seed=8)
    batch, _ = tiny_batch(tiny_model(seed=8), 20, seed=9)
    dest = np.tile([47.6, -122.3], (20, 1))
    pred_off, half = model.predict_offsets(batch)
    assert np.all(half >= MIN_EXTENT_DEG)
    rects = model.predict_bounds(batch, dest)
    for i, rect in enumerate(rects):
        clat = dest[i, 0] + pred_off[i, 0]
        clng = dest[i, 1] + pred_off[i, 1]
        assert rect.contains(clat, clng)
        assert rect.lat_hi - rect.lat_lo == pytest.approx(
            2.0 * half[i, 0], abs=1e-9
        )


def test_offset_targets_wrap_longitude():
    model = tiny_model(seed=1)
    batch, _ = tiny_batch(model, 2, seed=1)
    batch.booked_cells[:] = cells_from_latlng_vec(
        np.array([10.0, 10.0]), np.array([-179.95, 179.95]), 11
    )
    dest = np.array([[10.0, 179.9], [10.0, -179.9]])
    off = offset_targets(batch, dest)
    assert abs(off[0, 1]) < 0.3  # wrapped eastward crossing, not ~-360
    assert abs(off[1, 1]) < 0.3
    assert np.all(np.abs(off[:, 0] - 0.0) < 0.1)


def test_destination_coords_lookup(small_dataset):
    world, train, _ = small_dataset
    pipe = fit_pipeline(train, world.destinations)
    batches = encode_events(train, world.destinations, pipe)
    batch = max(batches.values(), key=len)
    coords = destination_coords(batch, world.destinations)
    by_id = {d.dest_id: d for d in world.destinations}
    for r in range(0, len(batch), max(1, len(batch) // 20)):
        d = by_id[int(batch.dest_ids[r])]
        assert coords[r, 0] == d.lat and coords[r, 1] == d.lng
    bad = batch.take(np.arange(3))
    bad.dest_ids[:] = 10_000
    with pytest.raises(DataError):
        destination_coords(bad, world.destinations)


def test_fit_converges_on_fixed_offset_toy():
    model = tiny_bounds(seed=10, learning_rate=0.05, epochs=40, patience=40, batch_size=8)
    rng = np.random.default_rng(11)
    n = 160
    cat = np.ones((n, 1), dtype=np.int64)
    cont = np.zeros((n, 2))
    targets = np.array([0.3, 0.4]) + rng.uniform(-0.05, 0.05, size=(n, 2))
    batch, _ = tiny_batch(tiny_model(seed=10), n, seed=11)
    batch.categorical[:] = cat
    batch.continuous[:] = cont
    log = model.fit(batch, targets)
    assert model.trained and log
    assert {"epoch", "train_loss", "train_miss", "train_size", "val_loss"} <= set(
        log[0]
    )
    loss, miss, size = model.eval_loss(batch, targets)
    assert miss < 0.02
    assert loss == pytest.approx(miss + model.config.beta * size, rel=1e-9)
    assert log[-1]["val_loss"] < log[0]["val_loss"]


def test_bounds_checkpoint_round_trip(tmp_path):
    model = tiny_bounds(seed=12, dtype="float32")
    path = tmp_path / "baseline.ckpt"
    save_baseline(path, model)
    loaded = load_baseline(path)
    assert loaded.config == model.config
    assert list(loaded.params) == list(model.params)
    for name in model.params:
        np.testing.assert_array_equal(loaded.params[name], model.params[name])
    assert loaded.trained is False
    clf = tiny_model(num_negatives=2)
    clf_path = tmp_path / "clf.ckpt"
    save_model(clf_path, clf)
    with pytest.raises(DataError):
        load_baseline(clf_path)


def test_bounds_to_cellset_contains_center_cell():
    # Small box around a point: its covering must contain the point's cell.
    from cellsearch.s2geom import GeoRect

    rect = GeoRect.from_center(48.85, 2.35, 0.05, 0.08)
    cells = bounds_to_cellset(rect)
    assert cells.size > 0
    assert np.all(np.diff(cells.astype(np.int64)) > 0)
    center_cell = np.uint64(cell_from_latlng(48.85, 2.35, 11))
    pos = np.searchsorted(cells, center_cell)
    assert pos < cells.size and cells[pos] == center_cell


def test_bounds_config_validation():
    BoundsConfig(beta=0.0)  # allowed: pure hinge
    with pytest.raises(ConfigError):
        BoundsConfig(alpha=0.0)
    with pytest.raises(ConfigError):
        BoundsConfig(beta=-0.1)
    with pytest.raises(ConfigError):
        BoundsConfig(dtype="int8")
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        BoundsConfig(seed=-3)


def test_build_from_real_pipeline(small_dataset):
    world, train, _ = small_dataset
    pipe = fit_pipeline(train, world.destinations)
    batches = encode_events(train, world.destinations, pipe)
    batch = max(batches.values(), key=len)
    cfg = BoundsConfig(hidden=(8, 8), epochs=1, batch_size=64)
    model = BoundsModel.build(cfg, pipe)
    assert model.params["w1"].shape == (9 * 16 + 3, 8)
    assert model.params["out_w"].shape == (8, 4)
    twin = BoundsModel.build(cfg, pipe)
    for name in model.params:
        np.testing.assert_array_equal(model.params[name], twin.params[name])
    coords = destination_coords(batch, world.destinations)
    targets = offset_targets(batch, coords)
    log = model.fit(batch, targets)
    assert len(log) == 1
    rects = model.predict_bounds(batch.take(np.arange(5)), coords[:5])
    assert len(rects) == 5
