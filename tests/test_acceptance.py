"""Acceptance gate: ten numbered criteria covering geometry conformance,
gradient correctness, retrieval equivalence, the end-to-end system
comparison, and artifact determinism.

Each test prints one `[PASS] criterion N` / `[FAIL] criterion N` line
with the measured quantities; run `pytest -s tests/test_acceptance.py`
to see them. The end-to-end criteria (7, 8, 9) share one default-scale
pipeline built by a module fixture; everything else is independent.
"""

import json
import math
import time

import numpy as np
import pytest
from modeltools import gradient_rel_errors, numerical_gradient, tiny_batch, tiny_bounds, tiny_model
from test_baseline import kink_margin, random_inputs

from cellsearch import nn
from cellsearch.baseline import BoundsConfig, bounds_loss_and_grads
from cellsearch.cli import fit_stack, main
from cellsearch.datagen import GenConfig, generate_dataset, generate_world
from cellsearch.evaluation import run_compare, sweep_shard
from cellsearch.features import SHARDS, encode_events
from cellsearch.index import ListingIndex
from cellsearch.model import (
    TrainConfig,
    full_loss_and_grads,
    sample_negatives,
    sampled_loss_and_grads,
)
from cellsearch.s2geom import (
    GeoRect,
    all_cells_at_level,
    cell_centers_vec,
    cells_from_latlng_vec,
    num_cells_at_level,
)
from cellsearch.s2geom.cellid import CellId
from cellsearch.s2geom.transforms import st_to_uv, uv_to_st


def _verdict(num, name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _random_points(rng, n):
    lat = np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, n)))
    lng = rng.uniform(-180.0, 180.0, n)
    return lat, lng


# --------------------------------------------------------------------------
# 1. Geometry conformance: exhaustive cell counts for levels 0..4 and the
#    arithmetic level-11 constant. Budget 10 s.
# --------------------------------------------------------------------------


def test_criterion_1_cell_counts():
    t0 = time.monotonic()
    problems = []
    for level in range(5):
        expected = 6 * 4**level
        ids = all_cells_at_level(level)
        if ids.size != expected or np.unique(ids).size != expected:
            problems.append(f"level {level}: {ids.size} ids")
        if num_cells_at_level(level) != expected:
            problems.append(f"num_cells_at_level({level})")
        levels_ok = all(CellId(int(r)).level() == level for r in ids[:64])
        if not levels_ok:
            problems.append(f"level {level}: wrong decoded level")
    if num_cells_at_level(11) != 25_165_824:
        problems.append(f"level 11 count {num_cells_at_level(11)}")
    if 6 * 4**11 != 25_165_824:
        problems.append("arithmetic identity")
    elapsed = time.monotonic() - t0
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.1f}s")
    _verdict(
        1,
        "cell counts",
        not problems,
        problems or f"6*4^L for L=0..4, level-11 constant 25165824, {elapsed:.2f}s",
    )


# --------------------------------------------------------------------------
# 2. Curve adjacency: consecutive positions within every face are edge
#    neighbors at levels 1..6, checked through the real id decoding.
#    Budget 30 s.
# --------------------------------------------------------------------------


def test_criterion_2_curve_adjacency():
    t0 = time.monotonic()
    violations = 0
    checked = 0
    for level in range(1, 7):
        ids = all_cells_at_level(level)
        decoded = np.array([CellId(int(r)).to_ij() for r in ids], dtype=np.int64)
        faces, i, j = decoded[:, 0], decoded[:, 1], decoded[:, 2]
        same_face = faces[1:] == faces[:-1]
        step = np.abs(np.diff(i)) + np.abs(np.diff(j))
        violations += int(np.count_nonzero(same_face & (step != 1)))
        checked += int(np.count_nonzero(same_face))
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < 30.0
    _verdict(
        2,
        "curve adjacency",
        ok,
        f"{checked} consecutive same-face pairs over levels 1..6, "
        f"{violations} violations, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 3. Round trips: encode -> center -> encode is the identity for 10,000
#    random points per level in {0, 4, 7, 11, 16}; the quadratic ST/UV
#    projection inverts to 1e-12.
# --------------------------------------------------------------------------


def test_criterion_3_round_trips():
    rng = np.random.default_rng(2024)
    problems = []
    for level in (0, 4, 7, 11, 16):
        lat, lng = _random_points(rng, 10_000)
        cells = cells_from_latlng_vec(lat, lng, level)
        clat, clng = cell_centers_vec(cells, level)
        again = cells_from_latlng_vec(clat, clng, level)
        bad = int(np.count_nonzero(cells != again))
        if bad:
            problems.append(f"level {level}: {bad} mismatches")
    s = rng.uniform(0.0, 1.0, 100_000)
    err_s = np.abs(uv_to_st(st_to_uv(s)) - s).max()
    u = rng.uniform(-1.0, 1.0, 100_000)
    err_u = np.abs(st_to_uv(uv_to_st(u)) - u).max()
    if err_s > 1e-12 or err_u > 1e-12:
        problems.append(f"projection inverse errs {err_s:.2e}/{err_u:.2e}")
    _verdict(
        3,
        "round trips",
        not problems,
        problems
        or f"5 levels x 10000 points exact; inverse errs {err_s:.1e}, {err_u:.1e}",
    )


# --------------------------------------------------------------------------
# 4. Retrieval oracle equivalence: 1,000 cell-set queries and 200 rect
#    queries against brute-force scans of a 30,000-listing index.
#    Budget 60 s.
# --------------------------------------------------------------------------


def test_criterion_4_retrieval_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(99)
    world = generate_world(GenConfig())
    index = ListingIndex.build(world.listings)
    store = world.listings
    assert store.ids.size == 30_000

    occupied = np.unique(store.cells)
    mismatches = 0
    for _ in range(1_000):
        n_occ = int(rng.integers(1, 40))
        pick = occupied[rng.integers(0, occupied.size, n_occ)]
        lat, lng = _random_points(rng, 5)
        stray = cells_from_latlng_vec(lat, lng, 11)
        query = np.unique(np.concatenate([pick, stray]))
        guests = int(rng.integers(1, 11))
        got = index.retrieve_cells(query, num_guests=guests)
        mask = (
            np.isin(store.cells, query)
            & store.active
            & (store.capacities >= guests)
        )
        want = np.sort(store.ids[mask])
        mismatches += int(not np.array_equal(got, want))

    for q in range(200):
        if q % 5 == 0:
            clat = rng.uniform(-60.0, 60.0)
            clng = rng.uniform(170.0, 180.0)  # wraps for wide rects
        else:
            k = int(rng.integers(0, store.lats.size))
            clat, clng = float(store.lats[k]), float(store.lngs[k])
        hlat = float(rng.uniform(0.02, 1.5))
        hlng = float(rng.uniform(0.02, 2.5))
        lo = ((clng - hlng + 180.0) % 360.0) - 180.0
        hi = ((clng + hlng + 180.0) % 360.0) - 180.0
        rect = GeoRect(
            max(-89.9, clat - hlat), min(89.9, clat + hlat), lo, hi
        )
        guests = int(rng.integers(1, 11))
        got = index.retrieve_rect(rect, num_guests=guests)
        mask = (
            rect.contains(store.lats, store.lngs)
            & store.active
            & (store.capacities >= guests)
        )
        want = np.sort(store.ids[mask])
        mismatches += int(not np.array_equal(got, want))

    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 60.0
    _verdict(
        4,
        "retrieval equivalence",
        ok,
        f"1000 cell-set + 200 rect queries on 30000 listings, "
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 5. Gradient correctness: both losses pass central finite-difference
#    checks at rel err < 1e-4 in float64 on toy dimensions.
# --------------------------------------------------------------------------


def test_criterion_5_gradient_checks():
    worst = {}

    model = None
    for seed in range(40):
        cand = tiny_model(n_classes=9, hidden=(5, 4), dtype="float64", seed=seed)
        batch, y = tiny_batch(cand, 6, seed=seed + 100)
        _, cache = nn.trunk_forward(
            cand.params, cand.spec, batch.categorical, batch.continuous
        )
        if min(float(np.abs(z).min()) for z in cache.pre_acts) > 1e-3:
            model = cand
            break
    assert model is not None, "no ReLU-safe seed found"
    negatives = sample_negatives(np.random.default_rng(0), 9, y, 4)
    _, grads, _ = sampled_loss_and_grads(
        model.params, model.spec, batch.categorical, batch.continuous, y, negatives
    )

    def sampled_loss():
        loss, _, _ = sampled_loss_and_grads(
            model.params, model.spec, batch.categorical, batch.continuous, y, negatives
        )
        return loss

    numeric = numerical_gradient(sampled_loss, model.params)
    worst["sampled_softmax"] = max(gradient_rel_errors(grads, numeric).values())

    found = None
    for seed in range(40):
        bmodel = tiny_bounds(seed=seed)
        cat, cont, targets = random_inputs(bmodel, 6, seed + 50)
        if kink_margin(bmodel, cat, cont, targets) > 1e-3:
            found = (bmodel, cat, cont, targets)
            break
    assert found, "no kink-safe seed found"
    bmodel, cat, cont, targets = found
    _, bgrads, _ = bounds_loss_and_grads(
        bmodel.params, bmodel.spec, cat, cont, targets, 1.0, 0.01
    )

    def bounds_loss():
        loss, _, _ = bounds_loss_and_grads(
            bmodel.params, bmodel.spec, cat, cont, targets, 1.0, 0.01
        )
        return loss

    bnumeric = numerical_gradient(bounds_loss, bmodel.params)
    worst["bounds"] = max(gradient_rel_errors(bgrads, bnumeric).values())

    ok = all(v < 1e-4 for v in worst.values())
    _verdict(
        5,
        "gradient checks",
        ok,
        "max rel errs "
        + ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
        + " (tolerance 1e-4)",
    )


# --------------------------------------------------------------------------
# 6. Sampled -> full equivalence: with num_negatives = K-1 and a single
#    distinct positive, the sampled loss equals full cross entropy to 1e-9.
# --------------------------------------------------------------------------


def test_criterion_6_sampled_equals_full():
    model = tiny_model(n_classes=9, hidden=(5, 4), dtype="float64", seed=3)
    batch, _ = tiny_batch(model, 6, seed=11)
    y = np.full(6, 2)
    negatives = sample_negatives(np.random.default_rng(1), 9, y, 8)
    s_loss, _, _ = sampled_loss_and_grads(
        model.params, model.spec, batch.categorical, batch.continuous, y, negatives
    )
    f_loss, _, _ = full_loss_and_grads(
        model.params, model.spec, batch.categorical, batch.continuous, y
    )
    gap = abs(float(s_loss) - float(f_loss))
    _verdict(
        6,
        "sampled equals full",
        gap <= 1e-9,
        f"|sampled - full| = {gap:.2e} at K-1 negatives (tolerance 1e-9)",
    )


# --------------------------------------------------------------------------
# Shared end-to-end pipeline at the default scale (criteria 7, 8, 9),
# fitted by the same function as `cellsearch train`.
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def e2e():
    t0 = time.monotonic()
    world, train_events, eval_events = generate_dataset(GenConfig())
    pipeline, _, models, bmodel = fit_stack(TrainConfig(), BoundsConfig(), world, train_events)
    eval_b = encode_events(eval_events, world.destinations, pipeline)
    index = ListingIndex.build(world.listings)
    compared = run_compare(models, bmodel, eval_b, world, index)
    pipeline_seconds = time.monotonic() - t0
    sweeps = {s: sweep_shard(models[s], eval_b[s], index) for s in SHARDS}
    return {
        "world": world,
        "models": models,
        "eval_b": eval_b,
        "index": index,
        "compared": compared,
        "sweeps": sweeps,
        "pipeline_seconds": pipeline_seconds,
    }


# --------------------------------------------------------------------------
# 7. Threshold monotonicity: on every swept shard curve, recall and mean
#    cells are non-increasing in the cutoff. Zero violations.
# --------------------------------------------------------------------------


def test_criterion_7_threshold_monotonicity(e2e):
    violations = []
    for shard, result in e2e["sweeps"].items():
        r_bad = int(np.count_nonzero(np.diff(result.recall) > 0))
        c_bad = int(np.count_nonzero(np.diff(result.mean_cells) > 0))
        if r_bad or c_bad:
            violations.append(f"{shard}: recall {r_bad}, mean_cells {c_bad}")
    _verdict(
        7,
        "threshold monotonicity",
        not violations,
        violations
        or f"recall and mean_cells non-increasing over "
        f"{len(e2e['sweeps'])} shards x 40 cutoffs",
    )


# --------------------------------------------------------------------------
# 8. End-to-end direction check: at baseline-matched recall (|delta| <=
#    0.5% absolute) the pooled destination-aggregated precision of the
#    cell models strictly exceeds the baseline's, and the engineered gap
#    band sees >= 5x fewer retrieved listings under the cell model.
#    Budget: full pipeline under 10 minutes.
# --------------------------------------------------------------------------


def test_criterion_8_end_to_end_direction(e2e):
    cmp_res = e2e["compared"]
    problems = []
    for sc in cmp_res.shards:
        if abs(sc.delta_recall) > 0.005:
            problems.append(f"{sc.shard} delta_recall {sc.delta_recall:+.4f}")
    cell_pd = cmp_res.pooled_cell_precision_dest
    rect_pd = cmp_res.pooled_baseline_precision_dest
    if not cell_pd > rect_pd:
        problems.append(f"pooled precision {cell_pd:.4f} vs {rect_pd:.4f}")
    gap = cmp_res.gap
    if not gap.rect_retrieved_total > 0:
        problems.append("baseline retrieved nothing in the gap band")
    if not 5.0 * gap.cell_retrieved_total <= gap.rect_retrieved_total:
        problems.append(
            f"gap band cell {gap.cell_retrieved_total:.0f} "
            f"vs rect {gap.rect_retrieved_total:.0f}"
        )
    seconds = e2e["pipeline_seconds"]
    if seconds >= 600.0:
        problems.append(f"pipeline took {seconds:.0f}s")
    _verdict(
        8,
        "end-to-end direction",
        not problems,
        problems
        or (
            f"matched |delta_recall| <= 0.005 on {len(cmp_res.shards)} shards; "
            f"pooled precision_dest {cell_pd:.4f} > {rect_pd:.4f}; gap band "
            f"{gap.cell_retrieved_total:.0f} vs {gap.rect_retrieved_total:.0f} "
            f"({seconds:.0f}s)"
        ),
    )


# --------------------------------------------------------------------------
# 9. Uniform-model calibration: zeroed output weights give cross entropy
#    ln K within 1e-6 on every shard.
# --------------------------------------------------------------------------


def test_criterion_9_uniform_calibration(e2e):
    gaps = {}
    for shard, model in e2e["models"].items():
        ce = model.with_zeroed_output().eval_cross_entropy(e2e["eval_b"][shard])
        gaps[shard] = abs(ce - math.log(model.n_classes))
    ok = all(v <= 1e-6 for v in gaps.values())
    _verdict(
        9,
        "uniform calibration",
        ok,
        "|ce - ln K| " + ", ".join(f"{s} {v:.1e}" for s, v in gaps.items()),
    )


# --------------------------------------------------------------------------
# 10. Determinism: two full pipeline runs with one config produce
#     byte-identical reports, CSVs, and charts.
# --------------------------------------------------------------------------


def test_criterion_10_determinism(tmp_path, capsys):
    cfg = {
        "data": {
            "seed": 11,
            "n_destinations": 8,
            "n_listings": 2400,
            "n_train_events": 4000,
            "n_eval_events": 600,
        },
        "train": {
            "embed_dim": 8,
            "hidden": [32, 16],
            "epochs": 2,
            "batch_size": 32,
            "num_negatives": 16,
            "seed": 5,
        },
        "bounds": {
            "embed_dim": 8,
            "hidden": [32, 16],
            "epochs": 2,
            "batch_size": 256,
            "seed": 5,
        },
    }
    artifacts = {}
    for run in ("a", "b"):
        workdir = tmp_path / f"run_{run}"
        cfg_path = tmp_path / f"cfg_{run}.json"
        cfg_path.write_text(json.dumps(dict(cfg, workdir=str(workdir))))
        for cmd in ("gen", "train", "sweep", "compare"):
            rc = main([cmd, "--config", str(cfg_path)])
            assert rc == 0, f"{cmd} run {run} exited {rc}"
        artifacts[run] = {
            name: (workdir / name).read_bytes()
            for name in (
                "report.txt",
                "sweep.csv",
                "sweep_EU.svg",
                "sweep_AMER.svg",
                "sweep_OTHER.svg",
            )
        }
    capsys.readouterr()
    diffs = [
        name for name in artifacts["a"] if artifacts["a"][name] != artifacts["b"][name]
    ]
    _verdict(
        10,
        "determinism",
        not diffs,
        diffs or "report, CSV, and 3 charts byte-identical across two runs",
    )
