"""Output checks: recounts made apart from the program under test.

Everything here is computed from the files a stage wrote, read with the
standard library, or from properties the method must have. The level-11
cell of a point is recomputed by `level_cells`, an implementation of the
cube-face quadratic projection and Hilbert order written for these checks
alone, so a fault in the package's own grid code cannot hide itself.

Every check returns a `Check`; `ok` is False when the program's output
disagrees with the recount.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

LEVEL = 11
MAX_CAPACITY = 10
REL_TOL = 1e-8  # the report prints 9 significant digits


@dataclass(frozen=True)
class Check:
    stage: str
    name: str
    ok: bool
    detail: str


# ---------------------------------------------------------------------------
# Independent geometry.

# Hilbert sub-square visiting order per orientation (bit 0: swap i/j,
# bit 1: invert), as (i << 1 | j) for positions 0..3, and the orientation
# change picked up in each position.
_POS_TO_IJ = np.array([[0, 1, 3, 2], [0, 2, 3, 1], [3, 2, 0, 1], [3, 1, 0, 2]])
_IJ_TO_POS = np.argsort(_POS_TO_IJ, axis=1)
_POS_TO_ORIENT = np.array([1, 0, 0, 3])


def _face_uv(face, x, y, z):
    """Face-local (u, v): the two other coordinates over the dominant one."""
    u = np.select(
        [face == 0, face == 1, face == 2, face == 3, face == 4],
        [y / x, -x / y, -x / z, z / x, z / y],
        -y / z,
    )
    v = np.select(
        [face == 0, face == 1, face == 2, face == 3, face == 4],
        [z / x, z / y, -y / z, y / x, -x / y],
        -x / z,
    )
    return u, v


def level_cells(lat_deg, lng_deg, level: int = LEVEL) -> np.ndarray:
    """uint64 ids of the level-`level` cells holding each lat/lng point."""
    lat = np.radians(np.asarray(lat_deg, dtype=np.float64))
    lng = np.radians(np.asarray(lng_deg, dtype=np.float64))
    x = np.cos(lat) * np.cos(lng)
    y = np.cos(lat) * np.sin(lng)
    z = np.sin(lat)
    axis = np.argmax(np.abs(np.stack([x, y, z])), axis=0)
    comp = np.choose(axis, [x, y, z])
    face = axis + 3 * (comp < 0)
    with np.errstate(divide="ignore", invalid="ignore"):  # other faces' branches
        u, v = _face_uv(face, x, y, z)

    def to_index(w):
        half = 0.5 * np.sqrt(1.0 + 3.0 * np.abs(w))
        s = np.where(w >= 0.0, half, 1.0 - half)
        size = 1 << level
        return np.clip(np.floor(s * size).astype(np.int64), 0, size - 1)

    i, j = to_index(u), to_index(v)
    orient = face & 1
    pos = np.zeros(i.shape, dtype=np.int64)
    for bit in range(level - 1, -1, -1):
        quad = _IJ_TO_POS[orient, ((i >> bit) & 1) * 2 + ((j >> bit) & 1)]
        pos = pos * 4 + quad
        orient = orient ^ _POS_TO_ORIENT[quad]
    return (
        (face.astype(np.uint64) << np.uint64(61))
        | (pos.astype(np.uint64) << np.uint64(61 - 2 * level))
        | np.uint64(1 << (60 - 2 * level))
    )


def in_rect(lat_lo, lat_hi, lng_lo, lng_hi, lat, lng) -> np.ndarray:
    """Point-in-rectangle in degrees; lng_lo > lng_hi wraps the antimeridian."""
    lat = np.asarray(lat)
    lng = np.asarray(lng)
    ok_lat = (lat >= lat_lo) & (lat <= lat_hi)
    if lng_lo <= lng_hi:
        return ok_lat & (lng >= lng_lo) & (lng <= lng_hi)
    return ok_lat & ((lng >= lng_lo) | (lng <= lng_hi))


# ---------------------------------------------------------------------------
# Reading what the program wrote.


def read_tsv(path) -> dict:
    """Columns of a headed TSV file as lists of strings."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh, delimiter="\t"))
    header, body = rows[0], rows[1:]
    return {name: [r[k] for r in body] for k, name in enumerate(header)}


class Store:
    """The dataset files of one workdir, parsed apart from the package."""

    def __init__(self, data_dir):
        with open(os.path.join(data_dir, "manifest.json")) as fh:
            self.manifest = json.load(fh)
        dests = read_tsv(os.path.join(data_dir, "destinations.tsv"))
        self.n_destinations = len(dests["dest_id"])
        self.continent = dict(zip(map(int, dests["dest_id"]), dests["continent"]))
        lst = read_tsv(os.path.join(data_dir, "listings.tsv"))
        self.ids = np.array(lst["listing_id"], dtype=np.int64)
        self.lat = np.array(lst["lat"], dtype=np.float64)
        self.lng = np.array(lst["lng"], dtype=np.float64)
        self.cap = np.array(lst["capacity"], dtype=np.int64)
        self.active = np.array(lst["active"]) == "1"
        self.cells = level_cells(self.lat, self.lng)
        self.row_of = {int(i): r for r, i in enumerate(self.ids)}
        self.train = _events(read_tsv(os.path.join(data_dir, "train_events.tsv")))
        self.eval = _events(read_tsv(os.path.join(data_dir, "eval_events.tsv")))
        # Listing -> rank among the distinct listing cells, for fast scans.
        self.cell_values, self.cell_rank = np.unique(self.cells, return_inverse=True)

    def shard_of(self, dest_ids) -> np.ndarray:
        return np.array([self.continent[int(d)] for d in dest_ids])

    def scan_cells(self, cells, guests) -> np.ndarray:
        """Sorted ids of active listings in `cells` with capacity >= guests."""
        cells = np.asarray(cells, dtype=np.uint64)
        pos = np.searchsorted(self.cell_values, cells)
        found = pos < self.cell_values.size
        found[found] = self.cell_values[pos[found]] == cells[found]
        hit = np.zeros(self.cell_values.size, dtype=bool)
        hit[pos[found]] = True
        keep = hit[self.cell_rank] & self.active & (self.cap >= guests)
        return np.sort(self.ids[keep])

    def scan_rect(self, rect, guests) -> np.ndarray:
        """Sorted ids of active listings inside `rect` with capacity >= guests."""
        inside = in_rect(rect.lat_lo, rect.lat_hi, rect.lng_lo, rect.lng_hi, self.lat, self.lng)
        return np.sort(self.ids[inside & self.active & (self.cap >= guests)])


def _events(cols) -> dict:
    return {
        "search_id": np.array(cols["search_id"], dtype=np.int64),
        "dest_id": np.array(cols["dest_id"], dtype=np.int64),
        "num_guests": np.array(cols["num_guests"], dtype=np.int64),
        "booked_listing_id": np.array(cols["booked_listing_id"], dtype=np.int64),
        "booked_cell": np.array(cols["booked_cell"], dtype=np.uint64),
    }


def read_report(path) -> dict:
    """report.txt as {section: {key: text}}; shards are keyed by name."""
    sections: dict = {"": {}}
    current = sections[""]
    with open(path, encoding="utf-8") as fh:
        lines = [line.strip() for line in fh]
    for line in lines:
        if not line:
            continue
        if line.startswith("["):
            name = line.strip("[]")
            name = name.split()[1] if name.startswith("shard ") else name
            current = sections.setdefault(name, {})
            continue
        key, _, value = line.partition(" ")
        current[key] = value
    return sections


def report_lambda(text: str) -> float:
    """The exact cutoff behind a 9-digit report value: cutoffs are float32
    probabilities, and 9 significant digits round-trip a float32."""
    return float(np.float32(float(text)))


def read_sweep(path) -> dict:
    """sweep.csv as {shard: (lambdas, recall, mean_cells)}, sorted by lambda."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    out = {}
    for shard in dict.fromkeys(r["shard"] for r in rows):
        mine = sorted((r for r in rows if r["shard"] == shard), key=lambda r: float(r["lambda"]))
        out[shard] = tuple(
            np.array([float(r[k]) for r in mine]) for k in ("lambda", "recall", "mean_cells")
        )
    return out


# ---------------------------------------------------------------------------
# Checks.


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def check_counts(store: Store, expected: dict) -> Check:
    got = {
        "destinations": store.n_destinations,
        "listings": int(store.ids.size),
        "train_events": int(store.train["search_id"].size),
        "eval_events": int(store.eval["search_id"].size),
    }
    bad = {k: (got[k], v) for k, v in expected.items() if got[k] != v}
    return Check("setup", "tsv_counts", not bad, f"(got, configured) {bad}" if bad else str(got))


def check_booked_cells(store: Store) -> Check:
    wrong = 0
    total = 0
    for events in (store.train, store.eval):
        rows = np.array([store.row_of.get(int(i), -1) for i in events["booked_listing_id"]])
        total += rows.size
        wrong += int((rows < 0).sum())
        ok = rows >= 0
        wrong += int((store.cells[rows[ok]] != events["booked_cell"][ok]).sum())
    return Check("setup", "booked_cell_is_listing_cell", wrong == 0, f"{wrong} of {total} events disagree")


def check_no_gap_bookings(store: Store) -> Check:
    gap = np.array(store.manifest["gap_listing_ids"], dtype=np.int64)
    hits = int(np.isin(store.train["booked_listing_id"], gap).sum())
    return Check("setup", "no_gap_band_bookings", hits == 0 and gap.size > 0,
                 f"{hits} training bookings among {gap.size} band listings")


def check_losses_finite(logs) -> Check:
    values = [v for log in logs for entry in log for v in entry.values()]
    bad = sum(not math.isfinite(v) for v in values)
    return Check("train", "losses_finite", bad == 0 and bool(values), f"{bad} of {len(values)} logged values not finite")


def check_vocab(store: Store, shard: str, vocab_cells) -> Check:
    shards = store.shard_of(store.train["dest_id"])
    want = np.unique(store.train["booked_cell"][shards == shard])
    got = np.asarray(vocab_cells, dtype=np.uint64)
    ok = np.array_equal(got, want)
    return Check("train", f"vocab_{shard}", ok, f"{got.size} classes, recount {want.size}")


def check_uniform_ce(shard: str, ce: float, n_classes: int) -> Check:
    gap = abs(ce - math.log(n_classes))
    return Check("train", f"zeroed_output_ln_k_{shard}", gap <= 1e-6, f"|ce - ln {n_classes}| = {gap:.3g}")


def check_sweep_monotone(sweep: dict) -> Check:
    bad = []
    for shard, (_, recall, cells) in sweep.items():
        if np.any(np.diff(recall) > 0) or np.any(np.diff(cells) > 0):
            bad.append(shard)
    return Check("evaluate", "sweep_non_increasing", not bad and bool(sweep), f"rising in {bad}" if bad else f"{len(sweep)} shards")


def check_matched_recall(shard: str, section: dict) -> Check:
    cell, base = float(section["cell_recall"]), float(section["baseline_recall"])
    warned = section["match_warning"] == "1"
    return Check("evaluate", f"matched_recall_{shard}", warned or cell >= base,
                 f"cell {cell} baseline {base} warning {int(warned)}")


def check_mean(stage: str, name: str, reported: float, recount: float) -> Check:
    return Check(stage, name, close(reported, recount), f"reported {reported!r} recount {recount!r}")


def check_recall_floor(shard: str, recall: float, inside_share: float) -> Check:
    return Check("evaluate", f"baseline_recall_floor_{shard}", recall >= inside_share - REL_TOL,
                 f"recall {recall} booked-inside share {inside_share}")


def cell_retrieved_recount(store: Store, classes, probs, guests, lam: float) -> float:
    """Mean active listings with capacity >= guests in the cells scored at or
    above `lam`, counted from the listing store, not the postings."""
    classes = np.asarray(classes, dtype=np.uint64)
    pos = np.clip(np.searchsorted(classes, store.cells), 0, classes.size - 1)
    in_vocab = classes[pos] == store.cells
    table = np.stack(
        [np.bincount(pos[in_vocab & store.active & (store.cap >= g)], minlength=classes.size)
         for g in range(MAX_CAPACITY + 1)]
    )
    g = np.minimum(np.asarray(guests), MAX_CAPACITY)
    counts = ((probs >= lam) * table[g]).sum(axis=1)
    return float(counts.sum()) / counts.size


def rect_recounts(store: Store, rects, guests, booked_ids):
    """(mean listings retrieved by each search's rectangle, share of searches
    whose booked listing lies inside it)."""
    total = 0
    inside_booked = 0
    for rect, g, lid in zip(rects, guests, booked_ids):
        total += store.scan_rect(rect, g).size
        r = store.row_of[int(lid)]
        inside_booked += bool(in_rect(rect.lat_lo, rect.lat_hi, rect.lng_lo, rect.lng_hi, store.lat[r], store.lng[r]))
    return total / len(rects), inside_booked / len(rects)
