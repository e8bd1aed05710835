"""Retrieval quality evaluation for cell classifiers and the bounds baseline.

The central object is a threshold sweep: for each probability cutoff the
classifier retrieves every vocabulary cell whose predicted probability
reaches the cutoff, and we measure recall, precision, and retrieval cost
over a window of evaluation searches. The bounds baseline is evaluated
once (it has no cutoff): its predicted rectangle is expanded to the
retrieval-level covering and scored by the same summary of per-search
outcomes, as one operating point.

Metric definitions
------------------
recall
    Fraction of evaluation searches whose booked cell is retrieved.
    Searches whose booked cell is outside the classifier vocabulary can
    never be retrieved by the classifier and count as misses.
precision_dest
    Destination-aggregated precision. For one destination, the predicted
    set is the union of retrieved cells over its searches and the truth
    set is the union of booked cells over the same searches; precision is
    the fraction of predicted cells that appear in the truth set (zero
    when nothing is predicted). The reported number is the unweighted
    mean over destinations.
precision_event
    Per-search precision: the booked cell indicator divided by the number
    of retrieved cells (zero when nothing is retrieved), averaged over
    searches.
mean_cells
    Mean number of retrieved cells per search.
mean_retrieved
    Mean number of active listings retrieved per search, counted through
    the listing index postings with serving's capacity rule: a listing
    counts when its capacity reaches the search's guest count, whatever
    the party size.
dest_weighted_recall
    Mean over destinations of the per-destination recall; a secondary
    view that weights rarely searched destinations equally.
"""

from dataclasses import dataclass

import numpy as np

from .baseline import BoundsModel, destination_coords
from .datagen import World
from .errors import ConfigError, DataError
from .features import SHARDS, EncodedBatch
from .index import ListingIndex, sorted_unique
from .labels import RETRIEVAL_LEVEL
from .model import ShardModel
from .nn import row_chunks
from .s2geom import cover_rects_raw

LAMBDA_GRID = np.logspace(-5.0, -1.0, 40)

# Operating thresholds chosen on the full-scale configuration, recorded
# for reference next to sweep output. They are not asserted anywhere:
# reduced-scale runs land on different operating points.
FULL_SCALE_REFERENCE_LAMBDAS = {"EU": 0.0005, "AMER": 0.00075, "OTHER": 0.000625}

SWEEP_CSV_COLUMNS = (
    "shard",
    "lambda",
    "recall",
    "precision_dest",
    "precision_event",
    "mean_cells",
    "mean_retrieved",
)

REPORT_MAGIC = "cellsearch-report"
REPORT_VERSION = 1


def _fmt(x) -> str:
    return format(float(x), ".9g")


@dataclass(frozen=True)
class MetricPoint:
    """Scalar retrieval metrics at one operating point."""

    recall: float
    precision_dest: float
    precision_event: float
    mean_cells: float
    mean_retrieved: float
    dest_weighted_recall: float


METRIC_FIELDS = tuple(MetricPoint.__dataclass_fields__)


@dataclass
class SweepResult:
    """Per-shard metrics over a grid of probability cutoffs."""

    shard: str
    lambdas: np.ndarray
    recall: np.ndarray
    precision_dest: np.ndarray
    precision_event: np.ndarray
    mean_cells: np.ndarray
    mean_retrieved: np.ndarray
    dest_weighted_recall: np.ndarray
    dest_precisions: np.ndarray  # (n_dests, n_lambdas)
    n_events: int
    n_classes: int
    oov_events: int

    def point(self, j: int) -> MetricPoint:
        return MetricPoint(**{name: float(getattr(self, name)[j]) for name in METRIC_FIELDS})


def _summary(hits, cells, listings, didx, dest_precisions) -> dict:
    """The MetricPoint figures at L operating points, each an (L,) array.

    hits, cells and listings are (n, L) per-search outcomes: whether the
    booked cell is retrieved, how many cells and how many listings are.
    didx gives each search's destination row of the (D, L)
    dest_precisions.
    """
    dest_hits = np.zeros(dest_precisions.shape)
    np.add.at(dest_hits, didx, hits.astype(np.float64))
    dest_events = np.bincount(didx, minlength=dest_precisions.shape[0]).astype(np.float64)
    return {
        "recall": hits.mean(axis=0),
        "precision_dest": dest_precisions.mean(axis=0),
        "precision_event": np.where(cells > 0, hits / np.maximum(cells, 1), 0.0).mean(axis=0),
        "mean_cells": cells.mean(axis=0),
        "mean_retrieved": listings.mean(axis=0),
        "dest_weighted_recall": (dest_hits / dest_events[:, None]).mean(axis=0),
    }


def _prob_chunks(model: ShardModel, batch: EncodedBatch):
    """(lo, hi, float64 class probabilities of rows lo:hi) chunk by chunk."""
    for sl in row_chunks(len(batch)):
        yield sl.start, sl.stop, model.predict_probs(batch.take(sl)).astype(np.float64)


def _pick_booked(probs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Each row's probability of its class in y, -1.0 where y is -1 (OOV)."""
    ok = y >= 0
    return np.where(ok, probs[np.arange(y.size), np.where(ok, y, 0)], -1.0)


def booked_cell_probs(model: ShardModel, batch: EncodedBatch) -> np.ndarray:
    """Predicted probability of each search's booked cell, -1.0 where OOV."""

    n = len(batch)
    if n == 0:
        raise DataError("cannot evaluate an empty batch")
    y = model.vocab.lookup_array(batch.booked_cells)
    out = np.empty(n)
    for lo, hi, probs in _prob_chunks(model, batch):
        out[lo:hi] = _pick_booked(probs, y[lo:hi])
    return out


def _check_lambdas(lambdas) -> np.ndarray:
    lam = np.asarray(lambdas, dtype=np.float64)
    if lam.ndim != 1 or lam.size == 0:
        raise ConfigError("lambda grid must be a non-empty 1-d array")
    if not np.all(lam > 0.0):
        raise ConfigError("cutoffs must be strictly positive")
    if not np.all(np.diff(lam) > 0.0) and lam.size > 1:
        raise ConfigError("lambda grid must be strictly increasing")
    return lam


def sweep_shard(
    model: ShardModel,
    batch: EncodedBatch,
    index: ListingIndex,
    lambdas=None,
) -> SweepResult:
    """Evaluate one shard's classifier over a grid of probability cutoffs.

    Retrieval at cutoff lam keeps every vocabulary cell with predicted
    probability >= lam. Listing counts come from the index postings with
    each search's guest capacity filter, which matches what retrieve_cells
    returns because postings partition the active listings by cell.
    """

    lam = _check_lambdas(LAMBDA_GRID if lambdas is None else lambdas)
    n = len(batch)
    if n == 0:
        raise DataError("cannot sweep an empty batch")
    if batch.shard != model.shard:
        raise DataError(f"batch shard {batch.shard!r} does not match model shard {model.shard!r}")
    n_lam = lam.size
    k = len(model.vocab)

    y = model.vocab.lookup_array(batch.booked_cells)
    dest_ids, didx = np.unique(batch.dest_ids, return_inverse=True)
    n_dests = dest_ids.size

    # Listings passing the capacity filter per (cell, distinct party), as
    # retrieve_cells keeps them: capacity >= num_guests.
    parties, party = np.unique(batch.num_guests, return_inverse=True)
    npass = index.capacity_count_table(model.vocab.classes, parties)
    npass_by_party = np.ascontiguousarray(npass.T, dtype=np.float64)  # (parties, k)

    booked_probs = np.empty(n)
    cell_counts = np.zeros((n, n_lam))
    listing_counts = np.zeros((n, n_lam))
    max_prob = np.zeros((n_dests, k), dtype=np.float64)

    for lo, hi, probs in _prob_chunks(model, batch):
        booked_probs[lo:hi] = _pick_booked(probs, y[lo:hi])

        # bins[r, c] counts grid cutoffs <= probs[r, c]; a cell is retrieved
        # at cutoff j exactly when bins > j, so suffix sums over the bin
        # histogram give retrieved-cell and retrieved-listing counts for the
        # whole grid in two bincounts.
        bins = np.searchsorted(lam, probs, side="right")
        flat = bins + (np.arange(hi - lo) * (n_lam + 1))[:, None]
        hist = np.bincount(flat.ravel(), minlength=(hi - lo) * (n_lam + 1))
        hist = hist.reshape(hi - lo, n_lam + 1)
        suffix = np.cumsum(hist[:, ::-1], axis=1)[:, ::-1]
        cell_counts[lo:hi] = suffix[:, 1:]

        weights = npass_by_party[party[lo:hi]]  # (chunk, k)
        whist = np.bincount(flat.ravel(), weights=weights.ravel(), minlength=(hi - lo) * (n_lam + 1))
        whist = whist.reshape(hi - lo, n_lam + 1)
        wsuffix = np.cumsum(whist[:, ::-1], axis=1)[:, ::-1]
        listing_counts[lo:hi] = wsuffix[:, 1:]

        for d in np.unique(didx[lo:hi]):
            group = probs[didx[lo:hi] == d]
            max_prob[d] = np.maximum(max_prob[d], group.max(axis=0))

    dest_precisions = np.zeros((n_dests, n_lam))
    for d in range(n_dests):
        truth = np.unique(y[(didx == d) & (y >= 0)])
        row_sorted = np.sort(max_prob[d])
        pred_sizes = k - np.searchsorted(row_sorted, lam, side="left")
        truth_sorted = np.sort(max_prob[d, truth])
        inter = truth_sorted.size - np.searchsorted(truth_sorted, lam, side="left")
        dest_precisions[d] = np.where(pred_sizes > 0, inter / np.maximum(pred_sizes, 1), 0.0)

    hits = booked_probs[:, None] >= lam[None, :]
    return SweepResult(
        shard=batch.shard,
        lambdas=lam,
        **_summary(hits, cell_counts, listing_counts, didx, dest_precisions),
        dest_precisions=dest_precisions,
        n_events=n,
        n_classes=k,
        oov_events=int((y < 0).sum()),
    )


def quantile_threshold(booked_probs, target: float):
    """Exact cutoff whose recall is the smallest achievable value >= target.

    With n searches, recall values are multiples of 1/n; taking the m-th
    largest booked-cell probability as the cutoff, for the smallest m with
    m / n >= target (in the float arithmetic that computes a recall),
    retrieves exactly the searches at or above it, so the achieved recall
    exceeds the target by less than 1/n plus any mass tied at the cutoff.
    A target of 0 gives m = 0 and the next float above the largest
    booked-cell probability, so the recall is exactly 0. Searches whose
    booked cell is out of vocabulary carry a sentinel of -1.0 and are
    unreachable; if the target demands them the cutoff falls back to the
    smallest reachable probability and warned=True.
    """

    probs = np.asarray(booked_probs, dtype=np.float64)
    if probs.ndim != 1 or probs.size == 0:
        raise DataError("need at least one search to choose a cutoff")
    if not 0.0 <= target <= 1.0:
        raise ConfigError(f"target recall must be in [0, 1], got {target}")
    n = probs.size
    m = int(np.searchsorted(np.arange(n + 1) / n, target))
    desc = np.sort(probs)[::-1]
    if m == 0:
        return float(np.nextafter(desc[0], np.inf)), False
    lam = float(desc[m - 1])
    if lam > 0.0:
        return lam, False
    reachable = desc[desc > 0.0]
    if reachable.size == 0:
        raise DataError("no search's booked cell is in the vocabulary")
    return float(reachable[-1]), True


@dataclass
class BaselineEval:
    """Bounds-baseline metrics for one shard, and the rectangle predicted
    for each of its searches."""

    shard: str
    point: MetricPoint
    dest_precisions: np.ndarray
    rects: list


def _coverings(rects) -> list:
    """Each rect's retrieval-level covering. The distinct rects (exact float
    bounds) are covered together in one batched pass; repeats share one
    array."""
    first: dict = {}
    which = [first.setdefault(rect, len(first)) for rect in rects]
    distinct = cover_rects_raw(list(first), RETRIEVAL_LEVEL)
    return [distinct[k] for k in which]


def _rect_counts(index: ListingIndex, rects, coverings, num_guests) -> np.ndarray:
    """Per search, the size of retrieve_rect's answer: the listings posted
    under the rect's covering (postings hold active listings only) that
    lie in the rect and seat the party."""

    store = index.listings
    counts = np.empty(len(rects))
    for r, (rect, covering, g) in enumerate(zip(rects, coverings, num_guests)):
        rows = index.seated_rows(covering, g)
        counts[r] = np.count_nonzero(rect.contains(store.lats[rows], store.lngs[rows]))
    return counts


def evaluate_baseline(
    bmodel: BoundsModel,
    batch: EncodedBatch,
    destinations,
    index: ListingIndex,
) -> BaselineEval:
    """Score the bounds baseline on one shard's evaluation searches.

    Each search's predicted rectangle is expanded to its retrieval-level
    covering; the covering is the exact set of retrieval cells touching
    the rectangle, so membership of the booked cell in it decides recall.
    Retrieved listings are counted through the postings of the covering
    with the point-in-rectangle test and the guest capacity filter,
    matching retrieve_rect. The shard's distinct rectangles (exact float
    key; searches for one destination often repeat feature combinations)
    are covered together in one batched pass.
    """

    n = len(batch)
    if n == 0:
        raise DataError("cannot evaluate an empty batch")
    coords = destination_coords(batch, destinations)
    rects = bmodel.predict_bounds(batch, coords)
    booked = batch.booked_cells
    coverings = _coverings(rects)

    hits = np.zeros((n, 1), dtype=bool)
    for r, (covering, cell) in enumerate(zip(coverings, booked)):
        pos = np.searchsorted(covering, cell)
        hits[r] = pos < covering.size and covering[pos] == cell
    cells = np.array([[c.size] for c in coverings], dtype=np.float64)
    listings = _rect_counts(index, rects, coverings, batch.num_guests)[:, None]

    dest_ids, didx = np.unique(batch.dest_ids, return_inverse=True)
    dest_precisions = np.zeros((dest_ids.size, 1))
    for d in range(dest_ids.size):
        rows = np.flatnonzero(didx == d)
        union = sorted_unique(np.concatenate([coverings[r] for r in rows]))
        inter = int(np.isin(np.unique(booked[rows]), union).sum())
        dest_precisions[d] = inter / union.size if union.size else 0.0

    summary = _summary(hits, cells, listings, didx, dest_precisions)
    point = MetricPoint(**{name: float(v[0]) for name, v in summary.items()})
    return BaselineEval(shard=batch.shard, point=point, dest_precisions=dest_precisions[:, 0], rects=rects)


@dataclass
class GapStats:
    """Retrieval pressure on the engineered zero-booking band.

    Totals count retrieved listings that belong to the band, summed over
    the gap destination's evaluation searches, under the classifier at
    its matched cutoff and under the baseline rectangles. A destination
    without evaluation searches gets all zeros.
    """

    dest_id: int
    shard: str
    n_events: int = 0
    cell_retrieved_total: float = 0.0
    rect_retrieved_total: float = 0.0
    cell_mean_retrieved: float = 0.0
    rect_mean_retrieved: float = 0.0


@dataclass
class ShardComparison:
    shard: str
    n_events: int
    n_classes: int
    oov_events: int
    baseline: MetricPoint
    matched_lambda: float
    match_warning: bool
    cell: MetricPoint
    delta_recall: float


@dataclass
class CompareResult:
    shards: list
    pooled_cell_precision_dest: float
    pooled_baseline_precision_dest: float
    n_destinations: int
    gap: GapStats


def gap_statistics(
    model: ShardModel,
    batch: EncodedBatch,
    rects: list,
    world: World,
    lam: float,
) -> GapStats:
    """Count retrieved band listings for the gap destination's searches in
    the batch of its shard. The band gets its own index, which each route
    counts as it counts the whole store: the classifier by sweep_shard at
    the cutoff lam, the baseline by _rect_counts in the searches'
    rectangles, rects[r] for batch row r, with all band postings as the
    covering (a superset of the band listings in any rectangle)."""

    gap = world.gap
    rows = np.flatnonzero(batch.dest_ids == gap.dest_id)
    if rows.size == 0:
        return GapStats(gap.dest_id, batch.shard)
    gb = batch.take(rows)
    n = len(gb)
    store = world.listings
    # The constructor, not build: an empty band indexes to no postings.
    band = ListingIndex(store.take(np.flatnonzero(np.isin(store.ids, gap.listing_ids))))
    # The total is an integer below 2**51, so the mean times n rounds back to it.
    by_cell = round(float(sweep_shard(model, gb, band, [lam]).mean_retrieved[0]) * n)
    by_rect = int(_rect_counts(band, [rects[r] for r in rows], [band.posting_cells] * n, gb.num_guests).sum())
    return GapStats(gap.dest_id, batch.shard, n, float(by_cell), float(by_rect), by_cell / n, by_rect / n)


def run_compare(
    models: dict,
    bmodel: BoundsModel,
    batches: dict,
    world: World,
    index: ListingIndex,
) -> CompareResult:
    """Compare the classifiers against the bounds baseline at matched recall.

    Per shard, the baseline's achieved recall becomes the target and the
    classifier's cutoff is chosen by exact quantile over booked-cell
    probabilities, so the recall difference is bounded by one event plus
    ties at the cutoff. Precision is then compared destination-aggregated,
    pooled over every destination of every shard. The gap band is counted
    in the gap destination's shard, at its matched cutoff and under the
    rectangles its baseline evaluation predicted.
    """

    shards = [s for s in SHARDS if s in models and s in batches]
    if not shards:
        raise DataError("no shard has both a model and evaluation events")

    gap_dest = world.gap.dest_id
    gap = GapStats(gap_dest, next(d.continent for d in world.destinations if d.dest_id == gap_dest))
    comparisons = []
    cell_dest_prec = []
    base_dest_prec = []
    for shard in shards:
        batch = batches[shard]
        model = models[shard]
        base = evaluate_baseline(bmodel, batch, world.destinations, index)
        probs = booked_cell_probs(model, batch)
        lam, warned = quantile_threshold(probs, base.point.recall)
        sweep = sweep_shard(model, batch, index, lambdas=np.array([lam]))
        cell_point = sweep.point(0)
        comparisons.append(
            ShardComparison(
                shard=shard,
                n_events=len(batch),
                n_classes=sweep.n_classes,
                oov_events=sweep.oov_events,
                baseline=base.point,
                matched_lambda=lam,
                match_warning=warned,
                cell=cell_point,
                delta_recall=cell_point.recall - base.point.recall,
            )
        )
        if shard == gap.shard:
            gap = gap_statistics(model, batch, base.rects, world, lam)
        cell_dest_prec.append(sweep.dest_precisions[:, 0])
        base_dest_prec.append(base.dest_precisions)

    pooled_cell = float(np.concatenate(cell_dest_prec).mean())
    pooled_base = float(np.concatenate(base_dest_prec).mean())
    return CompareResult(
        shards=comparisons,
        pooled_cell_precision_dest=pooled_cell,
        pooled_baseline_precision_dest=pooled_base,
        n_destinations=sum(p.size for p in cell_dest_prec),
        gap=gap,
    )


def sweep_rows(result: SweepResult) -> list:
    """CSV data rows for one sweep, in SWEEP_CSV_COLUMNS order, shared
    verbatim by the chart metadata."""
    # The shard and the cutoff lead; each later column is the field of its name.
    columns = [result.lambdas, *(getattr(result, name) for name in SWEEP_CSV_COLUMNS[2:])]
    return [",".join([result.shard, *(_fmt(col[j]) for col in columns)]) for j in range(result.lambdas.size)]


def sweep_csv_text(results) -> str:
    lines = [",".join(SWEEP_CSV_COLUMNS)]
    for result in results:
        lines.extend(sweep_rows(result))
    return "\n".join(lines) + "\n"


def write_sweep_csv(path, results) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(sweep_csv_text(results))


def _point_lines(prefix: str, point: MetricPoint) -> list:
    return [f"{prefix}_{name} {_fmt(getattr(point, name))}" for name in METRIC_FIELDS]


def format_report(result: CompareResult) -> str:
    """Plain-text comparison report; line-oriented, no timestamps."""

    lines = [f"{REPORT_MAGIC} {REPORT_VERSION}"]
    for shard in SHARDS:
        lines.append(f"reference_lambda {shard} {_fmt(FULL_SCALE_REFERENCE_LAMBDAS[shard])}")
    for comp in result.shards:
        lines.append("")
        lines.append(f"[shard {comp.shard}]")
        lines.append(f"n_events {comp.n_events}")
        lines.append(f"n_classes {comp.n_classes}")
        lines.append(f"oov_events {comp.oov_events}")
        lines.append(f"matched_lambda {_fmt(comp.matched_lambda)}")
        lines.append(f"match_warning {int(comp.match_warning)}")
        lines.append(f"delta_recall {_fmt(comp.delta_recall)}")
        lines.extend(_point_lines("cell", comp.cell))
        lines.extend(_point_lines("baseline", comp.baseline))
    lines.append("")
    lines.append("[pooled]")
    lines.append(f"n_destinations {result.n_destinations}")
    lines.append(f"cell_precision_dest {_fmt(result.pooled_cell_precision_dest)}")
    lines.append(f"baseline_precision_dest {_fmt(result.pooled_baseline_precision_dest)}")
    gap = result.gap
    lines.append("")
    lines.append("[gap]")
    lines.append(f"dest_id {gap.dest_id}")
    lines.append(f"shard {gap.shard}")
    lines.append(f"n_events {gap.n_events}")
    lines.append(f"cell_retrieved_total {_fmt(gap.cell_retrieved_total)}")
    lines.append(f"rect_retrieved_total {_fmt(gap.rect_retrieved_total)}")
    lines.append(f"cell_mean_retrieved {_fmt(gap.cell_mean_retrieved)}")
    lines.append(f"rect_mean_retrieved {_fmt(gap.rect_mean_retrieved)}")
    return "\n".join(lines) + "\n"


def write_report(path, result: CompareResult) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_report(result))
