"""
Threshold sweeps and the system comparison
==========================================

The classifier retrieves every cell whose probability clears a cutoff.
Sweeping the cutoff over a log grid traces recall against precision and
retrieval cost. The comparison then picks, per shard, the cutoff whose
recall matches what the baseline's rectangles achieve, and reads off
precision and retrieved-listing counts at equal recall.
"""

import pathlib
import tempfile

import numpy as np

from cellsearch.baseline import BoundsConfig
from cellsearch.cli import fit_stack
from cellsearch.datagen import GenConfig, generate_dataset
from cellsearch.evaluation import (
    LAMBDA_GRID,
    format_report,
    run_compare,
    sweep_shard,
    write_sweep_csv,
)
from cellsearch.features import SHARDS, encode_events
from cellsearch.index import ListingIndex
from cellsearch.model import TrainConfig
from cellsearch.svg import write_sweep_svg

# 1. Build the full reduced-scale stack the way `cellsearch train` does:
# world, features, three shard classifiers, pooled baseline; then the
# listing index and the encoded evaluation searches.
cfg = GenConfig(seed=11, n_destinations=8, n_listings=2400,
                n_train_events=4000, n_eval_events=600)
world, train_events, eval_events = generate_dataset(cfg)
tc = TrainConfig(embed_dim=8, hidden=(32, 16), epochs=2, batch_size=32,
                 num_negatives=16, seed=5)
bc = BoundsConfig(embed_dim=8, hidden=(32, 16), epochs=2, batch_size=256, seed=5)
pipeline, _, models, bmodel = fit_stack(tc, bc, world, train_events)
eval_batches = encode_events(eval_events, world.destinations, pipeline)
index = ListingIndex.build(world.listings)

# 2. Sweep one shard over the default 40-point cutoff grid. Recall falls
# and precision rises as the cutoff climbs.
result = sweep_shard(models["EU"], eval_batches["EU"], index)
print(f"grid: {LAMBDA_GRID.size} cutoffs from {LAMBDA_GRID[0]:.0e} "
      f"to {LAMBDA_GRID[-1]:.0e}")
for k in (0, 19, 39):
    p = result.point(k)
    print(f"cutoff {result.lambdas[k]:.2e}: recall {p.recall:.3f} "
          f"precision_dest {p.precision_dest:.3f} "
          f"mean cells {p.mean_cells:.1f} mean listings {p.mean_retrieved:.1f}")
print("recall non-increasing along the grid:",
      bool(np.all(np.diff(result.recall) <= 0)))

# 3. Artifacts: a CSV of every (shard, cutoff) row and one chart per
# shard. The chart embeds its own rows, so a chart can be diffed exactly
# like the CSV. Both are byte-stable across reruns.
with tempfile.TemporaryDirectory(prefix="sweepdemo_") as tmp:
    out = pathlib.Path(tmp)
    results = {s: sweep_shard(models[s], eval_batches[s], index) for s in SHARDS}
    write_sweep_csv(out / "sweep.csv", [results[s] for s in SHARDS])
    for s in SHARDS:
        write_sweep_svg(out / f"sweep_{s}.svg", results[s])
    print(f"\nwrote {out / 'sweep.csv'} and three charts")
    print("csv head:")
    for line in (out / "sweep.csv").read_text().splitlines()[:3]:
        print(" ", line)

    # 4. The comparison. Per shard, the baseline rectangles set the recall
    # target; the classifier cutoff is chosen to match it, and the report
    # contrasts precision and cost at that operating point. The gap section
    # counts retrieved listings inside the never-booked band, where the
    # rectangles keep paying and the cell model does not.
    cmp = run_compare(models, bmodel, eval_batches, world, index)
    for sc in cmp.shards:
        print(f"\n[{sc.shard}] recall delta {sc.delta_recall:+.4f} "
              f"at cutoff {sc.matched_lambda:.3g}")
        print(f"  precision_dest cell {sc.cell.precision_dest:.4f} "
              f"vs rect {sc.baseline.precision_dest:.4f}")
        print(f"  mean listings cell {sc.cell.mean_retrieved:.1f} "
              f"vs rect {sc.baseline.mean_retrieved:.1f}")
    print(f"\ngap band: cell {cmp.gap.cell_retrieved_total:.0f} vs "
          f"rect {cmp.gap.rect_retrieved_total:.0f} retrieved listings")

    report = format_report(cmp)
    (out / "report.txt").write_text(report)
    print(f"report written to {out / 'report.txt'} "
          f"({len(report.splitlines())} lines)")
