"""
The bounding-box baseline and the inverted index
================================================

The baseline predicts a latitude/longitude rectangle around the
destination center instead of scoring cells. Both systems meet at the
listing index: rectangles are covered with retrieval-level cells and
post-filtered, classifier cell sets are looked up directly.
"""

import numpy as np

from cellsearch.baseline import (
    BoundsConfig,
    BoundsModel,
    bounds_to_cellset,
    destination_coords,
    offset_targets,
)
from cellsearch.datagen import GenConfig, generate_dataset
from cellsearch.features import encode_events, fit_pipeline, merge_batches
from cellsearch.index import ListingIndex

# 1. World and features, as in the earlier demos.
cfg = GenConfig(seed=11, n_destinations=8, n_listings=2400,
                n_train_events=4000, n_eval_events=600)
world, train_events, eval_events = generate_dataset(cfg)
pipeline = fit_pipeline(train_events, world.destinations)
train_batches = encode_events(train_events, world.destinations, pipeline)
eval_batches = encode_events(eval_events, world.destinations, pipeline)

# 2. The baseline trains on all shards pooled. Targets are the booked
# cell centers expressed as offsets from the destination center, with
# longitude deltas wrapped.
merged = merge_batches(list(train_batches.values()))
coords = destination_coords(merged, world.destinations)
targets = offset_targets(merged, coords)
print(f"pooled training events: {len(merged)}")
print(f"offset spread: dlat sd {targets[:, 0].std():.3f} deg, "
      f"dlng sd {targets[:, 1].std():.3f} deg")

bc = BoundsConfig(embed_dim=8, hidden=(32, 16), epochs=2, batch_size=256, seed=5)
bmodel = BoundsModel.build(bc, pipeline)
bmodel.fit(merged, targets)
print("epochs logged:", len(bmodel.train_log))

# 3. Predicted rectangles scale with the model's spread estimate; each
# event gets its own box centered near its destination.
ev = merge_batches(list(eval_batches.values()))
first = ev.take(np.arange(3))
rects = bmodel.predict_bounds(first, destination_coords(first, world.destinations))
for rect in rects:
    print(f"rect lat [{rect.lat_lo:.3f}, {rect.lat_hi:.3f}] "
          f"lng [{rect.lng_lo:.3f}, {rect.lng_hi:.3f}]")

# 4. The index posts the store's active listings under their level 11
# cell (computed once, with the store) in CSR postings, each sorted by
# capacity, largest first.
store = world.listings
index = ListingIndex.build(store)
print(f"\nindex: {len(store)} listings, {index.n_active} active "
      f"in {index.posting_cells.size} cells")

# 5. Serve the rectangles and confirm the index agrees with a brute
# force scan: covering plus exact post-filter changes nothing.
print()
for rect in rects:
    hits = index.retrieve_rect(rect, num_guests=1)
    mask = (rect.contains(store.lats, store.lngs)
            & store.active & (store.capacities >= 1))
    brute = store.ids[mask]
    print(f"rect retrieval: {hits.size:4d} listings, matches brute force:",
          bool(np.array_equal(hits, brute)))

# 6. Cell-set retrieval is the classifier-side entry point. Covering the
# same rect and querying those cells returns a superset of the precise
# rect result (cells overhang the rect edges).
rect = rects[2]
hits = index.retrieve_rect(rect, num_guests=1)
cells = bounds_to_cellset(rect)
cell_hits = index.retrieve_cells(cells, num_guests=1)
print(f"\ncell-set retrieval over {cells.size} covering cells: "
      f"{cell_hits.size} listings, superset of rect result ({hits.size}):",
      bool(np.isin(hits, cell_hits).all()))
