"""
Generating the synthetic travel marketplace
===========================================

The dataset generator builds a deterministic world of destinations with
listing clusters, then samples search-and-book events from it. One
destination hides an engineered gap: a band of listings that training
events never book, which later separates the two retrieval systems.
"""

import collections

import numpy as np

from cellsearch.datagen import GenConfig, generate_dataset, km_distance

# 1. A reduced-scale config keeps this demo fast. The defaults
# (60 destinations, 30k listings, 200k train events) behave the same way.
cfg = GenConfig(
    seed=11,
    n_destinations=8,
    n_listings=2400,
    n_train_events=4000,
    n_eval_events=600,
)
world, train, eval_ = generate_dataset(cfg)

# 2. Destinations live on three continents with a popularity skew.
print(f"{len(world.destinations)} destinations, {len(world.listings)} listings")
by_cont = collections.Counter(d.continent for d in world.destinations)
print("continent mix:", dict(by_cont))
top = np.argsort(world.popularity)[::-1][:3]
for d in top:
    dest = world.destinations[d]
    print(f"  popular: dest {dest.dest_id} {dest.continent} "
          f"({dest.lat:.2f}, {dest.lng:.2f}) p={world.popularity[d]:.3f}")

# 3. Listings cluster around their destination with capacities 1..10 and
# a small inactive fraction. The store keeps them as columns, rows sorted
# by listing id, each with its level 11 cell computed once.
store = world.listings
print(f"\ncapacity range {store.capacities.min()}..{store.capacities.max()}, "
      f"active {store.active.mean():.0%}, "
      f"{np.unique(store.cells).size} distinct level 11 cells")

# 4. Search events point at a booked listing (and its level 11 cell).
# Most book near the destination center, a small outlier share books far
# away, and a pan-discovery share books in a different destination than
# the one searched.
events = train[:2000]
rows = np.searchsorted(store.ids, [ev.booked_listing_id for ev in events])
dests = [world.destinations[ev.dest_id] for ev in events]
dists = km_distance(store.lats[rows], store.lngs[rows],
                    [d.lat for d in dests], [d.lng for d in dests])
print(f"\nbooked-to-center distance: median {np.median(dists):.1f} km, "
      f"p99 {np.percentile(dists, 99):.0f} km")
print("outlier flags in train:",
      sum(ev.is_outlier for ev in train), f"of {len(train)}")

# 5. The engineered gap. One destination has a band of listings that no
# training event books; a rectangle around the band is recorded so the
# evaluation can measure what each retrieval system does there.
gap = world.gap
print(f"\ngap destination {gap.dest_id} with {len(gap.listing_ids)} band listings")
print(f"gap rect lat [{gap.rect.lat_lo:.3f}, {gap.rect.lat_hi:.3f}] "
      f"lng [{gap.rect.lng_lo:.3f}, {gap.rect.lng_hi:.3f}]")
booked_band = sum(1 for ev in train if ev.booked_listing_id in set(gap.listing_ids))
print("train bookings of band listings:", booked_band)

# 6. Everything is reproducible: rerunning with the same config gives
# the same world and the same logs.
world2, train2, _ = generate_dataset(cfg)
same = train == train2 and world.listings == world2.listings
print("\nsecond run identical:", same)
