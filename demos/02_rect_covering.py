"""
Covering latitude/longitude rectangles with grid cells
======================================================

A bounding box query has to be translated into the grid world before the
inverted index can serve it. The covering is exact: a cell is included
if and only if it overlaps the rectangle, so a membership post-filter on
the raw coordinates is all that is needed to make results precise.
"""

import numpy as np

from cellsearch.s2geom import CellId, GeoRect, cell_centers_vec, cover_rect_raw, cover_rects_raw

# 1. A small city-scale rectangle covered at the retrieval level.
rect = GeoRect(lat_lo=48.80, lat_hi=48.92, lng_lo=2.20, lng_hi=2.45)
cells = cover_rect_raw(rect, level=11)
print(f"city rect -> {cells.size} level 11 cells")
print("first tokens:", [CellId.from_raw(int(r)).token() for r in cells[:5]])

# 2. Every covering cell really does touch the rectangle: its center may
# sit outside, but no cell is included whose closed bounds miss the rect.
clat, clng = cell_centers_vec(cells, 11)
inside = rect.contains(clat, clng)
print(f"cell centers inside the rect: {int(inside.sum())}/{cells.size} "
      "(edge cells overlap without their center being contained)")

# 3. Coverings are complete. Scatter random points in the rectangle and
# check each point's cell is in the covering.
rng = np.random.default_rng(0)
plat = rng.uniform(rect.lat_lo, rect.lat_hi, 2000)
plng = rng.uniform(rect.lng_lo, rect.lng_hi, 2000)
from cellsearch.s2geom import cells_from_latlng_vec

pcells = cells_from_latlng_vec(plat, plng, 11)
print("every interior point's cell is covered:",
      bool(np.isin(pcells, cells).all()))

# 4. Rectangles may wrap the antimeridian: lng_lo > lng_hi means the
# interval passes through 180 degrees.
fiji = GeoRect(lat_lo=-19.0, lat_hi=-16.0, lng_lo=177.0, lng_hi=-178.0)
wrap_cells = cover_rect_raw(fiji, level=8)
print(f"\nantimeridian rect -> {wrap_cells.size} level 8 cells")
print("contains (-17.8, 179.9):", bool(fiji.contains(-17.8, 179.9)))
print("contains (-17.8, -179.9):", bool(fiji.contains(-17.8, -179.9)))
print("contains (-17.8, 0.0):", bool(fiji.contains(-17.8, 0.0)))

# 5. Coarser levels mean fewer, larger cells. The covering grows by
# roughly 4x per level once the rect spans many cells.
for level in (6, 8, 10, 11):
    print(f"level {level:2d}: {cover_rect_raw(rect, level).size} cells")

# 6. Many rectangles are covered in one pass: cover_rects_raw refines the
# boundary cells of every rect together and emits cells lying wholly
# inside a rect as one range of curve positions, without refining them.
# Each result equals the rect's own covering.
rects = [rect, fiji, GeoRect(-20.0, -18.5, 46.0, 48.0), GeoRect(64.0, 66.0, -20.0, -17.0)]
together = cover_rects_raw(rects, level=11)
alone = [cover_rect_raw(r, level=11) for r in rects]
print(f"\n{len(rects)} rects in one pass -> {[c.size for c in together]} level 11 cells")
print("equal to the per-rect coverings:",
      all(np.array_equal(t, a) for t, a in zip(together, alone)))
