"""Retrieval-level cell index over a listing store.

Postings cover active listings only: every active listing appears in
exactly one posting (its retrieval-level cell), so posting lengths sum
to the active-listing count. Inactive listings are reachable through a
linear scan fallback (active_only=False), never through postings.

Retrieval semantics:
  * retrieve_cells: listings whose cell is in the query set, with
    capacity >= num_guests.
  * retrieve_rect: cover the rect with retrieval-level cells, pull the
    postings, then post-filter to listings whose exact point lies in
    the rect. The covering is a superset of every intersecting cell, so
    the post-filter makes the result exact.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, data_file
from .labels import RETRIEVAL_LEVEL, is_retrieval_level_raw
from .s2geom import GeoRect, cells_from_latlng_vec, cover_rect_raw

INDEX_MAGIC = "cellindex"
INDEX_VERSION = 1


class ListingIndex:
    """Immutable cell postings plus the backing listing arrays."""

    def __init__(self, listing_ids, lats, lngs, capacities, active, cells):
        # Keep the store sorted by listing id so id -> row is a binary
        # search everywhere below.
        base = np.argsort(listing_ids, kind="stable")
        listing_ids = listing_ids[base]
        lats, lngs = lats[base], lngs[base]
        capacities, active, cells = capacities[base], active[base], cells[base]
        self.listing_ids = listing_ids
        self.lats = lats
        self.lngs = lngs
        self.capacities = capacities
        self.active = active
        self.cells = cells
        order = np.lexsort((listing_ids[active], cells[active]))
        active_ids = listing_ids[active][order]
        active_cells = cells[active][order]
        self.posting_cells, starts = np.unique(active_cells, return_index=True)
        self.posting_offsets = np.append(starts, active_cells.size).astype(np.int64)
        self.posting_ids = active_ids
        self._posting_rows = np.flatnonzero(active)[order]
        # Capacities sorted within each posting, for count queries.
        self._posting_caps = np.empty(active_ids.size, dtype=np.int64)
        caps = capacities[active][order]
        for k in range(self.posting_cells.size):
            lo, hi = self.posting_offsets[k], self.posting_offsets[k + 1]
            self._posting_caps[lo:hi] = np.sort(caps[lo:hi])

    @classmethod
    def build(cls, listings, cells=None) -> "ListingIndex":
        """Index a listing store; cells may be precomputed to skip the
        geometry pass."""
        if not listings:
            raise DataError("cannot index an empty listing store")
        ids = np.array([l.listing_id for l in listings], dtype=np.int64)
        if np.unique(ids).size != ids.size:
            raise DataError("duplicate listing ids")
        lats = np.array([l.lat for l in listings], dtype=np.float64)
        lngs = np.array([l.lng for l in listings], dtype=np.float64)
        caps = np.array([l.capacity for l in listings], dtype=np.int64)
        active = np.array([l.active for l in listings], dtype=bool)
        if cells is None:
            cells = cells_from_latlng_vec(lats, lngs, RETRIEVAL_LEVEL)
        cells = np.asarray(cells, dtype=np.uint64)
        if cells.size != ids.size:
            raise DataError("cells and listings disagree in length")
        return cls(ids, lats, lngs, caps, active, cells)

    @property
    def n_listings(self) -> int:
        return self.listing_ids.size

    @property
    def n_active(self) -> int:
        return int(self.active.sum())

    def posting(self, cell) -> np.ndarray:
        """Active listing ids in one retrieval-level cell."""
        cell = np.uint64(cell)
        k = int(np.searchsorted(self.posting_cells, cell))
        if k == self.posting_cells.size or self.posting_cells[k] != cell:
            return np.empty(0, dtype=np.int64)
        return self.posting_ids[self.posting_offsets[k] : self.posting_offsets[k + 1]]

    def posting_rows(self, cells) -> np.ndarray:
        """Store rows of the active listings posted under the given
        sorted, distinct cells."""
        cells = np.asarray(cells, dtype=np.uint64)
        n = self.posting_cells.size
        if n == 0:
            return np.empty(0, dtype=np.int64)
        k = np.searchsorted(self.posting_cells, cells)
        k = k[(k < n) & (self.posting_cells[np.minimum(k, n - 1)] == cells)]
        starts = self.posting_offsets[k]
        lengths = self.posting_offsets[k + 1] - starts
        # Concatenate the posting slices: row t of the output is entry
        # t - (output offset of its slice) + (start of its slice).
        shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        return self._posting_rows[shift + np.arange(shift.size)]

    def _scan(self, cell_set, num_guests) -> np.ndarray:
        mask = np.isin(self.cells, cell_set) & (self.capacities >= num_guests)
        return np.sort(self.listing_ids[mask])

    def retrieve_cells(self, cells, num_guests: int = 1, active_only: bool = True):
        """Sorted listing ids in any of the cells, capacity-filtered."""
        if isinstance(cells, (set, frozenset)):
            cells = sorted(cells)
        query = np.unique(np.asarray(cells, dtype=np.uint64))
        retrieval_level = is_retrieval_level_raw(query) & (
            (query >> np.uint64(61)) < np.uint64(6)
        )
        if query.size and not bool(np.all(retrieval_level)):
            raise DataError("query cells must be valid retrieval-level ids")
        if not active_only:
            return self._scan(query, num_guests)
        if self.posting_cells.size == 0 or query.size == 0:
            return np.empty(0, dtype=np.int64)
        k = np.searchsorted(self.posting_cells, query)
        found = (k < self.posting_cells.size) & (
            self.posting_cells[np.minimum(k, self.posting_cells.size - 1)] == query
        )
        k = k[found]
        if k.size == 0:
            return np.empty(0, dtype=np.int64)
        chunks = [
            self.posting_ids[self.posting_offsets[i] : self.posting_offsets[i + 1]]
            for i in k
        ]
        ids = np.concatenate(chunks)
        if num_guests > 1:
            pos = np.searchsorted(self.listing_ids, ids)
            ids = ids[self.capacities[pos] >= num_guests]
        return np.sort(ids)

    def retrieve_rect(
        self,
        rect: GeoRect,
        num_guests: int = 1,
        active_only: bool = True,
    ) -> np.ndarray:
        """Sorted listing ids whose point lies inside the rect."""
        covering = cover_rect_raw(rect, RETRIEVAL_LEVEL)
        ids = self.retrieve_cells(covering, num_guests=num_guests, active_only=active_only)
        if ids.size == 0:
            return ids
        pos = np.searchsorted(self.listing_ids, ids)
        keep = rect.contains(self.lats[pos], self.lngs[pos])
        return ids[keep]

    def capacity_count_table(self, cells, max_guests: int) -> np.ndarray:
        """counts[i, g] = active listings in cells[i] with capacity >= g,
        for g in 0..max_guests. Cells absent from the postings give 0."""
        cells = np.asarray(cells, dtype=np.uint64)
        thresholds = np.arange(max_guests + 1)
        table = np.zeros((cells.size, max_guests + 1), dtype=np.int64)
        k = np.searchsorted(self.posting_cells, cells)
        for row, (cell, i) in enumerate(zip(cells, k)):
            if i == self.posting_cells.size or self.posting_cells[i] != cell:
                continue
            lo, hi = self.posting_offsets[i], self.posting_offsets[i + 1]
            caps = self._posting_caps[lo:hi]
            table[row] = caps.size - np.searchsorted(caps, thresholds, side="left")
        return table


def save_index(path, index: ListingIndex, listings_ref: str):
    """Write the postings as text: one 'cell count ids...' line per cell."""
    if "\n" in listings_ref or " " in listings_ref:
        raise DataError("listings_ref must be a single token")
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{INDEX_MAGIC} {INDEX_VERSION}\n")
        f.write(f"listings {listings_ref}\n")
        f.write(f"cells {index.posting_cells.size}\n")
        for k in range(index.posting_cells.size):
            lo, hi = index.posting_offsets[k], index.posting_offsets[k + 1]
            ids = " ".join(str(i) for i in index.posting_ids[lo:hi])
            f.write(f"{index.posting_cells[k]} {hi - lo} {ids}\n")


def load_index(path, listings) -> tuple[ListingIndex, str]:
    """Rebuild an index from its postings file plus the listing store.

    Returns (index, listings_ref). The postings are validated against a
    fresh index built from the listings; any disagreement is an error.
    """
    index = ListingIndex.build(listings)
    with open(path, "r", encoding="utf-8", errors="replace") as f, data_file(path):
        head = f.readline().split()
        if head != [INDEX_MAGIC, str(INDEX_VERSION)]:
            raise DataError("not a recognized index file")
        ref_line = f.readline().split()
        if len(ref_line) != 2 or ref_line[0] != "listings":
            raise DataError("index file is missing the listings line")
        count_line = f.readline().split()
        if len(count_line) != 2 or count_line[0] != "cells" or not count_line[1].isdecimal():
            raise DataError("index file is missing the cell count")
        n_cells = int(count_line[1])
        if n_cells != index.posting_cells.size:
            raise DataError(
                f"index file has {n_cells} cells, listings imply "
                f"{index.posting_cells.size}"
            )
        for k in range(n_cells):
            parts = f.readline().split()
            if len(parts) < 2:
                raise DataError(f"truncated posting line {k}")
            try:
                cell = np.uint64(parts[0])
                count = int(parts[1])
                ids = np.array(parts[2:], dtype=np.int64)
            except (ValueError, OverflowError):
                raise DataError(f"posting line {k} does not parse") from None
            if ids.size != count:
                raise DataError(f"posting {parts[0]} count disagrees with ids")
            if cell != index.posting_cells[k]:
                raise DataError(f"posting {parts[0]} does not match the listings")
            lo, hi = index.posting_offsets[k], index.posting_offsets[k + 1]
            if not np.array_equal(ids, index.posting_ids[lo:hi]):
                raise DataError(f"posting {parts[0]} ids do not match the listings")
    return index, ref_line[1]
