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
from .labels import RETRIEVAL_LEVEL, retrieval_cell_mask
from .s2geom import GeoRect, cover_rect_raw

INDEX_MAGIC = "cellindex"
INDEX_VERSION = 1


class ListingIndex:
    """Immutable cell postings over a listing store (datagen.ListingStore:
    columns sorted by listing id, each listing's cell included)."""

    def __init__(self, listings):
        self.listings = listings
        # Active rows grouped by cell; rows are in id order, so the stable
        # sort keeps each posting in id order.
        rows = np.flatnonzero(listings.active)
        rows = rows[np.argsort(listings.cells[rows], kind="stable")]
        self.posting_cells, starts = np.unique(listings.cells[rows], return_index=True)
        self.posting_offsets = np.append(starts, rows.size).astype(np.int64)
        self._posting_rows = rows

    @classmethod
    def build(cls, listings) -> "ListingIndex":
        """Index a listing store."""
        if len(listings) == 0:
            raise DataError("cannot index an empty listing store")
        return cls(listings)

    @property
    def n_active(self) -> int:
        return int(self._posting_rows.size)

    @property
    def posting_ids(self) -> np.ndarray:
        """Listing ids of every posting, concatenated in posting order."""
        return self.listings.ids[self._posting_rows]

    def posting(self, cell) -> np.ndarray:
        """Active listing ids in one retrieval-level cell."""
        return self.listings.ids[self.posting_rows([cell])]

    def posting_rows(self, cells) -> np.ndarray:
        """Store rows of the active listings posted under the given
        distinct cells, posting by posting in the order of cells."""
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

    def retrieve_cells(self, cells, num_guests: int = 1, active_only: bool = True):
        """Sorted listing ids in any of the cells, capacity-filtered."""
        if isinstance(cells, (set, frozenset)):
            cells = sorted(cells)
        query = np.unique(np.asarray(cells, dtype=np.uint64))
        if not retrieval_cell_mask(query).all():
            raise DataError("query cells must be valid retrieval-level ids")
        if active_only:
            rows = np.sort(self.posting_rows(query))
        else:
            rows = np.flatnonzero(np.isin(self.listings.cells, query))
        rows = rows[self.listings.capacities[rows] >= num_guests]
        return self.listings.ids[rows]

    def retrieve_rect(
        self,
        rect: GeoRect,
        num_guests: int = 1,
        active_only: bool = True,
    ) -> np.ndarray:
        """Sorted listing ids whose point lies inside the rect."""
        covering = cover_rect_raw(rect, RETRIEVAL_LEVEL)
        ids = self.retrieve_cells(covering, num_guests=num_guests, active_only=active_only)
        rows = np.searchsorted(self.listings.ids, ids)
        return ids[rect.contains(self.listings.lats[rows], self.listings.lngs[rows])]

    def capacity_count_table(self, cells, max_guests: int) -> np.ndarray:
        """counts[i, g] = active listings in cells[i] with capacity >= g,
        for g in 0..max_guests. Cells absent from the postings give 0."""
        query, back = np.unique(np.asarray(cells, dtype=np.uint64), return_inverse=True)
        rows = self.posting_rows(query)
        slot = np.searchsorted(query, self.listings.cells[rows])
        caps = np.minimum(self.listings.capacities[rows], max_guests)
        width = max_guests + 1
        hist = np.bincount(slot * width + caps, minlength=query.size * width)
        # Reverse cumulative sum over capacities: counts of capacity >= g.
        table = np.cumsum(hist.reshape(query.size, width)[:, ::-1], axis=1)[:, ::-1]
        return table[back]


def save_index(path, index: ListingIndex, listings_ref: str):
    """Write the postings as text: one 'cell count ids...' line per cell."""
    if "\n" in listings_ref or " " in listings_ref:
        raise DataError("listings_ref must be a single token")
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{INDEX_MAGIC} {INDEX_VERSION}\n")
        f.write(f"listings {listings_ref}\n")
        f.write(f"cells {index.posting_cells.size}\n")
        posting_ids = index.posting_ids
        for k in range(index.posting_cells.size):
            lo, hi = index.posting_offsets[k], index.posting_offsets[k + 1]
            ids = " ".join(str(i) for i in posting_ids[lo:hi])
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
        posting_ids = index.posting_ids
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
            if not np.array_equal(ids, posting_ids[lo:hi]):
                raise DataError(f"posting {parts[0]} ids do not match the listings")
    return index, ref_line[1]
