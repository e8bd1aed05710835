"""Retrieval-level cell index over a listing store.

Postings cover active listings only: every active listing appears in
exactly one posting (its retrieval-level cell), so posting lengths sum
to the active-listing count. Inactive listings are reachable through a
linear scan fallback (active_only=False), never through postings.

The index holds each posting once, as store rows in capacity order,
largest first, ties in id order. The listings of a posting that seat g
guests are a prefix of it. Seat columns are ranked by capacity: column
j stands for `_levels[j]`, the j-th smallest distinct active capacity,
and `_seats[k, j]` is the length of posting k's prefix of capacity >=
`_levels[j]`; the last column is all zeros. A party of g guests reads
the column of the smallest level >= g. The postings file is rendered
from `posting_ids`, which puts each posting back in id order when read.
The postings, the levels and the prefix table are built once and are
read-only.

Retrieval semantics:
  * retrieve_cells: listings whose cell is in the query set, with
    capacity >= num_guests: the query postings' prefixes, sorted.
  * retrieve_rect: cover the rect with retrieval-level cells, pull the
    postings, then post-filter to listings whose exact point lies in
    the rect. The covering is a superset of every intersecting cell, so
    the post-filter makes the result exact.
  * capacity_count_table: prefix lengths, read from `_seats`, one
    column per given party.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, named
from .labels import RETRIEVAL_LEVEL, retrieval_cell_mask
from .s2geom import GeoRect, cover_rect_raw

INDEX_MAGIC = "cellindex"
INDEX_VERSION = 1


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a 1-d array, as np.unique gives them.
    Sorting and masking repeats is several times faster than np.unique,
    which hashes on numpy 2.4, on the cell arrays of queries and coverings."""
    values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


class ListingIndex:
    """Immutable cell postings over a listing store (datagen.ListingStore:
    columns sorted by listing id, each listing's cell included, capacities
    non-negative)."""

    def __init__(self, listings):
        self.listings = listings
        rows = np.flatnonzero(listings.active)
        self.posting_cells, posting = np.unique(listings.cells[rows], return_inverse=True)
        self.posting_offsets = np.append(0, np.cumsum(np.bincount(posting, minlength=self.posting_cells.size)))
        # One seat column per distinct active capacity, ranked ascending,
        # so the table's width does not depend on how large a capacity is.
        caps = listings.capacities[rows]
        self._levels = sorted_unique(caps)
        rank = np.searchsorted(self._levels, caps)
        width = self._levels.size + 1
        # Rows are in id order, so one stable sort on (posting, capacity
        # descending) keeps id order within each capacity.
        key = posting * width + (width - 1 - rank)
        self._by_capacity = rows[np.argsort(key, kind="stable")].astype(np.int32)
        # Reverse cumulative sum over ranks: counts of capacity >= level.
        hist = np.bincount(posting * width + rank, minlength=self.posting_cells.size * width)
        self._seats = np.cumsum(hist.reshape(-1, width)[:, ::-1], axis=1)[:, ::-1]

        for array in (self.posting_cells, self.posting_offsets, self._levels, self._by_capacity, self._seats):
            array.flags.writeable = False

    @classmethod
    def build(cls, listings) -> "ListingIndex":
        """Index a listing store."""
        if len(listings) == 0:
            raise DataError("cannot index an empty listing store")
        if (listings.capacities < 0).any():
            raise DataError("listing capacities must be non-negative")
        return cls(listings)

    @property
    def n_active(self) -> int:
        return int(self.posting_offsets[-1])

    @property
    def posting_ids(self) -> np.ndarray:
        """Listing ids of every posting, concatenated in posting order,
        each posting in id order."""
        n = len(self.listings)
        posting = np.repeat(np.arange(self.posting_cells.size), np.diff(self.posting_offsets))
        return self.listings.ids[np.sort(posting * n + self._by_capacity) % n]

    def _find(self, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each cell's posting number, and whether the cell has a posting."""
        k = np.searchsorted(self.posting_cells, cells)
        found = k < self.posting_cells.size
        found[found] = self.posting_cells[k[found]] == cells[found]
        return k, found

    def _slices(self, k: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """The first lengths[i] rows of posting k[i], concatenated in the
        order of k."""
        starts = self.posting_offsets[k]
        # Row t of the output is entry t - (output offset of its slice) +
        # (start of its slice).
        shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        return self._by_capacity[shift + np.arange(shift.size)]

    def seated_rows(self, cells, num_guests: int) -> np.ndarray:
        """Store rows of the active listings posted under the given
        distinct cells whose capacity is at least num_guests, posting by
        posting in the order of cells, largest capacity first."""
        cells = np.asarray(cells, dtype=np.uint64)
        k, found = self._find(cells)
        k = k[found]
        return self._slices(k, self._seats[k, np.searchsorted(self._levels, num_guests)])

    def retrieve_cells(self, cells, num_guests: int = 1, active_only: bool = True):
        """Sorted listing ids in any of the cells, capacity-filtered."""
        query = sorted_unique(np.asarray(cells, dtype=np.uint64))
        if not retrieval_cell_mask(query).all():
            raise DataError("query cells must be valid retrieval-level ids")
        if active_only:
            return self.listings.ids[np.sort(self.seated_rows(query, num_guests))]
        rows = np.flatnonzero(np.isin(self.listings.cells, query))
        rows = rows[self.listings.capacities[rows] >= num_guests]
        return self.listings.ids[rows]

    def retrieve_rect(self, rect: GeoRect, num_guests: int = 1) -> np.ndarray:
        """Sorted ids of the active listings whose point lies inside the
        rect, capacity-filtered."""
        covering = cover_rect_raw(rect, RETRIEVAL_LEVEL)
        ids = self.retrieve_cells(covering, num_guests=num_guests)
        rows = np.searchsorted(self.listings.ids, ids)
        return ids[rect.contains(self.listings.lats[rows], self.listings.lngs[rows])]

    def capacity_count_table(self, cells, parties) -> np.ndarray:
        """counts[i, j] = active listings in cells[i] with capacity >=
        parties[j], one column per given party. Cells absent from the
        postings, and parties larger than every capacity, give 0."""
        cells = np.asarray(cells, dtype=np.uint64)
        k, found = self._find(cells)
        columns = np.searchsorted(self._levels, parties)
        table = np.zeros((cells.size, columns.size), dtype=self._seats.dtype)
        table[found] = self._seats[k[found][:, None], columns]
        return table


def _render(index: ListingIndex, listings_ref: str) -> bytes:
    """The postings file: a header, then one 'cell count ids...' line per
    cell, in posting order."""
    if "\n" in listings_ref or " " in listings_ref:
        raise DataError("listings_ref must be a single token")
    ids = [str(i) for i in index.posting_ids.tolist()]
    offsets = index.posting_offsets.tolist()
    lines = [f"{INDEX_MAGIC} {INDEX_VERSION}", f"listings {listings_ref}", f"cells {len(offsets) - 1}"]
    for cell, lo, hi in zip(index.posting_cells.tolist(), offsets, offsets[1:]):
        lines.append(f"{cell} {hi - lo} " + " ".join(ids[lo:hi]))
    return ("\n".join(lines) + "\n").encode("utf-8")


def save_index(path, index: ListingIndex, listings_ref: str):
    """Write the postings file of the index."""
    rendered = _render(index, listings_ref)
    with open(path, "wb") as f:
        f.write(rendered)


def load_index(path, listings) -> tuple[ListingIndex, str]:
    """Index the listings and check the postings file against them.

    Returns (index, listings_ref), the ref read from the file's second
    line. The file must equal, byte for byte, what save_index writes for
    this index and ref.
    """
    index = ListingIndex.build(listings)
    with open(path, "rb") as f, named(path):
        raw = f.read()
        second_line = raw.partition(b"\n")[2].partition(b"\n")[0]
        ref = second_line.decode("utf-8", errors="replace").removeprefix("listings ")
        if raw != _render(index, ref):
            raise DataError("not the postings of the listings")
    return index, ref
