"""Label vocabulary: the per-shard class space of booked level-11 cells.

The classifier's output classes are exactly the distinct booked cells of a
shard's training events, sorted ascending; the full level-11 grid (25M
cells) never materializes. Lookups of cells outside the vocabulary return
-1; so do ids that are not valid retrieval-level cells, since no class
equals one.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, named
from .s2geom import num_cells_at_level, valid_at_level

# The grid level that classes, listing postings and rectangle coverings
# share; every module that works at that level imports it from here.
RETRIEVAL_LEVEL = 11


def retrieval_cell_mask(raws) -> np.ndarray:
    """Which raw uint64 ids are valid retrieval-level cells (the s2geom
    rule, valid_at_level, bound to RETRIEVAL_LEVEL)."""
    return valid_at_level(raws, RETRIEVAL_LEVEL)


def is_retrieval_cell(raw: int) -> bool:
    """True when the int raw is a valid cell id at the retrieval level."""
    return 0 <= raw < 1 << 64 and bool(retrieval_cell_mask(raw))


class LabelVocabulary:
    """Sorted class list for one shard; lookup_array maps cells back."""

    def __init__(self, shard: str, classes: np.ndarray):
        if classes.size == 0:
            raise DataError(f"shard {shard!r} has no booked cells")
        if not retrieval_cell_mask(classes).all():
            raise DataError("vocabulary cells must be valid retrieval-level cell ids")
        self.shard = shard
        self.classes = np.unique(classes.astype(np.uint64))

    def __len__(self) -> int:
        return int(self.classes.size)

    def lookup_array(self, cells) -> np.ndarray:
        """Class index of each cell; -1 marks absent (including invalid ids)."""
        cells = np.asarray(cells, dtype=np.uint64)
        pos_c = np.clip(np.searchsorted(self.classes, cells), 0, self.classes.size - 1)
        hit = self.classes[pos_c] == cells
        return np.where(hit, pos_c, -1).astype(np.int64)

    def cell_of(self, index: int) -> int:
        return int(self.classes[index])

    def reduction_ratio(self) -> float:
        """Vocabulary size relative to the full retrieval-level grid."""
        return len(self) / num_cells_at_level(RETRIEVAL_LEVEL)


def build_vocab(shard: str, booked_cells) -> LabelVocabulary:
    """Vocabulary from a shard's training booked cells."""
    cells = np.asarray(booked_cells, dtype=np.uint64)
    if cells.size == 0:
        raise DataError(f"shard {shard!r} has no training events")
    return LabelVocabulary(shard, cells)


def save_vocab(path, vocab: LabelVocabulary):
    """One decimal cell id per line; line number is the class index."""
    with open(path, "w") as f:
        for c in vocab.classes.tolist():
            f.write(f"{c}\n")


def load_vocab(path, shard: str) -> LabelVocabulary:
    try:
        with open(path) as f:
            cells = np.array([int(line) for line in f if line.strip()], dtype=np.uint64)
    except (ValueError, OverflowError) as exc:
        raise DataError(f"vocabulary file {path} holds a line that is not a cell id: {exc}") from None
    if not cells.size:
        raise DataError(f"empty vocabulary file {path}")
    with named(path):
        vocab = LabelVocabulary(shard, cells)
    if vocab.classes.size != cells.size or not np.array_equal(vocab.classes, cells):
        raise DataError(f"vocabulary file {path} not sorted and unique")
    return vocab
