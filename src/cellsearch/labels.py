"""Label vocabulary: the per-shard class space of booked level-11 cells.

The classifier's output classes are exactly the distinct booked cells of a
shard's training events, sorted ascending; the full level-11 grid (25M
cells) never materializes. Lookups of cells outside the vocabulary, or of
cells at the wrong level, return None (with a diagnostics counter for the
level mismatches).
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .s2geom import is_valid_raw, num_cells_at_level

# The grid level that classes, listing postings and rectangle coverings
# share; every module that works at that level imports it from here.
RETRIEVAL_LEVEL = 11
_SENTINEL = 1 << (60 - 2 * RETRIEVAL_LEVEL)
_LOW_MASK = _SENTINEL - 1


def is_retrieval_level_raw(raws) -> np.ndarray:
    """Vectorized check that raw ids sit exactly at the retrieval level."""
    raws = np.asarray(raws, dtype=np.uint64)
    sent = np.uint64(_SENTINEL)
    low = np.uint64(_LOW_MASK)
    return ((raws & sent) != 0) & ((raws & low) == 0)


def is_retrieval_cell(raw: int) -> bool:
    """True when the int raw is a valid cell id at the retrieval level."""
    return is_valid_raw(raw) and raw & -raw == _SENTINEL


class LabelVocabulary:
    """Sorted class list plus reverse index for one shard."""

    def __init__(self, shard: str, classes: np.ndarray):
        if classes.size == 0:
            raise DataError(f"shard {shard!r} has no booked cells")
        if not is_retrieval_level_raw(classes).all():
            raise DataError("vocabulary cells must be at the retrieval level")
        self.shard = shard
        self.classes = np.sort(np.unique(classes.astype(np.uint64)))
        self._index = {int(c): i for i, c in enumerate(self.classes)}
        self.diagnostics = {"non_retrieval_level_lookups": 0}

    def __len__(self) -> int:
        return int(self.classes.size)

    def lookup(self, cell) -> int | None:
        """Class index of a cell, or None if absent. Wrong-level cells are
        counted in diagnostics and reported absent."""
        raw = int(cell)
        if not (raw & _SENTINEL) or (raw & _LOW_MASK):
            self.diagnostics["non_retrieval_level_lookups"] += 1
            return None
        return self._index.get(raw)

    def lookup_array(self, cells) -> np.ndarray:
        """Vectorized lookup; -1 marks absent (including wrong level)."""
        cells = np.asarray(cells, dtype=np.uint64)
        ok_level = is_retrieval_level_raw(cells)
        self.diagnostics["non_retrieval_level_lookups"] += int(
            (~ok_level).sum()
        )
        pos = np.searchsorted(self.classes, cells)
        pos_c = np.clip(pos, 0, self.classes.size - 1)
        hit = ok_level & (self.classes[pos_c] == cells)
        return np.where(hit, pos_c, -1).astype(np.int64)

    def cell_of(self, index: int) -> int:
        return int(self.classes[index])

    def reduction_ratio(self) -> float:
        """Vocabulary size relative to the full retrieval-level grid."""
        return len(self) / num_cells_at_level(RETRIEVAL_LEVEL)

    def overlap(self, other: "LabelVocabulary") -> int:
        """Number of classes shared with another shard's vocabulary."""
        return int(np.isin(self.classes, other.classes).sum())


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
    vocab = LabelVocabulary(shard, cells)
    if vocab.classes.size != cells.size or not np.array_equal(vocab.classes, cells):
        raise DataError(f"vocabulary file {path} not sorted and unique")
    return vocab
