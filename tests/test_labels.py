"""Label vocabulary tests: sorted class space, lookups, diagnostics,
coverage accounting, persistence."""

import numpy as np
import pytest
from smallworld import SMALL

from cellsearch.errors import DataError
from cellsearch.features import encode_events, fit_pipeline
from cellsearch.labels import (
    LabelVocabulary,
    build_vocab,
    load_vocab,
    save_vocab,
)
from cellsearch.s2geom import cell_from_latlng, num_cells_at_level


@pytest.fixture(scope="module")
def shard_batches(small_dataset):
    world, train, _ = small_dataset
    pipe = fit_pipeline(train, world.destinations)
    return encode_events(train, world.destinations, pipe)


def test_classes_sorted_unique(shard_batches):
    for shard, batch in shard_batches.items():
        vocab = build_vocab(shard, batch.booked_cells)
        assert np.all(np.diff(vocab.classes.astype(np.int64)) > 0)
        assert set(vocab.classes.tolist()) == set(batch.booked_cells.tolist())


def test_train_coverage_complete(shard_batches):
    # in-vocab + dropped == total, and dropped == 0 on the fitting data.
    for shard, batch in shard_batches.items():
        vocab = build_vocab(shard, batch.booked_cells)
        idx = vocab.lookup_array(batch.booked_cells)
        dropped = int((idx < 0).sum())
        assert dropped == 0
        assert (idx >= 0).sum() + dropped == len(batch)


def test_lookup_and_reverse(shard_batches):
    shard, batch = next(iter(shard_batches.items()))
    vocab = build_vocab(shard, batch.booked_cells)
    for cell in batch.booked_cells[:50].tolist():
        i = vocab.lookup(cell)
        assert i is not None
        assert vocab.cell_of(i) == cell
    # A valid level-11 cell that was never booked: Null Island is ocean.
    missing = int(cell_from_latlng(0.0, 0.0, 11))
    if missing not in set(batch.booked_cells.tolist()):
        assert vocab.lookup(missing) is None


def test_wrong_level_lookup_counts_diagnostics(shard_batches):
    shard, batch = next(iter(shard_batches.items()))
    vocab = build_vocab(shard, batch.booked_cells)
    coarse = int(cell_from_latlng(10.0, 10.0, 7))
    before = vocab.diagnostics["non_retrieval_level_lookups"]
    assert vocab.lookup(coarse) is None
    assert vocab.diagnostics["non_retrieval_level_lookups"] == before + 1
    arr = vocab.lookup_array(np.array([coarse, coarse], dtype=np.uint64))
    assert np.all(arr == -1)
    assert vocab.diagnostics["non_retrieval_level_lookups"] == before + 3


def test_lookup_array_matches_scalar(shard_batches):
    shard, batch = next(iter(shard_batches.items()))
    vocab = build_vocab(shard, batch.booked_cells)
    probes = np.concatenate(
        [
            batch.booked_cells[:20],
            np.array([int(cell_from_latlng(0, 0, 11))], dtype=np.uint64),
        ]
    )
    arr = vocab.lookup_array(probes)
    for k, cell in enumerate(probes.tolist()):
        scalar = vocab.lookup(cell)
        assert (scalar if scalar is not None else -1) == arr[k]


def test_empty_shard_rejected():
    with pytest.raises(DataError):
        build_vocab("EU", np.empty(0, dtype=np.uint64))


def test_wrong_level_classes_rejected(tmp_path):
    coarse = int(cell_from_latlng(0, 0, 7))
    face7 = 7 << 61 | 1 << 38  # the level-11 sentinel on a face that does not exist
    for raw in (coarse, face7):
        with pytest.raises(DataError):
            LabelVocabulary("EU", np.array([raw], dtype=np.uint64))
    path = tmp_path / "vocab_EU.txt"
    path.write_text(f"{face7}\n")
    with pytest.raises(DataError, match="vocab_EU.txt"):
        load_vocab(path, "EU")


def test_save_load_round_trip(tmp_path, shard_batches):
    shard, batch = next(iter(shard_batches.items()))
    vocab = build_vocab(shard, batch.booked_cells)
    path = tmp_path / "vocab.txt"
    save_vocab(path, vocab)
    loaded = load_vocab(path, shard)
    np.testing.assert_array_equal(loaded.classes, vocab.classes)
    # Line number is the class index.
    lines = path.read_text().splitlines()
    assert int(lines[3]) == vocab.cell_of(3)


def test_unsorted_vocab_file_rejected(tmp_path, shard_batches):
    shard, batch = next(iter(shard_batches.items()))
    vocab = build_vocab(shard, batch.booked_cells)
    path = tmp_path / "bad.txt"
    cells = vocab.classes.tolist()
    cells[0], cells[1] = cells[1], cells[0]
    path.write_text("".join(f"{c}\n" for c in cells))
    with pytest.raises(DataError):
        load_vocab(path, shard)


def test_reduction_ratio_far_below_full_grid(shard_batches):
    for shard, batch in shard_batches.items():
        vocab = build_vocab(shard, batch.booked_cells)
        assert vocab.reduction_ratio() < 1e-2
        assert len(vocab) < num_cells_at_level(11)


def test_shard_overlap_counts(shard_batches):
    vocabs = {
        s: build_vocab(s, b.booked_cells) for s, b in shard_batches.items()
    }
    names = list(vocabs)
    for a in names:
        assert vocabs[a].overlap(vocabs[a]) == len(vocabs[a])
        for b in names:
            got = vocabs[a].overlap(vocabs[b])
            want = len(
                set(vocabs[a].classes.tolist()) & set(vocabs[b].classes.tolist())
            )
            assert got == want
