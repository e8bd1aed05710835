"""Feature pipeline tests: encoding totality, standardization, vocab
behavior, shard partition, and artifact round trips."""

import json
from dataclasses import fields

import numpy as np
import pytest

from cellsearch.datagen import Destination, SearchEvent
from cellsearch.errors import DataError
from cellsearch.features import (
    CATEGORICAL_FEATURES,
    CELL_LEVELS,
    CONTINUOUS_FEATURES,
    SHARDS,
    EncodedBatch,
    encode_events,
    fit_pipeline,
    load_pipeline,
    save_pipeline,
)
from cellsearch.s2geom import cell_from_latlng


@pytest.fixture(scope="module")
def fitted(small_dataset):
    world, train, _ = small_dataset
    return fit_pipeline(train, world.destinations)


def _mkdest(dest_id=0, lat=0.0, lng=0.0, continent="EU"):
    return Destination(
        dest_id=dest_id,
        name=f"dest{dest_id:03d}",
        lat=lat,
        lng=lng,
        dest_type="city",
        country="FR",
        continent=continent,
        bounds_diagonal_km=10.0,
        clusters=(),
    )


def _mkevent(dest_id=0, origin="FR", search_id=0):
    return SearchEvent(
        search_id=search_id,
        dest_id=dest_id,
        origin_country=origin,
        num_guests=2,
        is_mobile_app=True,
        device_type="ios_app",
        trip_length_nights=3,
        is_weekend=False,
        booked_listing_id=1,
        booked_cell=int(cell_from_latlng(0.0, 0.0, 11)),
        is_outlier=False,
    )


def test_cell_features_of_origin_destination():
    dest = _mkdest()
    pipe = fit_pipeline([_mkevent()], [dest])
    batch = encode_events([_mkevent()], [dest], pipe)["EU"]
    cells = tuple(int(cell_from_latlng(0.0, 0.0, level)) for level in CELL_LEVELS)
    raw = cells + ("city", "FR", "FR", "ios_app", "1", "0")
    # One event fits a one-value vocabulary per feature, so each encoded
    # index is 1 and each vocabulary holds exactly the raw value.
    assert [pipe.vocabs[name] for name in CATEGORICAL_FEATURES] == [{v: 1} for v in raw]
    assert batch.categorical.tolist() == [[1] * len(CATEGORICAL_FEATURES)]
    assert CATEGORICAL_FEATURES[: len(CELL_LEVELS)] == ("dest_cell_l4", "dest_cell_l7", "dest_cell_l11")


def test_encoding_total_and_sharded(small_dataset, fitted):
    world, train, ev = small_dataset
    enc = encode_events(train + ev, world.destinations, fitted)
    assert set(enc) == set(SHARDS)
    total = sum(len(b) for b in enc.values())
    assert total == len(train) + len(ev)
    all_ids = np.concatenate([b.search_ids for b in enc.values()])
    assert np.unique(all_ids).size == total
    for shard, batch in enc.items():
        assert batch.categorical.min() >= 0
        for did in np.unique(batch.dest_ids):
            assert world.destinations[int(did)].continent == shard


def test_single_event_encoding_matches_batch(small_dataset, fitted):
    # Serving encodes one search at a time; each such encoding must equal
    # that search's row of the batch encoding, field for field and dtype
    # for dtype, and leave the other shards empty.
    world, _, ev = small_dataset
    batches = encode_events(ev, world.destinations, fitted)
    seen = {s: 0 for s in SHARDS}
    for event in ev:
        alone = encode_events([event], world.destinations, fitted)
        assert list(alone) == list(SHARDS)
        (shard,) = [s for s, b in alone.items() if len(b) == 1]
        row = seen[shard]
        seen[shard] += 1
        for s, batch in alone.items():
            want = batches[s].take(slice(row, row + 1) if s == shard else slice(0, 0))
            assert batch.shard == want.shard == s
            for f in fields(EncodedBatch)[1:]:
                np.testing.assert_array_equal(
                    getattr(batch, f.name), getattr(want, f.name), err_msg=f.name, strict=True
                )
    assert seen == {s: len(b) for s, b in batches.items()}


def test_train_features_standardized(small_dataset, fitted):
    world, train, _ = small_dataset
    enc = encode_events(train, world.destinations, fitted)
    cont = np.concatenate([b.continuous for b in enc.values()])
    np.testing.assert_allclose(cont.mean(axis=0), 0.0, atol=1e-9)
    np.testing.assert_allclose(cont.std(axis=0), 1.0, atol=1e-9)


def test_constant_feature_keeps_unit_std():
    dest = _mkdest()
    events = [_mkevent(search_id=k) for k in range(10)]  # all identical
    pipe = fit_pipeline(events, [dest])
    assert np.all(pipe.continuous_std == 1.0)
    enc = encode_events(events, [dest], pipe)
    assert np.all(enc["EU"].continuous == 0.0)


def test_unknown_category_maps_to_zero(small_dataset, fitted):
    world, _, _ = small_dataset
    dest = world.destinations[0]
    novel = SearchEvent(
        search_id=10**6,
        dest_id=dest.dest_id,
        origin_country="ZZ",  # never generated
        num_guests=2,
        is_mobile_app=False,
        device_type="desktop_web",
        trip_length_nights=2,
        is_weekend=True,
        booked_listing_id=1,
        booked_cell=int(cell_from_latlng(dest.lat, dest.lng, 11)),
        is_outlier=False,
    )
    enc = encode_events([novel], world.destinations, fitted)
    batch = enc[dest.continent]
    col = CATEGORICAL_FEATURES.index("origin_country")
    assert batch.categorical[0, col] == 0


def test_vocab_indices_dense_and_sorted(fitted):
    for name, vocab in fitted.vocabs.items():
        idx = sorted(vocab.values())
        assert idx == list(range(1, len(vocab) + 1))
        values = sorted(vocab, key=lambda v: vocab[v])
        assert values == sorted(values)


def test_vocab_sizes_include_unknown_row(fitted):
    sizes = fitted.vocab_sizes()
    assert tuple(sizes) == CATEGORICAL_FEATURES
    for name, vocab in fitted.vocabs.items():
        assert sizes[name] == len(vocab) + 1


def test_pipeline_save_load_round_trip(tmp_path, fitted):
    path = tmp_path / "pipeline.json"
    save_pipeline(path, fitted)
    loaded = load_pipeline(path)
    assert json.loads(path.read_text())["cell_levels"] == list(CELL_LEVELS)
    np.testing.assert_array_equal(loaded.continuous_mean, fitted.continuous_mean)
    np.testing.assert_array_equal(loaded.continuous_std, fitted.continuous_std)
    assert loaded.vocabs == fitted.vocabs


def test_no_eval_leakage_artifact_stable(tmp_path, small_dataset):
    world, train, _ = small_dataset
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_pipeline(a, fit_pipeline(train, world.destinations))
    save_pipeline(b, fit_pipeline(list(train), world.destinations))
    assert a.read_bytes() == b.read_bytes()


def test_fit_requires_events():
    with pytest.raises(DataError):
        fit_pipeline([], [])


def test_continuous_feature_order():
    assert CONTINUOUS_FEATURES == (
        "num_guests",
        "trip_length_nights",
        "bounds_diagonal_km",
    )
