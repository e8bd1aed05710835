"""Feature pipeline tests: encoding totality, standardization, vocab
behavior, shard partition, and artifact round trips."""

import numpy as np
import pytest
from smallworld import SMALL

from cellsearch.datagen import Destination, SearchEvent
from cellsearch.errors import DataError
from cellsearch.features import (
    CONTINUOUS_FEATURES,
    DEFAULT_CELL_LEVELS,
    SHARDS,
    categorical_raw_values,
    destination_cells,
    encode_events,
    fit_pipeline,
    load_pipeline,
    save_pipeline,
    shard_of,
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
    values = categorical_raw_values(
        _mkevent(), dest, destination_cells(dest, DEFAULT_CELL_LEVELS)
    )
    for k, level in enumerate(DEFAULT_CELL_LEVELS):
        assert values[k] == int(cell_from_latlng(0.0, 0.0, level))
    assert values[len(DEFAULT_CELL_LEVELS):] == ("city", "FR", "FR", "ios_app", "1", "0")


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
            assert shard_of(world.destinations[int(did)]) == shard


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
    batch = enc[shard_of(dest)]
    col = fitted.categorical_names.index("origin_country")
    assert batch.categorical[0, col] == 0


def test_vocab_indices_dense_and_sorted(fitted):
    for name, vocab in fitted.vocabs.items():
        idx = sorted(vocab.values())
        assert idx == list(range(1, len(vocab) + 1))
        values = sorted(vocab, key=lambda v: vocab[v])
        assert values == sorted(values)


def test_vocab_sizes_include_unknown_row(fitted):
    sizes = fitted.vocab_sizes()
    for name, vocab in fitted.vocabs.items():
        assert sizes[name] == len(vocab) + 1


def test_pipeline_save_load_round_trip(tmp_path, fitted):
    path = tmp_path / "pipeline.json"
    save_pipeline(path, fitted)
    loaded = load_pipeline(path)
    assert loaded.cell_levels == fitted.cell_levels
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
