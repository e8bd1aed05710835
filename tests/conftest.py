"""Shared fixtures: one small generated dataset and the stack fitted on
it, reused across test modules."""

import pytest
from smallworld import SMALL, SMALL_BOUNDS, SMALL_TRAIN

from cellsearch.cli import fit_stack
from cellsearch.datagen import generate_dataset
from cellsearch.features import encode_events
from cellsearch.index import ListingIndex


@pytest.fixture(scope="session")
def small_dataset():
    return generate_dataset(SMALL)


@pytest.fixture(scope="session")
def stack(small_dataset):
    """(world, pipeline, eval_batches, models, bmodel, index) of the small
    dataset, fitted the way `cellsearch train` fits it."""
    world, train_events, eval_events = small_dataset
    pipeline, _, models, bmodel = fit_stack(SMALL_TRAIN, SMALL_BOUNDS, world, train_events)
    eval_batches = encode_events(eval_events, world.destinations, pipeline)
    return world, pipeline, eval_batches, models, bmodel, ListingIndex.build(world.listings)
