"""Shared fixtures: one small generated dataset reused across test modules."""

import pytest
from smallworld import SMALL

from cellsearch.datagen import generate_dataset


@pytest.fixture(scope="session")
def small_dataset():
    return generate_dataset(SMALL)
