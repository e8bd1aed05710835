"""The small generated dataset's config, shared by conftest's fixture and
by the tests that check counts against it."""

from cellsearch.datagen import GenConfig

SMALL = GenConfig(
    seed=11,
    n_destinations=8,
    n_listings=2400,
    n_train_events=4000,
    n_eval_events=600,
)
