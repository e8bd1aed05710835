"""The criterion-10 configs: the small generated dataset, shared by
conftest's fixtures and by the tests that check counts against it, and
the brief classifier and bounds fits of the small stack."""

from cellsearch.baseline import BoundsConfig
from cellsearch.datagen import GenConfig
from cellsearch.model import TrainConfig

SMALL = GenConfig(
    seed=11,
    n_destinations=8,
    n_listings=2400,
    n_train_events=4000,
    n_eval_events=600,
)
SMALL_TRAIN = TrainConfig(embed_dim=8, hidden=(32, 16), epochs=2, batch_size=32, num_negatives=16, seed=5)
SMALL_BOUNDS = BoundsConfig(embed_dim=8, hidden=(32, 16), epochs=2, batch_size=256, seed=5)
