"""The benchmark's named workloads: one config document each, plus how
many searches each route serves and how often each stage runs.

`--seed` becomes `data.seed`, so the seed picks the marketplace and its
search logs; model initialisation keeps the package's fixed seeds. Every
workload keeps `patience` equal to `epochs`, so early stopping never cuts
a seed's training short and train time does not jump between seeds, and
keeps `train.num_negatives` well below the smallest pool of negatives a
shard offers at its scale.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

# A p95 needs at least 20 samples beyond it.
MIN_SEARCHES = 400
# Untimed searches per route before each slice of serving is timed.
WARMUP = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    data: dict
    train: dict
    bounds: dict
    searches: int = MIN_SEARCHES
    # `setup_s`, `train_s` and `evaluate_s` are medians of this many runs of
    # `gen`, `train` and `sweep` + `compare`. The repeats after the first
    # run between slices of serving, so the samples of every figure are
    # spread over the run; short stages repeat more, so that one fast or
    # slow spell of a shared machine does not set them.
    setup_repeats: int = 3
    train_repeats: int = 1
    evaluate_repeats: int = 1

    def repeats(self) -> list[str]:
        """The stage repeats after the first run of each, in run order, each
        placed at its share of the way through its own series."""
        jobs = [((k + 0.5) / (n - 1), stage)
                for stage, n in (("gen", self.setup_repeats), ("train", self.train_repeats),
                                 ("evaluate", self.evaluate_repeats))
                for k in range(n - 1)]
        return [stage for _, stage in sorted(jobs)]

    def document(self, seed: int, workdir: str) -> dict:
        """The cellsearch config document for one seed."""
        return copy.deepcopy(
            {
                "workdir": workdir,
                "data": dict(self.data, seed=seed),
                "train": self.train,
                "bounds": self.bounds,
            }
        )


def _brief(epochs: int, **extra) -> dict:
    return dict(epochs=epochs, patience=epochs, **extra)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="learn",
            why="many training searches and epochs with few evaluation searches: "
            "generation and model fitting dominate",
            data=dict(n_train_events=40_000, n_eval_events=MIN_SEARCHES),
            # Enough steps to move every shard's validation cross entropy
            # below ln K, not so many that the matched cutoff, a tail quantile
            # over ~130 searches a shard, swings from seed to seed.
            train=_brief(30, learning_rate=0.005, num_negatives=32),
            # One epoch keeps the rectangles near their initial size, so the
            # covering cost per search matches `evaluate` and stays alike
            # across seeds; longer fits grow or shrink them per destination.
            bounds=_brief(1),
            train_repeats=2,
            evaluate_repeats=2,
        ),
        Workload(
            name="evaluate",
            why="a briefly trained stack, many evaluation searches and five times the listings per "
            "destination: baseline evaluation, its coverings and the listing index dominate",
            data=dict(n_listings=150_000, n_train_events=12_000, n_eval_events=800),
            train=_brief(4, num_negatives=16),
            bounds=_brief(4),
            # Every evaluation search is served: the classifier route's p95
            # follows the tail of candidate counts, which over 400 searches
            # moved with the seed by about a tenth.
            searches=800,
            # train takes about two seconds here.
            train_repeats=5,
        ),
    )
}

# Seconds-scale config for the benchmark's own tests: every stage and both
# routes, but too few searches for a supported p95.
TINY = Workload(
    name="tiny",
    why="smoke test",
    data=dict(n_destinations=6, n_listings=1_500, n_train_events=3_000, n_eval_events=60),
    train=_brief(2, batch_size=128, num_negatives=8, hidden=[16, 16]),
    bounds=_brief(2, batch_size=128, hidden=[16, 16]),
    searches=30,
    train_repeats=2,
)
