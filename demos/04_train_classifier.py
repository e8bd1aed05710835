"""
Training a per-shard cell classifier
====================================

Booked locations become level 11 grid cells; each geographic shard gets
its own vocabulary of cells seen in training and its own network. The
output layer is huge relative to the batch, so training uses a sampled
softmax: each step scores the positives against a drawn set of negative
classes instead of the whole vocabulary.
"""

import math

import numpy as np

from cellsearch.datagen import GenConfig, generate_dataset
from cellsearch.features import encode_events, fit_pipeline
from cellsearch.labels import build_vocab
from cellsearch.model import ShardModel, TrainConfig

# 1. A reduced world (see 03_synthetic_marketplace.py for the data story).
cfg = GenConfig(seed=11, n_destinations=8, n_listings=2400,
                n_train_events=4000, n_eval_events=600)
world, train_events, eval_events = generate_dataset(cfg)

# 2. The feature pipeline learns normalization stats and categorical
# vocabularies from training events only, then encodes per shard.
pipeline = fit_pipeline(train_events, world.destinations)
train_batches = encode_events(train_events, world.destinations, pipeline)
eval_batches = encode_events(eval_events, world.destinations, pipeline)
for shard, batch in train_batches.items():
    print(f"shard {shard}: {len(batch)} train events")

# 3. Pick one shard. Its label vocabulary is the sorted set of booked
# cells, a tiny slice of the full level 11 grid.
shard = "EU"
batch = train_batches[shard]
vocab = build_vocab(shard, batch.booked_cells)
print(f"\n{shard} vocabulary: {len(vocab)} classes "
      f"({vocab.reduction_ratio():.2e} of the grid)")

# 4. Train. num_negatives controls how many negative classes each step
# samples; the run holds out 10% of the training rows, logs train loss and
# their cross entropy per epoch and keeps the best-epoch weights.
tc = TrainConfig(embed_dim=8, hidden=(32, 16), epochs=3, batch_size=32,
                 num_negatives=16, seed=5)
model = ShardModel.build(tc, pipeline, vocab)
model.fit(batch)
for entry in model.train_log:
    print(f"epoch {entry['epoch']}: train {entry['train_loss']:.4f} "
          f"val ce {entry['val_ce']:.4f}")
print("best epoch:", model.best_epoch)

# 5. Predictions are a full probability distribution over the shard's
# classes. Rows sum to one up to float32 rounding.
probs = model.predict_probs(eval_batches[shard].take(np.arange(5)))
print(f"\nmax |row sum - 1|: {np.abs(probs.sum(axis=1) - 1).max():.1e}")
top = np.argsort(probs[0])[::-1][:3]
from cellsearch.s2geom import CellId

print("top cells for event 0:",
      [(CellId.from_raw(int(vocab.cell_of(i))).token(), f"{probs[0][i]:.3f}")
       for i in top])

# 6. Sanity anchor: a model with zeroed output weights is exactly the
# uniform distribution, so its cross entropy is ln(K).
uniform = model.with_zeroed_output()
ce = uniform.eval_cross_entropy(eval_batches[shard])
print(f"\nzeroed-output ce {ce:.6f} vs ln K {math.log(len(vocab)):.6f}")
