"""Command line pipeline: gen, train, sweep, compare, retrieve.

Every command reads one JSON config (all keys defaulted) plus dotted
``--set`` overrides, and works inside the configured workdir:

    workdir/data/           dataset TSVs and manifest (gen)
    workdir/pipeline.json   feature pipeline (train)
    workdir/vocab_*.txt     per-shard label vocabularies (train)
    workdir/model_*.ckpt    per-shard classifiers (train)
    workdir/baseline.ckpt   bounds baseline (train)
    workdir/postings.idx    listing index postings (train)
    workdir/sweep.csv       threshold sweep table (sweep)
    workdir/sweep_*.svg     per-shard sweep charts (sweep)
    workdir/report.txt      matched-recall comparison report (compare)

Exit codes: 0 success, 2 configuration error, 3 data/artifact error,
4 numeric failure (with the tail of the failing fit's epoch log),
5 capacity cap exceeded, 1 anything else.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import config as cfg
from .baseline import BoundsModel, bounds_to_cellset, destination_coords, offset_targets
from .checkpoint import load_baseline, load_model, save_baseline, save_model
from .datagen import generate_dataset, load_dataset, read_events, write_dataset
from .errors import CapacityError, CellSearchError, ConfigError, DataError, NumericError
from .evaluation import run_compare, sweep_shard, write_report, write_sweep_csv
from .features import SHARDS, encode_events, fit_pipeline, load_pipeline, merge_batches, save_pipeline
from .index import ListingIndex, load_index, save_index
from .labels import build_vocab, load_vocab, save_vocab
from .model import ShardModel
from .nn import trunk_inputs
from .svg import write_sweep_svg


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellsearch",
        description="location retrieval pipeline: grid cells, classifiers, bounds baseline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; defaults apply when omitted")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="dotted config override, e.g. data.seed=3 or train.hidden=[64,32]",
        )
        p.add_argument(
            "--full-scale",
            action="store_true",
            help="shorthand for --set full_scale=true",
        )

    common(sub.add_parser("gen", help="generate the synthetic marketplace dataset"))
    common(sub.add_parser("train", help="fit pipeline, shard classifiers, baseline, and index"))
    common(sub.add_parser("sweep", help="sweep probability cutoffs and write CSV + charts"))
    common(sub.add_parser("compare", help="compare classifiers to the baseline at matched recall"))
    retrieve = sub.add_parser("retrieve", help="retrieve cells and listings for one eval search")
    common(retrieve)
    retrieve.add_argument("--event", type=int, required=True, help="search id from the eval window")
    retrieve.add_argument("--cutoff", type=float, help="probability cutoff (classifier mode)")
    retrieve.add_argument("--rect", action="store_true", help="use the bounds baseline instead")
    retrieve.add_argument("--limit", type=int, default=10, help="max cells/listings to print")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = list(args.overrides)
    if args.full_scale:
        overrides.append("full_scale=true")
    try:
        run = cfg.load_run_config(args.config, overrides)
        handler = _COMMANDS[args.command]
        return handler(run, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        if exc.log is not None:
            tail = [json.dumps(entry, sort_keys=True) for entry in exc.log[-3:]]
            print("\n".join(tail or ["no epoch finished"]), file=sys.stderr)
        return 4
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 5
    except CellSearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def cmd_gen(run: cfg.RunConfig, args) -> int:
    world, train_events, eval_events = generate_dataset(run.data)
    write_dataset(run.data_dir, run.data, world, train_events, eval_events)
    print(f"wrote dataset under {run.data_dir}")
    print(
        f"destinations {len(world.destinations)} listings {len(world.listings)} "
        f"train_events {len(train_events)} eval_events {len(eval_events)}"
    )
    print(f"gap destination {world.gap.dest_id} with {len(world.gap.listing_ids)} band listings")
    return 0


def fit_stack(train_cfg, bounds_cfg, world, train_events):
    """The stack `train` fits: (pipeline, batches, models, bmodel), the
    feature pipeline, the training searches encoded by shard, one
    classifier per shard and the bounds regressor. The negative count is
    checked against every shard's class count before any model fits."""
    pipeline = fit_pipeline(train_events, world.destinations)
    batches = encode_events(train_events, world.destinations, pipeline)
    vocabs = {shard: build_vocab(shard, batches[shard].booked_cells) for shard in SHARDS}
    for shard, vocab in vocabs.items():
        if train_cfg.num_negatives >= len(vocab):
            raise ConfigError(
                f"train.num_negatives={train_cfg.num_negatives} must be below the "
                f"K={len(vocab)} classes of shard {shard}"
            )
    models = {}
    for shard in SHARDS:
        models[shard] = ShardModel.build(train_cfg, pipeline, vocabs[shard])
        models[shard].fit(batches[shard])
    merged = merge_batches([batches[s] for s in SHARDS])
    bmodel = BoundsModel.build(bounds_cfg, pipeline)
    bmodel.fit(merged, offset_targets(merged, destination_coords(merged, world.destinations)))
    return pipeline, batches, models, bmodel


def cmd_train(run: cfg.RunConfig, args) -> int:
    """Fits everything before writing anything, so a failed fit leaves no
    partial set of artifacts behind."""
    data_dir = run.require_data()
    world = load_dataset(data_dir)
    train_events = read_events(os.path.join(data_dir, "train_events.tsv"))
    pipeline, batches, models, bmodel = fit_stack(run.train, run.bounds, world, train_events)
    index = ListingIndex.build(world.listings)

    os.makedirs(run.workdir, exist_ok=True)
    save_pipeline(run.path(cfg.PIPELINE_FILE), pipeline)
    print(f"wrote {run.path(cfg.PIPELINE_FILE)}")
    for shard, model in models.items():
        save_vocab(run.path(cfg.vocab_file(shard)), model.vocab)
        save_model(run.path(cfg.model_file(shard)), model)
        print(
            f"shard {shard}: events {len(batches[shard])} classes {len(model.vocab)} "
            f"epochs {len(model.train_log)}{_best(model, 'val_ce')}"
        )
    save_baseline(run.path(cfg.BASELINE_FILE), bmodel)
    print(f"baseline: epochs {len(bmodel.train_log)}{_best(bmodel, 'val_loss')}")
    save_index(run.path(cfg.INDEX_FILE), index, cfg.LISTINGS_REF)
    print(f"indexed {index.n_active} active listings across {index.posting_cells.size} cells")
    return 0


def _best(model, key: str) -> str:
    """' best_<key> <value>' of the restored epoch; empty when no epoch ran."""
    if not model.train_log:
        return ""
    return f" best_{key} {model.train_log[model.best_epoch][key]:.6f}"


def _load_matching(pipeline, run: cfg.RunConfig, name: str, load, *args):
    """load(path, *args) of the workdir file `name`, a trunk model whose
    embedding tables and continuous width must be those of the pipeline."""
    path = run.require(name)
    model = load(path, *args)
    have = (model.spec.emb_names, model.spec.emb_rows, model.spec.n_continuous)
    for field, found, wanted in zip(("emb_names", "emb_rows", "n_continuous"), have, trunk_inputs(pipeline)):
        if found != wanted:
            raise DataError(
                f"{path} has {field} {found!r}, but {run.path(cfg.PIPELINE_FILE)} gives {wanted!r}"
            )
    return model


def _load_stack(run: cfg.RunConfig):
    data_dir = run.require_data()
    world = load_dataset(data_dir)
    eval_events = read_events(os.path.join(data_dir, "eval_events.tsv"))
    pipeline = load_pipeline(run.require(cfg.PIPELINE_FILE))
    models = {}
    for shard in SHARDS:
        vocab = load_vocab(run.require(cfg.vocab_file(shard)), shard)
        models[shard] = _load_matching(pipeline, run, cfg.model_file(shard), load_model, vocab)
    bmodel = _load_matching(pipeline, run, cfg.BASELINE_FILE, load_baseline)
    index, _ = load_index(run.require(cfg.INDEX_FILE), world.listings)
    eval_batches = encode_events(eval_events, world.destinations, pipeline)
    return world, pipeline, models, bmodel, index, eval_batches


def cmd_sweep(run: cfg.RunConfig, args) -> int:
    world, pipeline, models, bmodel, index, eval_batches = _load_stack(run)
    results = []
    for shard in SHARDS:
        batch = eval_batches[shard]
        if len(batch) == 0:
            print(f"shard {shard}: no eval events, skipped")
            continue
        result = sweep_shard(models[shard], batch, index)
        results.append(result)
        svg_path = run.path(cfg.sweep_svg_file(shard))
        write_sweep_svg(svg_path, result)
        print(
            f"shard {shard}: events {result.n_events} oov {result.oov_events} "
            f"recall {result.recall[0]:.4f}..{result.recall[-1]:.4f} -> {svg_path}"
        )
    if not results:
        raise DataError("no shard had evaluation events to sweep")
    csv_path = run.path(cfg.SWEEP_CSV_FILE)
    write_sweep_csv(csv_path, results)
    print(f"wrote {csv_path}")
    return 0


def cmd_compare(run: cfg.RunConfig, args) -> int:
    world, pipeline, models, bmodel, index, eval_batches = _load_stack(run)
    batches = {s: b for s, b in eval_batches.items() if len(b) > 0}
    result = run_compare(models, bmodel, batches, world, index)
    for comp in result.shards:
        flag = " (target unreachable)" if comp.match_warning else ""
        print(
            f"shard {comp.shard}: baseline_recall {comp.baseline.recall:.4f} "
            f"matched_lambda {comp.matched_lambda:.6g} delta_recall {comp.delta_recall:+.4f}{flag}"
        )
        print(
            f"  precision_dest cell {comp.cell.precision_dest:.4f} "
            f"baseline {comp.baseline.precision_dest:.4f}; mean_retrieved "
            f"cell {comp.cell.mean_retrieved:.1f} baseline {comp.baseline.mean_retrieved:.1f}"
        )
    print(
        f"pooled precision_dest: cell {result.pooled_cell_precision_dest:.4f} "
        f"baseline {result.pooled_baseline_precision_dest:.4f}"
    )
    gap = result.gap
    print(
        f"gap band (dest {gap.dest_id}, shard {gap.shard}, {gap.n_events} events): "
        f"cell retrieved {gap.cell_retrieved_total:.0f} rect retrieved {gap.rect_retrieved_total:.0f}"
    )
    report_path = run.path(cfg.REPORT_FILE)
    write_report(report_path, result)
    print(f"wrote {report_path}")
    return 0


def cmd_retrieve(run: cfg.RunConfig, args) -> int:
    if not args.rect:
        if args.cutoff is None:
            raise ConfigError("--cutoff is required unless --rect is given")
        if not 0.0 < args.cutoff <= 1.0:
            raise ConfigError(f"--cutoff must be in (0, 1], got {args.cutoff}")
    world, pipeline, models, bmodel, index, eval_batches = _load_stack(run)
    for shard, batch in eval_batches.items():
        rows = np.flatnonzero(batch.search_ids == args.event)
        if rows.size:
            break
    else:
        raise DataError(f"search id {args.event} is not in the eval window")
    batch = batch.take(rows)
    guests = int(batch.num_guests[0])
    print(f"event {args.event} shard {shard} dest {int(batch.dest_ids[0])} guests {guests}")

    limit = max(args.limit, 0)
    if args.rect:
        rect = bmodel.predict_bounds(batch, destination_coords(batch, world.destinations))[0]
        print(
            f"rect {rect.lat_lo:.6f} {rect.lat_hi:.6f} {rect.lng_lo:.6f} {rect.lng_hi:.6f}"
        )
        covering = bounds_to_cellset(rect)
        print(f"cells {covering.size}")
        for cell in covering[:limit]:
            print(f"cell {int(cell):016x}")
        ids = index.retrieve_rect(rect, guests)
    else:
        vocab = models[shard].vocab
        probs = models[shard].predict_probs(batch)[0].astype(np.float64)
        sel = np.flatnonzero(probs >= args.cutoff)
        order = sel[np.argsort(-probs[sel], kind="stable")]
        print(f"cells {order.size}")
        for k in order[:limit]:
            print(f"cell {vocab.cell_of(int(k)):016x} {probs[k]:.9g}")
        ids = index.retrieve_cells(vocab.classes[sel], guests)
    print(f"listings {ids.size}")
    for i in ids[:limit]:
        print(f"listing {int(i)}")
    return 0


_COMMANDS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "sweep": cmd_sweep,
    "compare": cmd_compare,
    "retrieve": cmd_retrieve,
}


if __name__ == "__main__":
    raise SystemExit(main())
