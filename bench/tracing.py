"""Span tracing from outside the package.

`Tracer.install` replaces public functions and methods of `cellsearch`
with wrappers that record one span per call: a name, a start, an end and
the parent span. A function bound by name in several modules (for example
`cover_rect_raw` in `s2geom`, `baseline` and `index`) is replaced in every
module that holds it, so every caller is seen. Spans stay in memory until
the run writes them out. Nothing under `src/` changes.

A span may carry `n`, a count taken from the call (rows in a batch, cells
in a covering, listings returned), so ratios are measured where the work
happens.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (span name, module, attribute, how to label the span, what to count).
# Labels and counts are functions of (args, result); None leaves them out.
_shard_arg = lambda args, result: args[0].shard  # noqa: E731  bound method self
_batch_len = lambda args, result: len(args[1])  # noqa: E731
_result_size = lambda args, result: int(result.size)  # noqa: E731

TARGETS = (
    ("datagen.generate_dataset", "cellsearch.datagen", "generate_dataset", None, None),
    ("datagen.generate_world", "cellsearch.datagen", "generate_world", None, None),
    ("datagen.generate_search_log", "cellsearch.datagen", "generate_search_log", None, None),
    ("datagen.write_dataset", "cellsearch.datagen", "write_dataset", None, None),
    ("datagen.load_dataset", "cellsearch.datagen", "load_dataset", None, None),
    ("features.fit_pipeline", "cellsearch.features", "fit_pipeline", None, None),
    ("features.encode_events", "cellsearch.features", "encode_events", None, None),
    ("labels.build_vocab", "cellsearch.labels", "build_vocab", None, lambda a, r: len(r)),
    ("nn.trunk_forward", "cellsearch.nn", "trunk_forward", None, None),
    ("nn.trunk_backward", "cellsearch.nn", "trunk_backward", None, None),
    ("model.sample_negatives", "cellsearch.model", "sample_negatives", None, None),
    ("model.sampled_loss_and_grads", "cellsearch.model", "sampled_loss_and_grads", None, None),
    ("model.fit", "cellsearch.model", "ShardModel.fit", _shard_arg, None),
    ("model.train_step", "cellsearch.model", "ShardModel.train_step", None, None),
    ("model.predict_probs", "cellsearch.model", "ShardModel.predict_probs", None, _batch_len),
    ("baseline.fit", "cellsearch.baseline", "BoundsModel.fit", None, None),
    ("baseline.train_step", "cellsearch.baseline", "BoundsModel.train_step", None, None),
    ("baseline.bounds_loss_and_grads", "cellsearch.baseline", "bounds_loss_and_grads", None, None),
    ("baseline.predict_bounds", "cellsearch.baseline", "BoundsModel.predict_bounds", None, _batch_len),
    ("baseline.bounds_to_cellset", "cellsearch.baseline", "bounds_to_cellset", None, _result_size),
    ("s2geom.cover_rect_raw", "cellsearch.s2geom.region", "cover_rect_raw", None, _result_size),
    ("s2geom.cells_from_latlng_vec", "cellsearch.s2geom.cellid", "cells_from_latlng_vec", None,
     lambda a, r: int(r.size)),
    ("index.build", "cellsearch.index", "ListingIndex.build", None, None),
    ("index.save_index", "cellsearch.index", "save_index", None, None),
    ("index.load_index", "cellsearch.index", "load_index", None, None),
    ("index.retrieve_cells", "cellsearch.index", "ListingIndex.retrieve_cells", None, _result_size),
    ("index.retrieve_rect", "cellsearch.index", "ListingIndex.retrieve_rect", None, _result_size),
    ("index.capacity_count_table", "cellsearch.index", "ListingIndex.capacity_count_table", None, None),
    ("evaluation.evaluate_baseline", "cellsearch.evaluation", "evaluate_baseline",
     lambda a, r: a[1].shard, _batch_len),
    ("evaluation.sweep_shard", "cellsearch.evaluation", "sweep_shard", None, None),
    ("evaluation.booked_cell_probs", "cellsearch.evaluation", "booked_cell_probs", None, None),
    ("evaluation.gap_statistics", "cellsearch.evaluation", "gap_statistics", None, None),
    ("checkpoint.save_model", "cellsearch.checkpoint", "save_model", None, None),
    ("checkpoint.save_baseline", "cellsearch.checkpoint", "save_baseline", None, None),
    ("checkpoint.load_model", "cellsearch.checkpoint", "load_model", None, None),
    ("checkpoint.load_baseline", "cellsearch.checkpoint", "load_baseline", None, None),
    ("svg.write_sweep_svg", "cellsearch.svg", "write_sweep_svg", None, None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "n")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.n = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = True  # while False, wrappers call straight through
        self._open: list[int] = []
        self._restore: list = []

    # -- recording ---------------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int, n=None) -> None:
        self.spans[idx].end = time.perf_counter()
        self.spans[idx].n = n
        self._open.pop()

    def wrap(self, name, fn, label=None, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(idx)
                raise
            span = tracer.spans[idx]
            if label is not None:
                span.name = f"{name}_{label(args, result)}"
            tracer.end(idx, None if count is None else count(args, result))
            return result

        return traced

    # -- installing --------------------------------------------------------
    def install(self, targets=TARGETS) -> None:
        """Wrap every target wherever it is bound inside `cellsearch`."""
        for name, module, attr, label, count in targets:
            mod = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__, label, count))
                else:
                    wrapped = self.wrap(name, raw, label, count)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(mod, attr)
            wrapped = self.wrap(name, original, label, count)
            for mod_name, holder in list(sys.modules.items()):
                if not mod_name.startswith("cellsearch") or holder is None:
                    continue
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, original))
                        setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    # -- reading -----------------------------------------------------------
    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def stage_of(self) -> list[str]:
        """Name of the top-level span each span runs under."""
        out = []
        for s in self.spans:
            out.append(s.name if s.parent < 0 else out[s.parent])
        return out

    def write(self, path) -> None:
        doc = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "n": s.n}
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(doc, fh)

    def profile(self) -> list[dict]:
        """Per span name: calls, inclusive and self seconds, share of the run."""
        own = self.self_times()
        run = sum(s.duration for s in self.spans if s.parent < 0)
        rows: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for s, o in zip(self.spans, own):
            row = rows[s.name]
            row["calls"] += 1
            row["total_s"] += s.duration
            row["self_s"] += o
        out = [dict(name=k, **v, self_share=v["self_s"] / run) for k, v in rows.items()]
        return sorted(out, key=lambda r: -r["self_s"])


# Per-layer metrics of a traced run, in BENCHMARK.json order: (name, unit).
LAYER_METRICS = (
    ("datagen.generate_world_s", "s"),
    ("datagen.generate_search_log_s", "s"),
    ("datagen.write_dataset_s", "s"),
    ("datagen.load_dataset_s", "s"),
    ("features.fit_pipeline_s", "s"),
    ("features.encode_events_s", "s"),
    ("features.encode_one_us", "us"),
    ("labels.classes", "count"),
    ("nn.trunk_forward_ms", "ms"),
    ("nn.trunk_backward_ms", "ms"),
    ("model.sample_negatives_ms", "ms"),
    ("model.sampled_loss_and_grads_ms", "ms"),
    ("model.fit_EU_s", "s"),
    ("model.fit_AMER_s", "s"),
    ("model.fit_OTHER_s", "s"),
    ("model.train_steps", "count"),
    ("model.predict_probs_one_ms", "ms"),
    ("model.predict_probs_chunk_ms", "ms"),
    ("baseline.fit_s", "s"),
    ("baseline.bounds_loss_and_grads_ms", "ms"),
    ("baseline.predict_bounds_us_per_search", "us"),
    ("s2geom.cover_rect_raw_ms", "ms"),
    ("s2geom.cover_cells", "cells"),
    ("s2geom.cells_from_latlng_us_per_point", "us"),
    ("index.build_s", "s"),
    ("index.load_index_s", "s"),
    ("index.retrieve_cells_ms", "ms"),
    ("index.retrieve_rect_ms", "ms"),
    ("index.rect_keep_ratio", "ratio"),
    ("index.capacity_count_table_ms", "ms"),
    ("evaluation.evaluate_baseline_EU_s", "s"),
    ("evaluation.evaluate_baseline_AMER_s", "s"),
    ("evaluation.evaluate_baseline_OTHER_s", "s"),
    ("evaluation.distinct_rect_ratio", "ratio"),
    ("evaluation.sweep_shard_s", "s"),
    ("evaluation.booked_cell_probs_s", "s"),
    ("evaluation.gap_statistics_s", "s"),
    ("checkpoint.save_s", "s"),
    ("checkpoint.load_s", "s"),
    ("cli.sweep_s", "s"),
    ("cli.compare_s", "s"),
)


def layer_metrics(tracer: Tracer, repeats: dict) -> dict:
    """Per-layer figures from the spans of one traced run.

    `_s` figures and counts are per pipeline pass: spans under a stage that
    ran `repeats[stage]` times (set-up) are divided by that count. `_ms`
    and `_us` figures are means per call; `_per_point` and
    `_per_search` divide by the work the calls carried.
    """
    spans = tracer.spans
    own = tracer.self_times()
    stage = tracer.stage_of()

    def parent_name(k):
        p = spans[k].parent
        return spans[p].name if p >= 0 else None

    def under(k, prefix):
        p = spans[k].parent
        while p >= 0:
            if spans[p].name.startswith(prefix):
                return True
            p = spans[p].parent
        return False

    def pick(name, where=None):
        return [k for k, s in enumerate(spans) if s.name == name and (where is None or where(k))]

    def per_pass(*names, where=None):
        return sum(spans[k].duration / repeats.get(stage[k], 1) for n in names for k in pick(n, where))

    def count_per_pass(name, of=lambda k: 1):
        return sum(of(k) / repeats.get(stage[k], 1) for k in pick(name))

    def mean(name, where=None, scale=1e3, self_time=False):
        ks = pick(name, where)
        vals = [own[k] if self_time else spans[k].duration for k in ks]
        return scale * sum(vals) / len(vals) if vals else 0.0

    def per_unit(name, where=None, scale=1e6):
        ks = pick(name, where)
        work = sum(spans[k].n for k in ks)
        return scale * sum(spans[k].duration for k in ks) / work if work else 0.0

    serving = lambda k: stage[k].startswith("serve.")  # noqa: E731
    in_cell_step = lambda k: parent_name(k) == "model.sampled_loss_and_grads"  # noqa: E731
    evaluated = sum(spans[k].n for s in ("EU", "AMER", "OTHER") for k in pick(f"evaluation.evaluate_baseline_{s}"))
    pulled = sum(spans[k].n for k in pick("index.retrieve_cells", lambda k: parent_name(k) == "index.retrieve_rect"))
    kept = sum(spans[k].n for k in pick("index.retrieve_rect"))
    covers = pick("s2geom.cover_rect_raw")
    values = {
        "datagen.generate_world_s": per_pass("datagen.generate_world"),
        "datagen.generate_search_log_s": per_pass("datagen.generate_search_log"),
        "datagen.write_dataset_s": per_pass("datagen.write_dataset"),
        "datagen.load_dataset_s": per_pass("datagen.load_dataset"),
        "features.fit_pipeline_s": per_pass("features.fit_pipeline"),
        "features.encode_events_s": per_pass("features.encode_events", where=lambda k: not serving(k)),
        "features.encode_one_us": mean("features.encode_events", serving, scale=1e6),
        "labels.classes": count_per_pass("labels.build_vocab", lambda k: spans[k].n),
        "nn.trunk_forward_ms": mean("nn.trunk_forward", in_cell_step),
        "nn.trunk_backward_ms": mean("nn.trunk_backward", in_cell_step),
        "model.sample_negatives_ms": mean("model.sample_negatives"),
        "model.sampled_loss_and_grads_ms": mean("model.sampled_loss_and_grads"),
        "model.fit_EU_s": per_pass("model.fit_EU"),
        "model.fit_AMER_s": per_pass("model.fit_AMER"),
        "model.fit_OTHER_s": per_pass("model.fit_OTHER"),
        "model.train_steps": count_per_pass("model.train_step"),
        "model.predict_probs_one_ms": mean("model.predict_probs", serving),
        "model.predict_probs_chunk_ms": mean("model.predict_probs", lambda k: not serving(k)),
        "baseline.fit_s": per_pass("baseline.fit"),
        "baseline.bounds_loss_and_grads_ms": mean(
            "baseline.bounds_loss_and_grads", lambda k: parent_name(k) == "baseline.train_step"
        ),
        "baseline.predict_bounds_us_per_search": per_unit("baseline.predict_bounds"),
        "s2geom.cover_rect_raw_ms": mean("s2geom.cover_rect_raw"),
        "s2geom.cover_cells": sum(spans[k].n for k in covers) / len(covers) if covers else 0.0,
        "s2geom.cells_from_latlng_us_per_point": per_unit("s2geom.cells_from_latlng_vec"),
        "index.build_s": per_pass("index.build"),
        "index.load_index_s": per_pass("index.load_index"),
        "index.retrieve_cells_ms": mean(
            "index.retrieve_cells", lambda k: parent_name(k) != "index.retrieve_rect"
        ),
        "index.retrieve_rect_ms": mean("index.retrieve_rect", self_time=True),
        "index.rect_keep_ratio": kept / pulled if pulled else 0.0,
        "index.capacity_count_table_ms": mean("index.capacity_count_table"),
        "evaluation.evaluate_baseline_EU_s": per_pass("evaluation.evaluate_baseline_EU"),
        "evaluation.evaluate_baseline_AMER_s": per_pass("evaluation.evaluate_baseline_AMER"),
        "evaluation.evaluate_baseline_OTHER_s": per_pass("evaluation.evaluate_baseline_OTHER"),
        "evaluation.distinct_rect_ratio": (
            sum(under(k, "evaluation.evaluate_baseline") for k in covers) / evaluated if evaluated else 0.0
        ),
        "evaluation.sweep_shard_s": per_pass("evaluation.sweep_shard"),
        "evaluation.booked_cell_probs_s": per_pass("evaluation.booked_cell_probs"),
        "evaluation.gap_statistics_s": per_pass("evaluation.gap_statistics"),
        "checkpoint.save_s": per_pass("checkpoint.save_model", "checkpoint.save_baseline"),
        "checkpoint.load_s": per_pass("checkpoint.load_model", "checkpoint.load_baseline"),
        "cli.sweep_s": per_pass("cli.sweep"),
        "cli.compare_s": per_pass("cli.compare"),
    }
    return {name: (float(values[name]), unit) for name, unit in LAYER_METRICS}


def balance(tracer: Tracer) -> dict:
    """Shares of the traced run that show what each workload is for."""
    spans = tracer.spans
    own = tracer.self_times()
    run = sum(s.duration for s in spans if s.parent < 0)

    def total(prefix):
        return sum(s.duration for s in spans if s.name.startswith(prefix))

    return {
        "run_s": run,
        "gen_and_fit_share": (total("cli.gen") + total("model.fit_") + total("baseline.fit")) / run,
        "evaluate_baseline_share": total("evaluation.evaluate_baseline_") / run,
        "index_self_share": sum(o for s, o in zip(spans, own) if s.name.startswith("index.")) / run,
    }
