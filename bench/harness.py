"""One benchmark run: gen -> train -> evaluate -> serve, timed and checked.

The stages run in this process, through `cellsearch.cli.main`, exactly as
the command line runs them. Serving loads the workdir once and then
handles the workload's evaluation searches in file order as a closed loop
with one client, through both retrieval routes, in slices with the
workload's stage repeats between them. Each query is checked against a
linear scan of the listing store right after it is timed.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time

import numpy as np

import checks as ck
from tracing import Tracer, balance, layer_metrics
from workloads import WARMUP, Workload

from cellsearch import baseline, checkpoint, cli, datagen, features, index, labels
from cellsearch import config as csconfig
from cellsearch.baseline import BoundsModel
from cellsearch.model import ShardModel

SHARDS = features.SHARDS
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class StageFailed(Exception):
    pass


class FitLogs:
    """Keeps the per-epoch logs `fit` returns, for the finite-loss check."""

    def __init__(self):
        self.logs: list = []
        self._saved: list = []

    def install(self):
        for cls in (ShardModel, BoundsModel):
            original = cls.__dict__["fit"]

            def fit(model, *args, _original=original, **kwargs):
                log = _original(model, *args, **kwargs)
                self.logs.append(log)
                return log

            self._saved.append((cls, original))
            cls.fit = fit

    def uninstall(self):
        for cls, original in reversed(self._saved):
            cls.fit = original
        self._saved.clear()


class Run:
    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool, out_dir: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.out_dir = out_dir
        self.stack = os.path.join(out_dir, "stack")
        self.tracer = Tracer() if trace else None
        self.ops = {}
        self.times = {}
        self.checks: list[ck.Check] = []
        # Per query, in serving order: seconds per route, listings the
        # classifier route returned.
        self.latency = {"cell": [], "rect": []}
        self.sizes: list[int] = []
        self.cli_log = None

    # -- timing helpers ----------------------------------------------------
    def _begin(self, name):
        return self.tracer.begin(name) if self.tracer else None

    def _end(self, idx):
        if self.tracer:
            self.tracer.end(idx)

    @contextlib.contextmanager
    def _untraced(self):
        if self.tracer:
            self.tracer.enabled = False
        try:
            yield
        finally:
            if self.tracer:
                self.tracer.enabled = True

    def _op(self, stage, ok):
        done = self.ops.setdefault(stage, {"attempted": 0, "failed": 0})
        done["attempted"] += 1
        done["failed"] += 0 if ok else 1

    def _cli(self, stage, command) -> float:
        idx = self._begin(f"cli.{stage}")
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(self.cli_log), contextlib.redirect_stderr(self.cli_log):
            code = cli.main([command, "--config", self.config_path])
        seconds = time.perf_counter() - t0
        self._end(idx)
        self._op(stage, code == 0)
        if code != 0:
            raise StageFailed(f"cellsearch {command} exited {code}; see {self.cli_log.name}")
        return seconds

    # -- the run -----------------------------------------------------------
    def execute(self) -> dict:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.stack)
        self.config_path = os.path.join(self.out_dir, "config.json")
        self.document = self.workload.document(self.seed, os.path.abspath(self.stack))
        with open(self.config_path, "w") as fh:
            json.dump(self.document, fh, indent=1)
        self.run_config = csconfig.load_run_config(self.config_path)
        fit_logs = FitLogs()
        fit_logs.install()
        if self.tracer:
            self.tracer.install()
        error = None
        try:
            with open(os.path.join(self.out_dir, "cli.log"), "w") as self.cli_log:
                self._stages(fit_logs)
        except StageFailed as exc:
            error = str(exc)
        finally:
            if self.tracer:
                self.tracer.uninstall()
            fit_logs.uninstall()
        return self._record(error)

    def _stage(self, stage) -> float:
        if stage == "evaluate":
            return self._cli("sweep", "sweep") + self._cli("compare", "compare")
        return self._cli(stage, stage)

    def _stages(self, fit_logs):
        runs = {"gen": [self._stage("gen")]}
        with self._untraced():
            self.store = ck.Store(self.run_config.data_dir)
            self._setup_checks()
        runs["train"] = [self._stage("train")]
        with self._untraced():
            self._train_checks()
        runs["evaluate"] = [self._stage("evaluate")]
        with self._untraced():
            self._evaluate_checks()

        # Serving is split into slices with the stage repeats between them,
        # so that each figure is drawn from across the run and one spell of
        # the machine is less likely to cover all of its samples. The stages
        # are deterministic, so each repeat rewrites the same files; serving
        # holds its own copies.
        self._serve_load()
        repeats = self.workload.repeats()
        n, slices = self.workload.searches, len(repeats) + 1
        for r in range(slices):
            self._serve_slice(self.queries[r * n // slices:(r + 1) * n // slices])
            if r < len(repeats):
                runs[repeats[r]].append(self._stage(repeats[r]))
        while self.times["serve_s"] < self.seconds:
            self._serve_slice(self.queries)
        for stage, metric in (("gen", "setup_s"), ("train", "train_s"), ("evaluate", "evaluate_s")):
            self.times[metric] = statistics.median(runs[stage])
            self.times[f"{stage}_runs_s"] = runs[stage]
        self.candidates = float(np.mean(self.sizes[:n]))
        with self._untraced():
            self.checks.append(ck.check_losses_finite(fit_logs.logs))

    # -- checks ------------------------------------------------------------
    def _setup_checks(self):
        data = self.run_config.data
        self.checks.append(ck.check_counts(self.store, {
            "destinations": data.n_destinations,
            "listings": data.n_listings,
            "train_events": data.n_train_events,
            "eval_events": data.n_eval_events,
        }))
        self.checks.append(ck.check_booked_cells(self.store))
        self.checks.append(ck.check_no_gap_bookings(self.store))

    def _load_models(self):
        """Destinations, pipeline and all four models, from the workdir."""
        run = self.run_config
        self.destinations = datagen.read_destinations(os.path.join(run.data_dir, "destinations.tsv"))
        self.pipeline = features.load_pipeline(run.path(csconfig.PIPELINE_FILE))
        self.models = {}
        for shard in SHARDS:
            vocab = labels.load_vocab(run.path(csconfig.vocab_file(shard)), shard)
            self.models[shard] = checkpoint.load_model(run.path(csconfig.model_file(shard)), vocab)
        self.bmodel = checkpoint.load_baseline(run.path(csconfig.BASELINE_FILE))

    def _train_checks(self):
        self._load_models()
        for shard in SHARDS:
            with open(self.run_config.path(csconfig.vocab_file(shard))) as fh:
                cells = [int(line) for line in fh if line.strip()]
            self.checks.append(ck.check_vocab(self.store, shard, cells))
        train = datagen.read_events(os.path.join(self.run_config.data_dir, "train_events.tsv"))
        batches = features.encode_events(train[:5000], self.destinations, self.pipeline)
        for shard in SHARDS:
            twin = self.models[shard].with_zeroed_output()
            ce = twin.eval_cross_entropy(batches[shard])
            self.checks.append(ck.check_uniform_ce(shard, ce, len(twin.vocab)))

    def _evaluate_checks(self):
        self.checks.append(ck.check_sweep_monotone(ck.read_sweep(self.run_config.path(csconfig.SWEEP_CSV_FILE))))
        report = ck.read_report(self.run_config.path(csconfig.REPORT_FILE))
        events = datagen.read_events(os.path.join(self.run_config.data_dir, "eval_events.tsv"))
        batches = features.encode_events(events, self.destinations, self.pipeline)
        booked = dict(zip(self.store.eval["search_id"].tolist(), self.store.eval["booked_listing_id"].tolist()))
        chunk = self.run_config.chunk_size
        for shard in SHARDS:
            if shard not in report:
                continue
            section, batch, model = report[shard], batches[shard], self.models[shard]
            self.checks.append(ck.check_matched_recall(shard, section))
            probs = np.concatenate([
                model.predict_probs(batch.take(slice(lo, lo + chunk))).astype(np.float64)
                for lo in range(0, len(batch), chunk)
            ])
            lam = ck.report_lambda(section["matched_lambda"])
            recount = ck.cell_retrieved_recount(self.store, model.vocab.classes, probs, batch.num_guests, lam)
            self.checks.append(ck.check_mean(
                "evaluate", f"cell_mean_retrieved_{shard}", float(section["cell_mean_retrieved"]), recount))
            rects = self.bmodel.predict_bounds(batch, baseline.destination_coords(batch, self.destinations))
            ids = [booked[int(s)] for s in batch.search_ids]
            mean_rect, inside = ck.rect_recounts(self.store, rects, batch.num_guests, ids)
            self.checks.append(ck.check_mean(
                "evaluate", f"baseline_mean_retrieved_{shard}", float(section["baseline_mean_retrieved"]), mean_rect))
            self.checks.append(ck.check_recall_floor(shard, float(section["baseline_recall"]), inside))

    # -- serving -----------------------------------------------------------
    def _serve_load(self):
        run = self.run_config
        idx = self._begin("serve.load")
        self._load_models()
        listings = datagen.read_listings(os.path.join(run.data_dir, "listings.tsv"))
        events = datagen.read_events(os.path.join(run.data_dir, "eval_events.tsv"))
        listing_index, _ = index.load_index(run.path(csconfig.INDEX_FILE), listings)
        self._end(idx)
        destinations, pipeline, models, bmodel = self.destinations, self.pipeline, self.models, self.bmodel
        report = ck.read_report(run.path(csconfig.REPORT_FILE))
        cutoffs = {s: ck.report_lambda(report[s]["matched_lambda"]) for s in SHARDS if s in report}

        def one_search(event):
            batch = next(b for b in features.encode_events([event], destinations, pipeline).values() if len(b))
            return batch, int(event.num_guests)

        def cell_route(event):
            batch, guests = one_search(event)
            model = models[batch.shard]
            probs = model.predict_probs(batch)[0].astype(np.float64)
            cells = model.vocab.classes[np.flatnonzero(probs >= cutoffs[batch.shard])]
            return cells, guests, listing_index.retrieve_cells(cells, guests)

        def rect_route(event):
            batch, guests = one_search(event)
            rect = bmodel.predict_bounds(batch, baseline.destination_coords(batch, destinations))[0]
            return rect, guests, listing_index.retrieve_rect(rect, guests)

        self.routes = (("cell", cell_route, self.store.scan_cells), ("rect", rect_route, self.store.scan_rect))
        self.queries = [events[k % len(events)] for k in range(self.workload.searches)]
        self.times["serve_s"] = 0.0

    def _serve_slice(self, queries):
        """Serves `queries` after WARMUP untimed ones, alternating the routes
        search by search; each answer is checked against a linear scan."""
        started = time.perf_counter()
        for k, event in enumerate(queries[:WARMUP] + queries):
            for route, handle, scan in self.routes:
                idx = self._begin(f"serve.{route}")
                t0 = time.perf_counter()
                what, guests, ids = handle(event)
                seconds = time.perf_counter() - t0
                self._end(idx)
                if k >= WARMUP:
                    self.latency[route].append(seconds)
                    if route == "cell":
                        self.sizes.append(ids.size)
                with self._untraced():
                    self._op(f"serve.{route}", np.array_equal(ids, scan(what, guests)))
        self.times["serve_s"] += time.perf_counter() - started

    # -- output ------------------------------------------------------------
    def _record(self, error) -> dict:
        attempted = sum(o["attempted"] for o in self.ops.values())
        failed = sum(o["failed"] for o in self.ops.values())
        correct = error is None and all(c.ok for c in self.checks)
        record = {
            "workload": self.workload.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.tracer is not None,
            "environment": environment(),
            "seeds": {"data.seed": self.seed, "train.seed": self.run_config.train.seed,
                      "bounds.seed": self.run_config.bounds.seed},
            "config": self.document,
            "error": error,
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "ops": self.ops,
            "stage_times": self.times,
            "queries": {
                "cell_ms": [1e3 * t for t in self.latency["cell"]],
                "rect_ms": [1e3 * t for t in self.latency["rect"]],
                "cell_listings": self.sizes,
            },
            "checks": [c.__dict__ for c in self.checks],
        }
        if error is None:
            record["end_to_end"] = self._end_to_end()
            record["metrics"] = record["end_to_end"]
            if self.tracer:
                w = self.workload
                values = layer_metrics(self.tracer, {"cli.gen": w.setup_repeats, "cli.train": w.train_repeats,
                                                     "cli.sweep": w.evaluate_repeats,
                                                     "cli.compare": w.evaluate_repeats})
                record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        if self.tracer:
            record["balance"] = balance(self.tracer)
            record["profile"] = self.tracer.profile()
            self.tracer.write(os.path.join(self.out_dir, "trace.json"))
        with open(os.path.join(self.out_dir, "record.json"), "w") as fh:
            json.dump(record, fh, indent=1)
        if correct and failed == 0:
            shutil.rmtree(self.stack)
        return record

    def _end_to_end(self) -> dict:
        """End-to-end figures; in a traced run they carry the tracing cost."""
        cell = 1e3 * np.percentile(self.latency["cell"], [50, 95])
        rect = 1e3 * np.percentile(self.latency["rect"], [50, 95])
        values = {
            "setup_s": (self.times["setup_s"], "s"),
            "train_s": (self.times["train_s"], "s"),
            "evaluate_s": (self.times["evaluate_s"], "s"),
            "cell_query_p50_ms": (cell[0], "ms"),
            "cell_query_p95_ms": (cell[1], "ms"),
            "rect_query_p50_ms": (rect[0], "ms"),
            "rect_query_p95_ms": (rect[1], "ms"),
            "cell_candidates_per_search": (self.candidates, "listings"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        return {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes

    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_digest(root) -> str:
    """sha256 over the package sources, standing in for a revision where the
    checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def git_revision(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or None


def environment() -> dict:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_revision": git_revision(root),
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }
