"""Span tracing around pipetune's layer entry points, from outside the
library.

``Tracer.install()`` replaces each entry point with a timing wrapper under
the name the caller looks it up by (``pipetune.optimizer.generate`` rather
than ``pipetune.candidates.generate``), so a function keeps its span when it
moves between modules.  An entry point the library no longer has is
skipped, and its metrics read 0.  Spans and counters stay in memory;
``restore()`` puts the original callables back.

A span's self time is its duration minus the durations of its direct child
spans.  Layer metrics count only work done inside model-guided iterations
(spans under ``optimizer.step``); ``totals`` counts everything, warmup
included, for cross-checking against the trace.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path

from pipetune import gp
from pipetune import optimizer as opt
from pipetune import pipeline
from pipetune.cache import StageOutputStore

STEP = "optimizer.step"


# hooks: count(key, n) after a call returns, from its arguments and result
def _on_score(count, args, result):
    xs, n_mc, mc_rngs = args[3], args[8], args[9]
    count("acquisition.candidates_scored", len(xs))
    count("acquisition.mc_draws", len(xs) * n_mc * len(mc_rngs))


def _on_generate(count, args, result):
    count("candidates.groups", 1 + len(args[0].distinct_entries()))


def _on_run(count, args, result):
    count("pipeline.evals")
    count("pipeline.stages_skipped", result.memo_delta)
    count("pipeline.stages_run", args[0].n_stages - result.memo_delta)


def _on_lookup(count, args, result):
    if result.delta > 0:
        count("cache.hits")
        count("cache.hit_depth", result.delta)


# (owner, attribute, span name, counter bumped per call, hook, error counter)
_TARGETS = (
    (opt, "step", STEP, "optimizer.iterations", None, None),
    (opt, "score_candidates", "optimizer.score_candidates", None, _on_score, None),
    (opt, "generate", "optimizer.generate", None, _on_generate, None),
    (opt, "run_pipeline", "optimizer.run_pipeline", None, _on_run, None),
    (opt, "update_pool", "optimizer.update_pool", None, None, None),
    (gp, "fit", "gp.fit", "gp.fits", None, "gp.fit_failures"),
    (gp, "posterior_mean_var", "gp.posterior_mean_var", "gp.posterior_calls", None, None),
    (pipeline, "lookup", "pipeline.lookup", None, _on_lookup, None),
    (StageOutputStore, "resolve", "StageOutputStore.resolve", "cache.resolves", None,
     "cache.resolve_failures"),
    (StageOutputStore, "write_index", "StageOutputStore.write_index", "cache.index_writes",
     None, None),
)

# self time of each span, reported per iteration under the layer metric name
LAYER_TIMES = {
    "optimizer.self_ms": STEP,
    "gp.fit_ms": "gp.fit",
    "gp.posterior_ms": "gp.posterior_mean_var",
    "acquisition.score_ms": "optimizer.score_candidates",
    "candidates.generate_ms": "optimizer.generate",
    "pipeline.run_ms": "optimizer.run_pipeline",
    "cache.lookup_ms": "pipeline.lookup",
    "cache.resolve_ms": "StageOutputStore.resolve",
    "cache.write_ms": "StageOutputStore.store_output",
    "cache.index_ms": "StageOutputStore.write_index",
    "cache.pool_update_ms": "optimizer.update_pool",
}

# counters reported per iteration
PER_ITERATION = (
    "gp.fits",
    "gp.fit_failures",
    "gp.posterior_calls",
    "acquisition.candidates_scored",
    "acquisition.mc_draws",
    "candidates.groups",
    "pipeline.evals",
    "pipeline.stages_run",
    "pipeline.stages_skipped",
    "cache.hits",
    "cache.resolves",
    "cache.resolve_failures",
    "cache.writes",
    "cache.write_skips",
    "cache.bytes_written",
    "cache.index_writes",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.self_time: Counter = Counter()  # seconds, inside iterations only
        self.step_time = 0.0
        self.counts: Counter = Counter()  # inside iterations only
        self.totals: Counter = Counter()  # everything, warmup included
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._in_step = 0
        self._originals: list[tuple[object, str, object]] = []
        self._stored: set[tuple[str, str]] = set()  # (store root, handle)

    # -- recording ---------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        self.totals[key] += n
        if self._in_step:
            self.counts[key] += n

    def _open(self, name: str) -> list:
        if name == STEP:
            self._in_step += 1
        frame = [len(self.spans) + len(self._stack), name, 0.0, 0.0]
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        span_id, name, start, child = frame
        self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if self._in_step:
            self.self_time[name] += duration - child
            if name == STEP:
                self.step_time += duration
        if name == STEP:
            self._in_step -= 1
        self.spans.append((span_id, parent[0] if parent else -1, name, start, end))

    def wrap(self, name: str, fn, counter=None, hook=None, error_counter=None):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._open(name)
            if counter:
                tracer.count(counter)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame)
                if error_counter:
                    tracer.count(error_counter)
                raise
            tracer._close(frame)
            if hook:
                hook(tracer.count, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_store_output(self, fn):
        """A handle new to its store is a write of the payload; a handle
        stored before is a skip.  Counted from the calls alone, without
        touching the file system."""
        tracer = self
        timed = self.wrap("StageOutputStore.store_output", fn)

        def store_output(store, stage_index, key_values, payload):
            handle = timed(store, stage_index, key_values, payload)
            key = (str(store.root), handle)
            if key in tracer._stored:
                tracer.count("cache.write_skips")
            else:
                tracer._stored.add(key)
                tracer.count("cache.writes")
                tracer.count("cache.bytes_written", len(payload))
            return handle

        store_output.__wrapped__ = fn
        return store_output

    def _count_lml(self, fn):
        tracer = self

        def log_prior(*args, **kwargs):
            tracer.count("gp.lml_evals")
            return fn(*args, **kwargs)

        log_prior.__wrapped__ = fn
        return log_prior

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        patches = [
            (owner, attr, self.wrap(name, getattr(owner, attr), counter, hook, err))
            for owner, attr, name, counter, hook, err in _TARGETS
            if hasattr(owner, attr)
        ]
        if hasattr(StageOutputStore, "store_output"):
            patches.append(
                (StageOutputStore, "store_output",
                 self._wrap_store_output(StageOutputStore.store_output))
            )
        if hasattr(gp, "log_prior"):
            patches.append((gp, "log_prior", self._count_lml(gp.log_prior)))
        for owner, attr, wrapper in patches:
            self._originals.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- reporting ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics over the traced iterations: milliseconds and
        counts per iteration, except the iteration total, likelihood
        evaluations per fit, mean hit depth and resolves per blob written."""
        c = self.counts
        n = c["optimizer.iterations"]
        if n == 0:
            raise ValueError("no traced iterations")
        out = {
            "optimizer.step_ms": 1000.0 * self.step_time / n,
            "optimizer.iterations": n,
            "gp.lml_evals": c["gp.lml_evals"] / c["gp.fits"] if c["gp.fits"] else 0.0,
            "cache.hit_depth": c["cache.hit_depth"] / c["cache.hits"] if c["cache.hits"] else 0.0,
            "cache.reuse_ratio": (
                c["cache.resolves"] / c["cache.writes"] if c["cache.writes"] else 0.0
            ),
        }
        for metric, span in LAYER_TIMES.items():
            out[metric] = 1000.0 * self.self_time[span] / n
        for key in PER_ITERATION:
            out[key] = c[key] / n
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in sorted(self.spans):
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )

