"""Per-layer spans recorded from the benchmark's own files.

:class:`Tracer` wraps public functions of the program under test (the
wrapped names are listed in :func:`install_serving` and
:func:`install_train`) and records one span per call: its name, the name
of the enclosing span on the same thread, its duration, its self time
(duration minus the time of its child spans) and a size (rows, events,
payloads) taken from the call.  Spans are kept in memory, grouped by
phase (``setup`` until :meth:`Tracer.reset`, ``timed`` after it; a caller
with set-up work after the timed phase sets ``phase`` back to ``setup``),
and written out by the caller when the run ends.

Nothing here changes what a wrapped function computes: each wrapper
calls the original with the same arguments and returns its result.
"""

from __future__ import annotations

import functools
import os
import threading
import time

from perfbench.common import median

# Span record fields: (name, parent, duration_s, self_s, size, end_s).
NAME, PARENT, DUR, SELF, SIZE, END = range(6)


class Tracer:
    """Thread-aware span recorder with self-time accounting."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.spans: dict[str, list[tuple]] = {"setup": [], "timed": []}
        self.mode = ""  # training mode label, set by the train workload
        self.extra: dict[str, list[float]] = {}
        self._local = threading.local()

    def reset(self) -> None:
        """Start the timed phase: later spans land in ``timed``."""
        self.spans["timed"] = []
        self.extra = {}
        self.phase = "timed"

    def note(self, key: str, value: float) -> None:
        """Record a free-standing sample (e.g. a queue wait)."""
        self.extra.setdefault(key, []).append(value)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, size=None, kind: str = "method"):
        """Replace ``owner.attr`` by a recording wrapper.

        ``size(args, kwargs, result)`` gives the span's work count.
        ``owner`` may be a class, a module or an instance (whose bound
        method is then shadowed on the instance); ``kind="classmethod"``
        re-binds a classmethod so subclasses keep their own ``cls``.
        """
        if kind == "classmethod":
            original = getattr(owner, attr).__func__
        else:
            original = getattr(owner, attr)
        tracer = self

        def call(fn, args, kwargs):
            stack = tracer._stack()
            label = name.replace("{mode}", tracer.mode)
            stack.append([label, 0.0])
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                frame = stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                parent = stack[-1][0] if stack else ""
                n = 1
                if size is not None:
                    try:
                        n = size(args, kwargs, result)
                    except (TypeError, AttributeError):
                        n = 1
                tracer.spans[tracer.phase].append(
                    (label, parent, dur, dur - frame[1], n, t1)
                )
            return result

        if kind == "classmethod":
            @functools.wraps(original)
            def wrapper(cls, *args, **kwargs):
                return call(original, (cls, *args), kwargs)
            setattr(owner, attr, classmethod(wrapper))
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return call(original, args, kwargs)
            setattr(owner, attr, wrapper)
        return original


# ------------------------------------------------------------ installation
def _rows_of_packs(args, kwargs, result):
    return sum(len(p[0]) for p in args[1])


def _len_arg(i):
    return lambda args, kwargs, result: len(args[i])


def install_setup(tracer: Tracer) -> None:
    """World generation, common to the serving and train workloads."""
    from repro.data.synthetic import SyntheticWorld

    tracer.wrap(SyntheticWorld, "generate", "setup.world_gen", kind="classmethod")


def install_serving(tracer: Tracer) -> None:
    """Wrap the serving stack's layers (call before the engine is built)."""
    from repro.core.hategen.features import HateGenFeatureExtractor
    from repro.core.retina.features import RetinaFeatureExtractor
    from repro.core.retina.model import RETINA
    from repro.features.store import FeatureStore
    from repro.graph.network import InformationNetwork
    from repro.serving import admission, engine, registry, schemas
    from repro.store import log as store_log

    install_setup(tracer)
    tracer.wrap(registry.ModelRegistry, "load_bundle", "setup.bundle_load")
    tracer.wrap(engine.InferenceEngine, "attach_store", "setup.log_replay")

    # Engine: submit time per payload -> queue wait when its batch starts,
    # and submit -> result as the engine's share of a request's latency.
    submit = engine.InferenceEngine.submit
    submitted: dict[int, float] = {}

    def timed_submit(self, kind, payload):
        t0 = time.perf_counter()
        submitted[id(payload)] = t0
        try:
            future = submit(self, kind, payload)
        except BaseException:
            submitted.pop(id(payload), None)
            raise
        future.add_done_callback(
            lambda _f: tracer.note("engine.latency_s", time.perf_counter() - t0)
        )
        return future

    engine.InferenceEngine.submit = timed_submit

    for cls in (engine.RetweeterPredictor, engine.HateGenPredictor):
        batch = cls.predict_batch

        def predict_batch(self, payloads, _batch=batch):
            now = time.perf_counter()
            for p in payloads:
                t0 = submitted.pop(id(p), None)
                if t0 is not None:
                    tracer.note("engine.queue_wait_s", now - t0)
            return _batch(self, payloads)

        cls.predict_batch = predict_batch
        tracer.wrap(cls, "predict_batch", f"predictor.{cls.kind}.predict_batch",
                    size=_len_arg(1))
        tracer.wrap(cls, "apply_events", f"invalidate.{cls.kind}",
                    size=lambda a, k, r: int((r or {}).get("cache_evictions", 0)))

    for cls in (schemas.RetweeterRequest, schemas.HateGenRequest,
                schemas.BatchRequest, schemas.IngestRequest):
        tracer.wrap(cls, "validate", "schemas.validate", kind="classmethod")
    tracer.wrap(admission.AdmissionController, "admit", "admission.admit",
                size=lambda a, k, r: 0 if r.admitted else 1)

    tracer.wrap(RetinaFeatureExtractor, "candidate_block",
                "features.candidate_block", size=_len_arg(2))
    tracer.wrap(FeatureStore, "history_rows", "features.history_rows",
                size=_len_arg(1))
    tracer.wrap(FeatureStore, "ensure", "features.ensure")
    tracer.wrap(FeatureStore, "apply_events", "invalidate.feature_store")
    tracer.wrap(InformationNetwork, "distances_from", "graph.bfs")
    tracer.wrap(InformationNetwork, "distances_array_from", "graph.bfs")
    tracer.wrap(RETINA, "predict_proba_packed", "model.forward_packed",
                size=_rows_of_packs)
    tracer.wrap(HateGenFeatureExtractor, "sample_vector", "hategen.sample_vector")

    tracer.wrap(engine.InferenceEngine, "ingest", "ingest.batch", size=_len_arg(1))
    tracer.wrap(store_log.EventLog, "append", "store.append")
    tracer.wrap(engine, "validate_event_for_world", "apply.validate")
    tracer.wrap(engine, "apply_events_to_world", "apply.world", size=_len_arg(1))

    class _Os:
        """``os`` as seen from ``repro.store.log``, with ``fsync`` timed."""

        def __getattr__(self, item):
            return getattr(os, item)

    proxy = _Os()
    proxy.fsync = os.fsync
    tracer.wrap(proxy, "fsync", "store.fsync")
    store_log.os = proxy


def install_classifier(tracer: Tracer, predictor) -> None:
    """Wrap the loaded hate-gen classifier chain on its instances."""
    for t in predictor.transforms:
        tracer.wrap(t, "transform", "hategen.classify")
    for attr in ("predict_proba", "decision_function", "predict"):
        if hasattr(predictor.model, attr):
            tracer.wrap(predictor.model, attr, "hategen.classify")


def install_train(tracer: Tracer) -> None:
    """Wrap the training layers (``{mode}`` is the current fit's mode)."""
    from repro.core.retina import features, model, trainer
    from repro.nn import optim, tensor

    install_setup(tracer)
    tracer.wrap(features.RetinaFeatureExtractor, "build_samples", "train.build",
                size=_len_arg(1))
    tracer.wrap(trainer.RetinaTrainer, "fit", "train.{mode}.fit")
    tracer.wrap(features.RetinaSample, "rows", "train.{mode}.rows")
    tracer.wrap(model.RETINA, "forward", "train.{mode}.forward")
    tracer.wrap(trainer, "weighted_bce_with_logits", "train.{mode}.loss")
    tracer.wrap(tensor.Tensor, "backward", "train.{mode}.backward")
    tracer.wrap(optim.Adam, "step", "train.{mode}.optim")
    tracer.wrap(optim.SGD, "step", "train.{mode}.optim")


# ------------------------------------------------------------- summaries
def _sel(spans, name, top_level=True):
    """Spans of ``name``; with ``top_level``, not nested in the same name."""
    return [s for s in spans if s[NAME] == name
            and not (top_level and s[PARENT] == name)]


def _total(spans):
    return float(sum(s[DUR] for s in spans))


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def self_times(spans, wall_s: float) -> dict[str, float]:
    """Self time of each layer, in ms per second of the timed window."""
    out: dict[str, float] = {}
    for s in spans:
        out[s[NAME]] = out.get(s[NAME], 0.0) + s[SELF]
    return {k: v * 1e3 / wall_s for k, v in out.items()} if wall_s > 0 else {}


def serving_layers(spans, extra, wall_s: float, client: dict) -> dict[str, float]:
    """Per-layer serving metrics from the server's timed-phase spans.

    ``client`` carries what only the load generator sees: ``latency_ms_p50``
    of its prediction calls and the ``/v1/metrics`` cache deltas.
    """
    m: dict[str, float] = {}
    waits = extra.get("engine.queue_wait_s", [])
    engine_lat = extra.get("engine.latency_s", [])
    batches = _sel(spans, "predictor.retweeters.predict_batch") + \
        _sel(spans, "predictor.hategen.predict_batch")
    m["engine.queue_wait_ms_p50"] = median(waits) * 1e3
    m["engine.batch_size_mean"] = _per(sum(s[SIZE] for s in batches), len(batches))
    m["engine.batches"] = float(len(batches))
    fe = client.get("latency_ms_p50", 0.0) - median(engine_lat) * 1e3
    m["frontend.self_ms_p50"] = fe if engine_lat else 0.0
    val = _sel(spans, "schemas.validate")
    m["schemas.validate_us_mean"] = _per(_total(val), len(val)) * 1e6
    adm = _sel(spans, "admission.admit")
    m["admission.admit_us_mean"] = _per(_total(adm), len(adm)) * 1e6
    m["admission.shed_ratio"] = _per(sum(s[SIZE] for s in adm), len(adm))
    for kind in ("retweeters", "hategen"):
        durs = [s[DUR] for s in _sel(spans, f"predictor.{kind}.predict_batch")]
        m[f"predictor.{kind}.batch_ms_p50"] = median(durs) * 1e3
    for key in ("features", "contexts", "hategen"):
        m[f"cache.{key}.hit_ratio"] = client.get(f"cache.{key}.hit_ratio", 0.0)
    cb = _sel(spans, "features.candidate_block")
    m["features.candidate_block_ms_per_row"] = \
        _per(_total(cb), sum(s[SIZE] for s in cb)) * 1e3
    hr = _sel(spans, "features.history_rows")
    m["features.history_rows_ms_per_row"] = \
        _per(_total(hr), sum(s[SIZE] for s in hr)) * 1e3
    bfs = _sel(spans, "graph.bfs")
    m["graph.bfs_ms_mean"] = _per(_total(bfs), len(bfs)) * 1e3
    m["graph.bfs_calls"] = float(len(bfs))
    fw = _sel(spans, "model.forward_packed")
    m["model.forward_packed_ms_per_row"] = \
        _per(_total(fw), sum(s[SIZE] for s in fw)) * 1e3
    sv = _sel(spans, "hategen.sample_vector")
    m["hategen.sample_vector_ms_mean"] = _per(_total(sv), len(sv)) * 1e3
    hg_rows = sum(s[SIZE] for s in _sel(spans, "predictor.hategen.predict_batch"))
    m["hategen.classify_ms_per_row"] = \
        _per(_total(_sel(spans, "hategen.classify")), hg_rows) * 1e3

    ing = _sel(spans, "ingest.batch")
    ing_ms = [s[DUR] * 1e3 for s in ing]
    m["ingest.batches"] = float(len(ing))
    m["ingest.batch_ms_p50"] = median(ing_ms)
    tenth = len(ing_ms) // 10
    m["ingest.cost_growth"] = (
        median(ing_ms[-tenth:]) / median(ing_ms[:tenth]) if tenth else 0.0
    )
    app = _sel(spans, "store.append")
    fs = _sel(spans, "store.fsync")
    m["store.append_ms_p50"] = median([s[DUR] for s in app]) * 1e3
    m["store.fsync_ms_p50"] = median([s[DUR] for s in fs]) * 1e3
    m["store.fsync_share"] = _per(_total(fs), _total(ing))
    n_events = sum(s[SIZE] for s in ing)
    m["apply.validate_ms_per_event"] = \
        _per(_total(_sel(spans, "apply.validate")), n_events) * 1e3
    m["apply.world_ms_per_event"] = \
        _per(_total(_sel(spans, "apply.world")), n_events) * 1e3
    inv = _sel(spans, "invalidate.retweeters") + _sel(spans, "invalidate.hategen")
    m["invalidate.ms_per_batch"] = _per(_total(inv), len(ing)) * 1e3
    m["invalidate.evictions_per_batch"] = _per(sum(s[SIZE] for s in inv), len(ing))
    return m


def setup_layers(spans, n_setups: int = 1) -> dict[str, float]:
    """Set-up spans, in seconds per set-up, of a server or train process."""
    return {
        f"setup.{stage}_s": _total(_sel(spans, f"setup.{stage}")) / n_setups
        for stage in ("bundle_load", "world_gen", "log_replay")
    }


def train_layers(spans) -> dict[str, float]:
    """Per-step training metrics from the timed round's spans."""
    m: dict[str, float] = {}
    build = _sel(spans, "train.build")
    m["train.build_ms_per_cascade"] = \
        _per(_total(build), sum(s[SIZE] for s in build)) * 1e3
    for mode in ("static", "dynamic"):
        steps = len(_sel(spans, f"train.{mode}.optim"))
        for stage in ("rows", "forward", "loss", "backward", "optim"):
            sel = _sel(spans, f"train.{mode}.{stage}")
            m[f"train.{mode}.{stage}_ms_per_step"] = _per(_total(sel), steps) * 1e3
    return m
