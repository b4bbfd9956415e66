"""The ``train`` workload: sample building and RETINA training, in-process.

A set-up is world generation plus a fresh ``RetinaFeatureExtractor.fit``.
Three set-ups are timed, spread over the run, and ``setup_s`` is their
median.  The first set-up's extractor feeds an untimed warm-up that is also
the correctness check: a short slice trained through ``RetinaTrainer.fit``
must give weights bit-equal to ``repro.nn.reference.fit_reference`` in both
modes.  The second set-up's extractor, untouched until then, runs the timed
round: ``build_samples`` over 200 train cascades, then a 3-epoch static fit
and a 3-epoch dynamic fit.  The third set-up follows the round.  Each
set-up is freed before the next one, so the process holds one world at a
time.

The cascades are the first 200 of the train split, the same for every
seed (which subset is taken moves peak memory); the seed sets the negative
sampling, the model initialisation and the shuffles.  The round is one
job, so its latency percentiles are its wall time, like its throughput.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from perfbench import common, tracing

N_CASCADES, EPOCHS = 200, 3
CHECK_CASCADES, CHECK_EPOCHS = 12, 2
MODES = ("static", "dynamic")


def _setup():
    from repro.core.retina import RetinaFeatureExtractor
    from repro.data import HateDiffusionDataset

    t0 = time.perf_counter()
    ds = HateDiffusionDataset.generate(common.world_config())
    train, _ = ds.cascade_split(random_state=0)
    extractor = RetinaFeatureExtractor(ds.world, random_state=0).fit(train)
    return extractor, train, time.perf_counter() - t0


def _model(extractor, mode: str, seed: int):
    from repro.core.retina import RETINA

    return RETINA(user_dim=extractor.user_feature_dim,
                  tweet_dim=extractor.news_doc2vec_dim,
                  news_dim=extractor.news_doc2vec_dim,
                  mode=mode, random_state=seed)


def _check(extractor, train, seed: int) -> list[str]:
    """Fused training vs the frozen reference, bit for bit, both modes."""
    from repro.core.retina import RetinaTrainer
    from repro.nn.reference import fit_reference

    samples = extractor.build_samples(
        train[:CHECK_CASCADES], interval_edges_hours=RetinaTrainer.default_interval_edges(),
        random_state=seed)
    problems = []
    for mode in MODES:
        fused, frozen = _model(extractor, mode, seed), _model(extractor, mode, seed)
        RetinaTrainer(fused, epochs=CHECK_EPOCHS, random_state=seed).fit(samples)
        fit_reference(frozen, samples, epochs=CHECK_EPOCHS, random_state=seed)
        a, b = fused.state_dict(), frozen.state_dict()
        if set(a) != set(b) or not all(np.array_equal(a[k], b[k]) for k in a):
            problems.append(f"{mode}: fit weights differ from fit_reference")
    return problems


def _round(extractor, train, seed: int, tracer) -> dict:
    """The timed round on a fresh extractor; the wall time of each part."""
    from repro.core.retina import RetinaTrainer

    t0 = time.perf_counter()
    samples = extractor.build_samples(
        train[:N_CASCADES], interval_edges_hours=RetinaTrainer.default_interval_edges(),
        random_state=seed)
    parts = {"build": time.perf_counter() - t0}
    for mode in MODES:
        model = _model(extractor, mode, seed)
        if tracer is not None:
            tracer.mode = mode
        t1 = time.perf_counter()
        RetinaTrainer(model, epochs=EPOCHS, random_state=seed).fit(samples)
        parts[mode] = time.perf_counter() - t1
    parts["wall"] = time.perf_counter() - t0
    return parts


def run(seed: int, trace: bool) -> dict:
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install_train(tracer)

    setups = []

    def setup():
        # The previous set-up is freed first, so the peak does not depend
        # on when the collector gets to it.
        gc.collect()
        extractor, train, dt = _setup()
        setups.append(dt)
        return extractor, train

    extractor, train = setup()
    t0 = time.perf_counter()
    errors = _check(extractor, train, seed)
    warmup_s = time.perf_counter() - t0
    del extractor, train
    extractor, train = setup()
    if tracer is not None:
        tracer.reset()
    parts = _round(extractor, train, seed, tracer)
    if tracer is not None:
        tracer.phase = "setup"
    del extractor, train
    setup()

    steps = N_CASCADES * EPOCHS  # per mode
    wall = parts["wall"]
    table = {
        "setup_s": common.median(setups),
        "setup_runs_s": setups,
        "warmup_s": warmup_s,
        "samples_built_per_s": N_CASCADES / parts["build"],
        "train_static_cascades_per_s": steps / parts["static"],
        "train_dynamic_cascades_per_s": steps / parts["dynamic"],
        "round_s": wall,
        "peak_rss_mb": common.vm_hwm_mb(),
    }
    out = {
        "attempted": 1 + len(MODES), "failed": len(errors), "errors": errors,
        "table": table,
        "end_to_end": {
            "setup_s": table["setup_s"],
            "throughput": (N_CASCADES + len(MODES) * steps) / wall,
            "latency_p50_ms": wall * 1e3,
            "latency_p95_ms": wall * 1e3,
            "peak_rss_mb": table["peak_rss_mb"],
        },
    }
    if tracer is not None:
        timed = tracer.spans["timed"]
        layers = tracing.train_layers(timed)
        layers.update(tracing.setup_layers(tracer.spans["setup"], len(setups)))
        layers["setup.warmup_s"] = warmup_s
        out["per_layer"] = layers
        out["self_ms_per_s"] = tracing.self_times(timed, wall)
    return out
