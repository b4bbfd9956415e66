"""Shared pieces of the benchmark: paths, the world, bundles, statistics.

The two serving bundles (RETINA retweeter ranking and the hate-generation
classifier) are trained once per source tree and kept under
``.bench_build/perfbench/`` in the checkout, keyed by a hash of
``src/`` and of this file, together with a small index of the world
(cascade ids, users, hashtags) for the load generators and the expected
answers of the fixed correctness probes, computed by in-process
predictors built from the saved bundles.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"

#: The one world every workload runs on (470 cascades).
WORLD = dict(scale=0.03, n_users=1000, n_hashtags=8, n_news=600)
#: Fixed serving settings, recorded with every result.
SERVING = {"workers": 1, "max_wait_ms": 2.0, "max_batch_size": 64,
           "admission": "default (no quotas)", "obs": "enabled, unsampled"}

N_PROBES = 6
PROBE_CANDIDATES = 8


def use_src() -> None:
    """Import the program from this checkout's ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def world_config():
    from repro.data import SyntheticWorldConfig

    return SyntheticWorldConfig(**WORLD)


# ----------------------------------------------------------------- bundles
def source_key() -> str:
    h = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + [Path(__file__)]
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def bundles() -> Path:
    """Directory holding ``store/`` (a registry), ``index.json``, ``expected.json``.

    Built on first use for this source tree; later runs reuse it.
    """
    target = BUILD / f"bundles-{source_key()}"
    if not (target / "expected.json").exists():
        tmp = BUILD / f"tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        _train_bundles(tmp)
        for old in BUILD.glob("bundles-*"):
            shutil.rmtree(old, ignore_errors=True)
        os.replace(tmp, target)
    return target


def _train_bundles(out: Path) -> None:
    from repro.core.hategen import HateGenFeatureExtractor, HateGenerationPipeline
    from repro.core.retina import RETINA, RetinaFeatureExtractor, RetinaTrainer
    from repro.data import HateDiffusionDataset
    from repro.serving import HateGenBundle, ModelRegistry, RetinaBundle
    from repro.serving.engine import engine_from_store

    ds = HateDiffusionDataset.generate(world_config())
    world = ds.world
    registry = ModelRegistry(str(out / "store"))

    train, _ = ds.cascade_split(random_state=0)
    extractor = RetinaFeatureExtractor(world, random_state=0).fit(train)
    samples = extractor.build_samples(
        train, interval_edges_hours=RetinaTrainer.default_interval_edges(),
        random_state=0,
    )
    model = RETINA(user_dim=extractor.user_feature_dim,
                   tweet_dim=extractor.news_doc2vec_dim,
                   news_dim=extractor.news_doc2vec_dim,
                   mode="static", random_state=0)
    RetinaTrainer(model, epochs=3, random_state=0).fit(samples)
    registry.save_bundle("retina", RetinaBundle(
        model=model, extractor=extractor, world_config=world.config))

    h_train, h_test = ds.hategen_split(random_state=0)
    h_extractor = HateGenFeatureExtractor(world, random_state=0)
    pipeline = HateGenerationPipeline(h_extractor, random_state=0)
    X_tr, y_tr, X_te, y_te = pipeline.prepare(h_train, h_test)
    pipeline.run("dectree", "ds", X_tr, y_tr, X_te, y_te)
    registry.save_bundle("hategen", HateGenBundle(
        model=pipeline.fitted_model_, transforms=pipeline.fitted_transforms_,
        extractor=h_extractor, world_config=world.config,
        model_key="dectree", variant="ds"))

    times = [c.root.timestamp for c in world.cascades]
    index = {
        "cascades": [int(c.root.tweet_id) for c in world.cascades],
        "users": sorted(int(u) for u in world.users),
        "tags": [spec.tag for spec in world.catalog],
        "t_min": float(min(times)),
        "t_max": float(max(times)),
    }
    (out / "index.json").write_text(json.dumps(index))

    # Expected probe answers from in-process predictors over the saved
    # bundles, loaded the way the server loads them (no event log).
    probes = make_probes(index)
    engine = engine_from_store(registry, workers=1, with_events=False)
    expected = {
        kind: [engine.predictors[kind].predict_batch([p])[0] for p in probes[kind]]
        for kind in ("retweeters", "hategen")
    }
    (out / "expected.json").write_text(json.dumps(
        {"probes": probes, "expected": expected}))


def make_probes(index: dict) -> dict:
    """Fixed probe payloads (independent of the workload seed)."""
    rng = np.random.default_rng(12345)
    cascades, users, tags = index["cascades"], index["users"], index["tags"]
    retweeters = [
        {"cascade_id": int(cascades[int(i)]),
         "user_ids": [int(u) for u in rng.choice(users, PROBE_CANDIDATES, replace=False)]}
        for i in rng.choice(len(cascades), N_PROBES, replace=False)
    ]
    hategen = [
        {"user_id": int(rng.choice(users)), "hashtag": str(tags[i % len(tags)]),
         "timestamp": float(round(rng.uniform(index["t_min"], index["t_max"]), 3))}
        for i in range(N_PROBES)
    ]
    return {"retweeters": retweeters, "hategen": hategen}


# -------------------------------------------------------------- statistics
def pct(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation); 0.0 when empty."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def provenance(workload: str, seed: int) -> dict:
    """Where and how a result was produced, so hosts are not mixed up."""
    from repro.obs import run_record

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "blas": blas,
        "serving": SERVING,
        "world": WORLD,
        "run_record": run_record(max_spans=0),
    }
