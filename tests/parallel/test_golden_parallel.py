"""Golden parity: every parallel path is bit-identical to serial.

These tests pin the determinism contract of ``repro.parallel`` at workers
in {1, 2, 4}: sharded training weights, parallel feature-store fills,
parallel Doc2Vec/tf-idf corpus builds, and multi-process served scores are
all ``np.array_equal`` to the serial path (worker counts may exceed the
host's cores — parity is about bytes, not speed).  They also pin the
shared-memory lifecycle around the serving engine.
"""

import time

import numpy as np
import pytest

from repro.core.retina import RETINA, RetinaTrainer
from repro.features.store import FeatureStore
from repro.parallel import live_segments
from repro.serving import InferenceEngine, RetinaBundle, RetweeterPredictor
from repro.text.tfidf import TfidfVectorizer

WORKER_COUNTS = (1, 2, 4)


def _fresh_model(extractor, mode):
    return RETINA(
        user_dim=extractor.user_feature_dim,
        tweet_dim=extractor.news_doc2vec_dim,
        news_dim=extractor.news_doc2vec_dim,
        mode=mode,
        random_state=0,
    )


def _states_equal(a: dict, b: dict) -> bool:
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


class TestShardedTrainingParity:
    @pytest.mark.parametrize("mode", ["static", "dynamic"])
    def test_weights_identical_across_worker_counts(
        self, parallel_extractor, parallel_samples, mode
    ):
        states = {}
        for workers in WORKER_COUNTS:
            model = _fresh_model(parallel_extractor, mode)
            RetinaTrainer(
                model, epochs=2, random_state=0, workers=workers, shard_size=4
            ).fit(parallel_samples)
            states[workers] = model.state_dict()
        for workers in WORKER_COUNTS[1:]:
            assert _states_equal(states[1], states[workers]), (
                f"{mode} weights diverged at workers={workers}"
            )
        assert live_segments() == []

    def test_shard_size_one_reproduces_seed_schedule(
        self, parallel_extractor, parallel_samples
    ):
        seed_model = _fresh_model(parallel_extractor, "static")
        RetinaTrainer(seed_model, epochs=2, random_state=0).fit(parallel_samples)
        sharded = _fresh_model(parallel_extractor, "static")
        RetinaTrainer(
            sharded, epochs=2, random_state=0, workers=2, shard_size=1
        ).fit(parallel_samples)
        assert _states_equal(seed_model.state_dict(), sharded.state_dict())


class TestFeatureStoreParity:
    def _fresh_store(self, parallel_extractor, workers):
        base = parallel_extractor.base_
        return FeatureStore(
            parallel_extractor.world,
            text_vectorizer=base.text_vectorizer_,
            lexicon=base.lexicon,
            doc2vec=base.doc2vec_,
            history_size=base.history_size,
            doc2vec_dim=base.doc2vec_dim,
            workers=workers,
        )

    def test_parallel_fill_bit_identical(self, parallel_extractor, parallel_world):
        uids = sorted(parallel_world.world.users)
        serial = self._fresh_store(parallel_extractor, 1)
        serial.ensure(uids)
        # Doc vectors fill separately, on their first read; reading rows
        # (not the raw matrices) keeps the check valid for paged storage.
        hist, docv = serial.history_rows(uids), serial.doc_vec_rows(uids)
        assert np.any(docv)
        for workers in WORKER_COUNTS[1:]:
            store = self._fresh_store(parallel_extractor, workers)
            store.ensure(uids)
            assert np.array_equal(store.history_rows(uids), hist)
            assert np.array_equal(store.doc_vec_rows(uids), docv)
        assert live_segments() == []


class TestCorpusParity:
    def test_doc2vec_transform_parallel(self, parallel_extractor, parallel_world):
        d2v = parallel_extractor.base_.doc2vec_
        docs = [t.text for t in parallel_world.world.tweets[:40]]
        serial = d2v.transform(docs, random_state=0)
        for workers in WORKER_COUNTS[1:]:
            assert np.array_equal(
                serial, d2v.transform(docs, random_state=0, workers=workers)
            )
        # Shared-generator mode: draws stay on the parent, in doc order.
        serial = d2v.transform(docs, random_state=np.random.default_rng(9))
        parallel = d2v.transform(
            docs, random_state=np.random.default_rng(9), workers=2
        )
        assert np.array_equal(serial, parallel)

    def test_tfidf_fit_parallel(self, parallel_world):
        docs = [t.text for t in parallel_world.world.tweets[:400]]
        serial = TfidfVectorizer(
            ngram_range=(1, 2), max_features=150, rank_by="idf"
        ).fit(docs)
        for workers in WORKER_COUNTS[1:]:
            par = TfidfVectorizer(
                ngram_range=(1, 2), max_features=150, rank_by="idf",
                n_workers=workers,
            ).fit(docs)
            assert par.vocabulary_ == serial.vocabulary_
            assert np.array_equal(par.idf_, serial.idf_)


class TestServedScoreParity:
    @pytest.fixture(scope="class")
    def trained_bundle(self, parallel_extractor, parallel_samples, parallel_world):
        model = _fresh_model(parallel_extractor, "static")
        RetinaTrainer(model, epochs=1, random_state=0).fit(parallel_samples)
        return RetinaBundle(
            model=model,
            extractor=parallel_extractor,
            world_config=parallel_world.world.config,
        )

    def _serve(self, bundle, payloads, workers):
        predictor = RetweeterPredictor(bundle)
        engine = InferenceEngine({"retweeters": predictor}, workers=workers)
        with engine:
            return [engine.predict("retweeters", dict(p)) for p in payloads]

    def test_scores_identical_across_worker_counts(
        self, trained_bundle, parallel_samples
    ):
        payloads = [
            {
                "cascade_id": s.candidate_set.cascade.root.tweet_id,
                "user_ids": s.candidate_set.users[:6],
            }
            for s in parallel_samples[:4]
        ]
        serial = self._serve(trained_bundle, payloads, workers=1)
        for workers in WORKER_COUNTS[1:]:
            parallel = self._serve(trained_bundle, payloads, workers=workers)
            for a, b in zip(serial, parallel):
                assert a["scores"] == b["scores"]  # exact float equality
        assert live_segments() == []

    def test_engine_exit_releases_segments(self, trained_bundle, parallel_samples):
        predictor = RetweeterPredictor(trained_bundle)
        engine = InferenceEngine({"retweeters": predictor}, workers=2)
        with engine:
            engine.predict(
                "retweeters",
                {
                    "cascade_id": parallel_samples[0]
                    .candidate_set.cascade.root.tweet_id
                },
            )
            assert engine._dispatch is not None
            arena = engine._dispatch.arena
            assert arena is not None  # weights really live in shm
            assert live_segments() == [arena.name]
        assert live_segments() == []
        engine.stop()  # teardown is idempotent
        assert live_segments() == []

    def test_engine_respawns_when_worker_dies(self):
        import os

        from repro.serving.metrics import ServingMetrics
        from repro.serving.schemas import ServingError

        class Flaky:
            kind = "flaky"

            def __init__(self):
                self.metrics = ServingMetrics()

            def predict_batch(self, payloads):
                if any(p.get("die") for p in payloads):
                    os._exit(7)
                return [{"ok": True} for _ in payloads]

        engine = InferenceEngine({"flaky": Flaky()}, workers=2, max_wait_ms=0.0)
        with engine:
            # The crashed request fails once, with a typed 503.
            with pytest.raises(ServingError, match="worker crashed") as err:
                engine.predict("flaky", {"die": True}, timeout=30.0)
            assert err.value.code == "worker_crashed"
            assert err.value.status == 503
            # The slot respawns and the engine keeps serving via workers.
            assert engine.predict("flaky", {}, timeout=30.0) == {"ok": True}
            assert engine._dispatch is not None
            deadline = time.perf_counter() + 10.0
            while time.perf_counter() < deadline:
                if engine._dispatch.pool.width() == 2:
                    break
                time.sleep(0.01)
            assert engine._dispatch.pool.width() == 2  # back to full width
            assert engine._dispatch.pool.crashes == 1
            assert engine._dispatch.pool.respawns >= 1
        assert live_segments() == []

    def test_engine_breaker_degrades_to_inline_on_crash_loop(self, monkeypatch):
        import os

        import repro.serving.engine as engine_mod
        from repro.serving.metrics import ServingMetrics
        from repro.serving.schemas import ServingError

        monkeypatch.setattr(engine_mod, "_CRASH_LIMIT", 1)

        class Flaky:
            kind = "flaky"

            def __init__(self):
                self.metrics = ServingMetrics()

            def predict_batch(self, payloads):
                if any(p.get("die") for p in payloads):
                    os._exit(7)
                return [{"ok": True} for _ in payloads]

        engine = InferenceEngine({"flaky": Flaky()}, workers=2, max_wait_ms=0.0)
        with engine:
            with pytest.raises(ServingError, match="worker crashed"):
                engine.predict("flaky", {"die": True}, timeout=30.0)
            # Breaker tripped at the first crash: inline from here on.
            deadline = time.perf_counter() + 10.0
            while time.perf_counter() < deadline and engine._dispatch is not None:
                time.sleep(0.01)
            assert engine._dispatch is None
            assert engine.predict("flaky", {}, timeout=30.0) == {"ok": True}
            health = engine.dispatch_health()
            assert health["mode"] == "inline"
            assert health["degraded_generations"] == 1
        assert live_segments() == []
