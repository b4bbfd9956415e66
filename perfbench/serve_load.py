"""Serving workloads: ``online_hot``, ``bulk_cold`` and ``ingest_live``.

Each run launches the prediction server (``perfbench/server.py``) in its
own process twice to time set-up: the server it drives, and a fresh one
after the timed window.  It warms the first server, sends the fixed
correctness probes one at a time, and then drives it from this process
with closed loops: at most ``nproc`` threads, each holding one keep-alive
``ServingClient`` connection and waiting for every reply.
The server only ever sees the generated requests.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time

import numpy as np

from perfbench import common, tracing
from repro.client import ServingClient
from repro.serving.schemas import ServingError

THREADS = max(1, min(2, os.cpu_count() or 1))

HOT_CASCADES, HOT_USERS, CANDIDATES = 40, 150, 8
RETWEETER_SHARE = 0.75           # 3 retweeter calls : 1 hategen call
BULK_PAYLOADS = 16               # payloads per /v1/batch/retweeters call
WARM_BATCH = 64                  # payloads per warm-up batch call
INGEST_BATCHES, INGEST_EVENTS = 250, 64
READS_PER_BATCH = 4              # reads the ingest reader may send per acked batch
LEGS = 4                         # the timed window is cut into this many legs
FAR_FUTURE_HOURS = 1e6           # ingested tweets start no existing day's trend
POOL = 4096                      # pre-generated requests per thread


class Server:
    """One ``perfbench/server.py`` process, driven over its stdin."""

    def __init__(self, store: str, trace_out: str | None = None):
        cmd = [sys.executable, str(common.ROOT / "perfbench" / "server.py"),
               "--store", store]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=str(common.ROOT), env=env,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError("benchmark server exited before serving")
        self.port = json.loads(line)["port"]

    def client(self):
        return ServingClient(host="127.0.0.1", port=self.port, timeout=60,
                             retries=0, pool_size=1)

    def reset(self) -> None:
        self.proc.stdin.write("reset\n")
        self.proc.stdin.flush()
        if self.proc.stdout.readline().strip() != "ok":
            raise RuntimeError("benchmark server did not acknowledge reset")

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("stop\n")
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def launch(store: str, trace_out: str | None = None) -> tuple[Server, float]:
    """Start a server; seconds from spawn until ``/v1/healthz`` answers."""
    t0 = time.perf_counter()
    server = Server(store, trace_out)
    try:
        with server.client() as c:
            c.health()
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - t0


# ------------------------------------------------------------------ inputs
class Inputs:
    """Every request of a run, derived from the index and the seed."""

    def __init__(self, index: dict, seed: int):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.cascades = index["cascades"]
        self.users = index["users"]
        self.tags = index["tags"]
        self.hot_cascades = [int(c) for c in rng.choice(self.cascades, HOT_CASCADES, replace=False)]
        self.hot_users = [int(u) for u in rng.choice(self.users, HOT_USERS, replace=False)]
        # One timestamp per hot user keeps the hategen key space at
        # HOT_USERS x tags, well inside the 8192-row cache.
        self.hot_times = [float(round(t, 3)) for t in
                          rng.uniform(index["t_min"], index["t_max"], HOT_USERS)]
        authors = rng.choice(self.hot_users, 8, replace=False)
        self.authors, self.retweeters = [int(u) for u in authors[:4]], [int(u) for u in authors[4:]]

    def hot_requests(self, thread: int) -> list[tuple[str, dict]]:
        rng = np.random.default_rng([self.seed, 1, thread])
        out = []
        for _ in range(POOL):
            if rng.random() < RETWEETER_SHARE:
                users = rng.choice(HOT_USERS, CANDIDATES, replace=False)
                out.append(("retweeters", {
                    "cascade_id": self.hot_cascades[int(rng.integers(HOT_CASCADES))],
                    "user_ids": [self.hot_users[int(i)] for i in users]}))
            else:
                i = int(rng.integers(HOT_USERS))
                out.append(("hategen", {
                    "user_id": self.hot_users[i],
                    "hashtag": self.tags[int(rng.integers(len(self.tags)))],
                    "timestamp": self.hot_times[i]}))
        return out

    def hot_warmup(self) -> dict[str, list[dict]]:
        """Payloads covering every hot key once."""
        retweeters = [
            {"cascade_id": c, "user_ids": self.hot_users[i:i + CANDIDATES]}
            for c in self.hot_cascades
            for i in range(0, HOT_USERS, CANDIDATES)
        ]
        hategen = [
            {"user_id": u, "hashtag": tag, "timestamp": t}
            for u, t in zip(self.hot_users, self.hot_times) for tag in self.tags
        ]
        return {"retweeters": retweeters, "hategen": hategen}

    def bulk_requests(self, thread: int) -> list[list[dict]]:
        rng = np.random.default_rng([self.seed, 2, thread])
        n_users = len(self.users)
        return [
            [{"cascade_id": self.cascades[int(rng.integers(len(self.cascades)))],
              "user_ids": [self.users[int(i)] for i in
                           rng.choice(n_users, CANDIDATES, replace=False)]}
             for _ in range(BULK_PAYLOADS)]
            for _ in range(POOL // BULK_PAYLOADS)
        ]

    def bulk_warmup(self) -> dict[str, list[dict]]:
        """One payload per cascade; candidates cycle through every user."""
        users = self.users
        return {"retweeters": [
            {"cascade_id": c,
             "user_ids": [users[(k * CANDIDATES + j) % len(users)] for j in range(CANDIDATES)]}
            for k, c in enumerate(self.cascades)
        ]}

    def ingest_batch(self, index: int) -> list[dict]:
        """64 unique, valid events: tweets, each retweeted by the next item."""
        rng = np.random.default_rng([self.seed, 3, index])
        base = 10_000_000 + index * INGEST_EVENTS
        events = []
        for j in range(INGEST_EVENTS):
            if j % 2:
                events.append({
                    "kind": "retweet", "tweet_id": base + j - 1,
                    "user_id": self.retweeters[int(rng.integers(4))],
                    "timestamp": FAR_FUTURE_HOURS + index + 0.5})
            else:
                events.append({
                    "kind": "tweet", "tweet_id": base + j,
                    "user_id": self.authors[int(rng.integers(4))],
                    "hashtag": self.tags[int(rng.integers(len(self.tags)))],
                    "text": f"benchmark tweet {base + j}",
                    "timestamp": FAR_FUTURE_HOURS + float(index)})
        return events


# -------------------------------------------------------------------- load
class Tally:
    """Per-thread outcome of a closed loop: (end time, latency ms, items)."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, int]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def ok(self, t0: float, items: int) -> None:
        t1 = time.perf_counter()
        self.samples.append((t1, (t1 - t0) * 1e3, items))

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)


def _predict(client, kind: str, payload: dict) -> int:
    """One prediction call; returns the number of rows scored."""
    if kind == "retweeters":
        resp = client.predict_retweeters(payload["cascade_id"], user_ids=payload["user_ids"])
        if set(resp.scores) != {str(u) for u in payload["user_ids"]}:
            raise ValueError("retweeter reply does not score every candidate")
        return len(resp.scores)
    client.predict_hategen(payload["user_id"], payload["hashtag"], payload["timestamp"])
    return 1


def _batch(client, payloads: list[dict]) -> int:
    resp = client.predict_many("retweeters", payloads)
    if resp.n_errors or len(resp.results) != len(payloads):
        raise ValueError(f"batch call had {resp.n_errors} item error(s)")
    return sum(len(r.scores) for r in resp.results)


def run_loop(server: Server, step, requests, tally: Tally, proceed) -> None:
    """Closed loop over ``requests`` while ``proceed()`` is true.

    ``proceed`` may block, which paces the caller.
    """
    with server.client() as client:
        i = 0
        while proceed():
            req = requests[i % len(requests)]
            i += 1
            tally.attempted += 1
            t0 = time.perf_counter()
            try:
                n = step(client, req)
            except (ServingError, ValueError, OSError) as exc:
                tally.fail(f"{type(exc).__name__}: {exc}")
                continue
            tally.ok(t0, n)


def run_threads(targets) -> None:
    """Run each target on its own thread; re-raise the first crash."""
    crashed: list[BaseException] = []

    def guard(target):
        try:
            target()
        except BaseException as exc:
            crashed.append(exc)

    threads = [threading.Thread(target=guard, args=(t,)) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if crashed:
        raise crashed[0]


def warm(server: Server, payloads: dict[str, list[dict]]) -> None:
    with server.client() as client:
        for kind, items in payloads.items():
            for i in range(0, len(items), WARM_BATCH):
                resp = client.predict_many(kind, items[i:i + WARM_BATCH])
                if resp.n_errors:
                    raise RuntimeError(f"warm-up {kind} batch had item errors")


def probe(server: Server, fixture: dict) -> tuple[int, int, list[str]]:
    """Fixed probes, one at a time, against the in-process answers."""
    attempted = failed = 0
    why: list[str] = []
    with server.client() as client:
        for kind in ("retweeters", "hategen"):
            for payload, want in zip(fixture["probes"][kind], fixture["expected"][kind]):
                attempted += 1
                if kind == "retweeters":
                    got = client.predict_retweeters(
                        payload["cascade_id"], user_ids=payload["user_ids"])
                    ok = got.scores == want["scores"]
                else:
                    got = client.predict_hategen(
                        payload["user_id"], payload["hashtag"], payload["timestamp"])
                    ok = (got.score, got.label) == (want["score"], want["label"])
                if not ok:
                    failed += 1
                    why.append(f"{kind} probe {payload} differs from in-process predictor")
    return attempted, failed, why


def cache_counts(server: Server) -> dict:
    with server.client() as client:
        body = client.metrics()
    out = {}
    for key, kind, cache in (("features", "retweeters", "features"),
                             ("contexts", "retweeters", "contexts"),
                             ("hategen", "hategen", "features")):
        stats = body[kind]["caches"][cache]
        out[key] = (stats["hits"], stats["misses"])
    out["last_seq"] = body.get("store", {}).get("last_seq")
    return out


def hit_ratios(before: dict, after: dict) -> dict:
    out = {}
    for key in ("features", "contexts", "hategen"):
        hits = after[key][0] - before[key][0]
        total = hits + after[key][1] - before[key][1]
        out[f"cache.{key}.hit_ratio"] = hits / total if total else 0.0
    return out


# ---------------------------------------------------------------- workload
def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    fixture_dir = common.bundles()
    index = json.loads((fixture_dir / "index.json").read_text())
    fixture = json.loads((fixture_dir / "expected.json").read_text())
    inputs = Inputs(index, seed)

    run_dir = common.BUILD / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    shutil.copytree(fixture_dir / "store", run_dir / "store")
    trace_out = str(run_dir / "trace.json") if trace else None
    server = None
    try:
        server, ready_first = launch(str(run_dir / "store"), trace_out)
        t0 = time.perf_counter()
        warm(server, inputs.bulk_warmup() if workload == "bulk_cold" else inputs.hot_warmup())
        warmup_s = time.perf_counter() - t0

        attempted, failed, errors = probe(server, fixture)
        before = cache_counts(server)
        if trace:
            server.reset()
        load = _load(workload, server, inputs, seconds)
        after = cache_counts(server)
        rss_mb = common.vm_hwm_mb(server.proc.pid)
        server.stop()
        spans = json.loads((run_dir / "trace.json").read_text()) if trace else None
        # The second set-up comes after the timed window, so that a slow
        # phase of the host at the start of a run moves only one of the
        # two.  It gets a fresh store: the first server's log holds the
        # ingested events.
        shutil.rmtree(run_dir / "store")
        shutil.copytree(fixture_dir / "store", run_dir / "store")
        second, ready_second = launch(str(run_dir / "store"))
        second.stop()
        ready = [ready_first, ready_second]
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted += load["attempted"]
    failed += load["failed"]
    errors += load["errors"]
    if workload == "ingest_live":
        attempted += 1
        if after["last_seq"] != load["events_sent"]:
            failed += 1
            errors.append(f"/v1/metrics last_seq {after['last_seq']} "
                          f"!= events sent {load['events_sent']}")

    table = {"setup_s": common.median(ready) + warmup_s,
             "setup_ready_s": ready, "warmup_s": warmup_s,
             "peak_rss_mb": rss_mb, **load["table"]}
    out = {"attempted": attempted, "failed": failed, "errors": errors,
           "table": table, "end_to_end": {
               "setup_s": table["setup_s"],
               "throughput": load["throughput"],
               "latency_p50_ms": load["p50"],
               "latency_p95_ms": load["p95"],
               "peak_rss_mb": rss_mb}}
    if trace:
        timed = spans["spans"]["timed"]
        client = {"latency_ms_p50": load["table"]["predict_p50_ms"],
                  **hit_ratios(before, after)}
        layers = tracing.serving_layers(timed, spans["extra"], load["wall_s"], client)
        layers.update(tracing.setup_layers(spans["spans"]["setup"]))
        layers["setup.warmup_s"] = warmup_s
        out["per_layer"] = layers
        out["self_ms_per_s"] = tracing.self_times(timed, load["wall_s"])
    return out


def _stats(samples, wall_s: float, q: int) -> dict:
    """Rates and latency percentiles of a list of samples."""
    lat = [ms for _, ms, _ in samples]
    return {
        "calls": len(lat),
        "calls_per_s": len(lat) / wall_s,
        "items_per_s": sum(n for _, _, n in samples) / wall_s,
        "p50_ms": common.pct(lat, 50),
        f"p{q}_ms": common.pct(lat, q),
    }


def _leg_medians(samples, t0: float, seconds: float) -> dict:
    """Median over LEGS equal legs of each leg's rates and percentiles.

    A leg that a neighbour on the host disturbs moves one of the values
    the median is taken over, not the result.
    """
    leg = seconds / LEGS
    per_leg = [[] for _ in range(LEGS)]
    for sample in samples:
        i = int((sample[0] - t0) / leg)
        if i < LEGS:  # calls still in flight at the deadline end past it
            per_leg[i].append(sample)
    stats = [_stats(s, leg, 95) for s in per_leg]
    out = {k: common.median([st[k] for st in stats])
           for k in ("calls_per_s", "items_per_s", "p50_ms", "p95_ms")}
    out["legs"] = stats
    return out


def _load(workload: str, server: Server, inputs: Inputs, seconds: float) -> dict:
    if workload == "ingest_live":
        return _ingest_live(server, inputs)
    tallies = [Tally() for _ in range(THREADS)]
    if workload == "online_hot":
        step = lambda c, r: _predict(c, *r)  # noqa: E731
        pools = [inputs.hot_requests(t) for t in range(THREADS)]
        rate, per = "predict_rps", "calls_per_s"
    else:
        step = _batch
        pools = [inputs.bulk_requests(t) for t in range(THREADS)]
        rate, per = "rows_per_s", "items_per_s"
    t0 = time.perf_counter()
    deadline = t0 + seconds
    run_threads([
        (lambda t=t: run_loop(server, step, pools[t], tallies[t],
                              lambda: time.perf_counter() < deadline))
        for t in range(THREADS)
    ])
    wall = time.perf_counter() - t0
    samples = [x for t in tallies for x in t.samples]
    pooled = _stats(samples, wall, 99)
    legs = _leg_medians(samples, t0, seconds)
    table = {"predict_calls": pooled["calls"], "predict_rps": pooled["calls_per_s"],
             "rows_per_s": pooled["items_per_s"], rate: legs[per],
             "predict_p50_ms": legs["p50_ms"], "predict_p95_ms": legs["p95_ms"],
             "predict_p99_ms": pooled["p99_ms"],
             f"legs_{rate}": [round(st[per], 1) for st in legs["legs"]],
             "legs_predict_p95_ms": [round(st["p95_ms"], 2) for st in legs["legs"]]}
    return {"attempted": sum(t.attempted for t in tallies),
            "failed": sum(t.failed for t in tallies),
            "errors": [e for t in tallies for e in t.errors],
            "throughput": legs[per], "p50": legs["p50_ms"], "p95": legs["p95_ms"],
            "wall_s": wall, "table": table}


def _ingest_live(server: Server, inputs: Inputs) -> dict:
    """A fixed count of ingest batches beside the online_hot read mix.

    The reader may send READS_PER_BATCH reads per batch the writer has
    finished (and as many during the first), so its load follows the
    writer's progress.  Paced by the clock instead, it takes a larger share
    of the server whenever the host runs slow, and the writer's numbers
    move by that much more.
    """
    writer, reader = Tally(), Tally()
    seqs: list[int] = []
    cond = threading.Condition()
    progress = {"batches": 0, "reads": 0, "done": False}

    def batch_over() -> None:
        with cond:
            progress["batches"] += 1
            cond.notify_all()

    def may_read() -> bool:
        with cond:
            while (not progress["done"] and
                   progress["reads"] >= READS_PER_BATCH * (progress["batches"] + 1)):
                cond.wait()
            progress["reads"] += 1
            return not progress["done"]

    def write() -> None:
        try:
            with server.client() as client:
                for b in range(INGEST_BATCHES):
                    events = inputs.ingest_batch(b)
                    writer.attempted += 1
                    t0 = time.perf_counter()
                    try:
                        resp = client.ingest(events)
                    except (ServingError, OSError) as exc:
                        writer.fail(f"{type(exc).__name__}: {exc}")
                        continue
                    finally:
                        t1 = time.perf_counter()
                        batch_over()
                    seqs.extend(r.get("seq", -1) for r in resp.results)
                    if resp.accepted != len(events) or resp.deduped or resp.n_errors:
                        writer.fail(f"batch {b}: accepted {resp.accepted}, deduped "
                                    f"{resp.deduped}, errors {resp.n_errors}")
                        continue
                    writer.samples.append((t1, (t1 - t0) * 1e3, resp.accepted))
        finally:
            with cond:
                progress["done"] = True
                cond.notify_all()

    requests = inputs.hot_requests(0)
    t0 = time.perf_counter()
    run_threads([
        write,
        lambda: run_loop(server, lambda c, r: _predict(c, *r), requests, reader,
                         may_read),
    ])
    wall = time.perf_counter() - t0
    sent = INGEST_BATCHES * INGEST_EVENTS
    if seqs != list(range(1, sent + 1)):
        writer.fail("ingest acks are not the contiguous seqs 1..events sent")
    w = _stats(writer.samples, wall, 95)
    r = _stats(reader.samples, wall, 99)
    table = {
        "ingest_events_per_s": w["items_per_s"],
        "ingest_p50_ms": w["p50_ms"], "ingest_p95_ms": w["p95_ms"],
        "ingest_batches": w["calls"],
        "predict_rps": r["calls_per_s"], "rows_per_s": r["items_per_s"],
        "predict_p50_ms": r["p50_ms"], "predict_p99_ms": r["p99_ms"],
        "predict_calls": r["calls"],
    }
    return {"attempted": writer.attempted + reader.attempted + 1,
            "failed": writer.failed + reader.failed,
            "errors": writer.errors + reader.errors,
            "throughput": w["items_per_s"], "p50": w["p50_ms"], "p95": w["p95_ms"],
            "wall_s": wall, "events_sent": sent, "table": table}
