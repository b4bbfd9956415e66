"""Prediction server for the benchmark, started the way ``repro serve`` starts it.

Usage::

    python3 perfbench/server.py --store STORE [--trace-out FILE]

Builds the engine with ``engine_from_store`` (event log attached, replayed)
and serves it through the asyncio front end with default admission.  The
dispatch worker count is pinned to 1 and telemetry runs enabled but
unsampled.  Once serving, prints one JSON line ``{"port": N}``, then reads
commands from stdin:

- ``reset``: start the timed phase of the trace (answers ``ok``);
- ``stop`` or end of input: stop serving and, with ``--trace-out``, write
  the recorded spans there as JSON.

With ``--trace-out`` the per-layer wrappers of :mod:`perfbench.tracing`
are installed before anything is loaded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src"),
                str(Path(__file__).resolve().parent.parent)]

from perfbench.common import SERVING  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_out:
        from perfbench import tracing

        tracer = tracing.Tracer()
        tracing.install_serving(tracer)

    from repro.obs import config as obs_config
    from repro.serving import AdmissionConfig, AsyncPredictionServer, ModelRegistry
    from repro.serving.engine import engine_from_store

    obs_config.configure(enabled=True, sample_rate=0.0)
    registry = ModelRegistry(args.store)
    engine = engine_from_store(
        registry,
        max_batch_size=SERVING["max_batch_size"],
        max_wait_ms=SERVING["max_wait_ms"],
        workers=SERVING["workers"],
    )
    if tracer is not None and "hategen" in engine.predictors:
        tracing.install_classifier(tracer, engine.predictors["hategen"])
    server = AsyncPredictionServer(
        engine, "127.0.0.1", 0, registry=registry,
        admission=AdmissionConfig.from_env(),
    )
    server.start()
    try:
        print(json.dumps({"port": server.address[1]}), flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "reset" and tracer is not None:
                tracer.reset()
                print("ok", flush=True)
            elif command == "stop":
                break
    finally:
        server.stop()
    if tracer is not None:
        Path(args.trace_out).write_text(json.dumps(
            {"spans": tracer.spans, "extra": tracer.extra}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
