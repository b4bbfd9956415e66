"""The repository benchmark: live prediction, bulk scoring, ingest and training.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``online_hot``, ``bulk_cold``, ``ingest_live`` (serving, see
``serve_load.py``) and ``train`` (in-process, see ``train_load.py``).
``--seed`` makes the inputs; ``--seconds`` is the timed window of
``online_hot`` and ``bulk_cold`` (``ingest_live`` sends a fixed count of
batches and ``train`` runs two fixed rounds).  With ``--trace 0`` the result
carries the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1``
the per-layer metrics, measured by wrappers around the program's public
functions.  Lines before the last one report the run's provenance and every
metric of the workload by name; the last line is the JSON result.  The
exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import common  # noqa: E402

WORKLOADS = ("online_hot", "bulk_cold", "ingest_live", "train")


def _unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"),
                         ("_rps", "req/s")):
        if name.endswith(suffix):
            return unit
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its server and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import repro  # noqa: F401  (a checkout without src/ stops here)

    if args.workload == "train":
        from perfbench import train_load

        out = train_load.run(args.seed, bool(args.trace))
    else:
        from perfbench import serve_load

        out = serve_load.run(args.workload, args.seed, args.seconds, bool(args.trace))

    print("provenance " + json.dumps(common.provenance(args.workload, args.seed)))
    table = dict(out["table"])
    table["error_rate"] = out["failed"] / out["attempted"]
    for name, value in table.items():
        print(f"{args.workload:12s} {name:32s} {value} {_unit(name)}".rstrip())
    for why in out["errors"]:
        print(f"FAILED: {why}")

    if args.trace:
        values = dict(out["per_layer"])
        for name, ms in out["self_ms_per_s"].items():
            values[f"self.{name}"] = ms
        for name, value in out["end_to_end"].items():
            print(f"{args.workload:12s} traced.{name:25s} {value}")
        wanted = spec["per_layer"]
    else:
        values = out["end_to_end"]
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    correct = out["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
