"""Benchmark entry point.

    python3 perfbench/run.py --workload batch_backfill --seed 1 --seconds 10 --trace 0

Run from the repository root. ``--trace 0`` prints the end-to-end metrics
of one workload; ``--trace 1`` runs the traced pass and prints the
per-layer metrics (see README.md). The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it stamps the sample with the host fingerprint. A failed output
check, zero output rows, an exception or the deadline exits non-zero
without printing a result or writing a sample.

Everything the run writes goes under ``.perfbench/`` in the repository
root: generated datasets (the few most recent are kept), per-run output
directories (removed at exit), Ray's session directory when its path is
short enough, and one sample file per successful run (plus the span file
of a traced run) under ``.perfbench/samples/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# a run must end within 180 s; stopping here leaves time to shut Ray down
DEADLINE_S = 165


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline(f"run exceeded {DEADLINE_S}s")


def _on_term(signum, frame):
    raise Deadline(f"stopped by signal {signum}")


def _kill_and_exit(host) -> None:
    # last resort if the alarm cannot interrupt a blocked native call
    host.reap_children(0)
    os._exit(3)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="input sizes; 'tiny' is the smoke-test scale")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, ROOT)
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    try:
        import osprey_ray  # noqa: F401  — fails fast outside a checkout

        from perfbench import host
        from perfbench.trace import Tracer
        from perfbench.workloads import Bench
    except ImportError:
        traceback.print_exc()
        return 2

    # every process the run starts, Ray's workers too, stays below this one
    # and is waited for before it exits
    host.become_subreaper()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    signal.signal(signal.SIGINT, _on_term)
    signal.alarm(DEADLINE_S)
    killer = threading.Timer(DEADLINE_S + 10, _kill_and_exit, (host,))
    killer.daemon = True
    killer.start()

    work = os.path.join(ROOT, ".perfbench")
    fp = host.fingerprint(ROOT)
    tracer = Tracer() if args.trace else None
    bench = None
    try:
        bench = Bench(ROOT, work, args.workload, args.seed, args.seconds, args.scale,
                      tracer=tracer)
        res = bench.run_trace() if args.trace else bench.run_e2e()
    except Exception:  # noqa: BLE001 — any failure voids the sample
        traceback.print_exc()
        return 1
    finally:
        signal.alarm(0)
        # a second stop signal must not cut the clean-up short
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        try:
            Bench.stop_ray()
        finally:
            killer.cancel()
            if bench is not None:
                bench.close()

    fp["loadavg_after"] = host.loadavg()
    fp["sizing"] = bench.sizing
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}
    line = {"correct": True, "attempted": max(1, bench.attempted), "failed": 0,
            "metrics": metrics}
    samples = os.path.join(work, "samples")
    os.makedirs(samples, exist_ok=True)
    stem = os.path.join(
        samples, f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}")
    sample = {"args": vars(args), "host": fp, "result": line, "detail": res["detail"]}
    if tracer is not None:
        tracer.write(stem + ".spans.json")
        sample["spans"] = os.path.basename(stem) + ".spans.json"
    with open(stem + ".json", "w") as f:
        json.dump(sample, f, indent=1, default=str)
    print(json.dumps({"host": fp}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
