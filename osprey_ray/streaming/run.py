"""CLI driver for the streaming engine — ``ray job submit`` entry point.

    ray job submit -- python -m osprey_ray.streaming.run \
        --input /data/transcripts/stream --out /data/osprey_out \
        --label-events /data/label_events.parquet \
        --shards 64 --files-per-epoch 8 --lateness 1000 [--resume]

A killed job rerun with ``--resume`` continues from the last committed
manifest + state snapshot and reproduces the remaining verdict rows
bit-for-bit (BASELINE.json north_rule).  Prints one JSON metrics line per
epoch and a final summary.  ``--rules`` takes an SML ruleset; validation
errors exit 1 with positioned messages, as in the batch CLI.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--input", default=None, help="dir of ordered stream segment parquet files (not needed with --fsck)")
    ap.add_argument("--out", required=True, help="output/checkpoint directory")
    ap.add_argument("--label-events", default=None, help="label_events parquet (stream-stream join side)")
    ap.add_argument("--shards", type=int, default=32)
    ap.add_argument("--files-per-epoch", type=int, default=8)
    ap.add_argument("--lateness", type=float, default=1000.0, help="allowed lateness seconds")
    ap.add_argument("--checkpoint-interval", type=int, default=1)
    ap.add_argument("--rows-per-epoch", type=int, default=None,
                    help="plan epochs at Parquet row-group boundaries (~N rows each) instead of whole files")
    ap.add_argument("--rules", default=None,
                    help="root SML rules file (Imports/Requires resolved "
                         "relative to it); defaults to the built-in "
                         "flagship ruleset")
    ap.add_argument("--state-ttl", type=float, default=None,
                    help="evict idle-conversation state after this many "
                         "seconds (validated: time-bounded specs only)")
    ap.add_argument("--late-output", action="store_true",
                    help="write dropped-late rows to a late-* side-output "
                         "stream instead of only counting them")
    ap.add_argument("--resume", action="store_true")
    ap.add_argument("--fsck", action="store_true",
                    help="validate the committed lineage chain in --out "
                         "and exit (no processing)")
    ap.add_argument("--gc-checkpoints", action="store_true",
                    help="after the run, delete snapshots superseded by "
                         "the final recovery point")
    ap.add_argument("--num-cpus", type=int, default=None, help="only for standalone runs")
    args = ap.parse_args(argv)

    import ray

    if not ray.is_initialized():  # under `ray job submit` the session exists
        ray.init(
            address=os.environ.get("RAY_ADDRESS", "local"),
            num_cpus=args.num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )

    import pyarrow.parquet as pq

    from osprey_ray.pipelines.flagship import flagship_spec, label_events_map
    from osprey_ray.streaming import StreamingJob

    if args.rules:
        from osprey_ray.sml import SmlValidationError, load_sml

        try:
            spec = load_sml(args.rules)
        except SmlValidationError as e:
            for err in e.errors:
                print(f"error: {err}", file=sys.stderr)
            return 1
    else:
        spec = flagship_spec()
    if args.fsck:
        # fsck only reads manifests in --out — no input segments needed,
        # and it validates under the SAME spec the run would use
        # (ADVICE r4: --fsck was unreachable without a valid --input)
        job = StreamingJob(spec, [], args.out, {}, num_shards=args.shards)
        rep = job.fsck()
        print(json.dumps(rep))
        return 0 if rep["ok"] else 3
    if not args.input:
        print("--input is required (except with --fsck)", file=sys.stderr)
        return 2
    segs = sorted(glob.glob(os.path.join(args.input, "*.parquet")))
    if not segs:
        print(f"no parquet segments in {args.input}", file=sys.stderr)
        return 2
    lmap = label_events_map(pq.read_table(args.label_events)) if args.label_events else {}
    job = StreamingJob(
        spec,
        segs,
        args.out,
        lmap,
        num_shards=args.shards,
        files_per_epoch=args.files_per_epoch,
        allowed_lateness_s=args.lateness,
        checkpoint_interval=args.checkpoint_interval,
        rows_per_epoch=args.rows_per_epoch,
        late_output=args.late_output,
        state_ttl_s=args.state_ttl,
    )
    import time

    t0 = time.perf_counter()
    job.run(resume=args.resume)
    job.finalize()
    if args.gc_checkpoints:
        print(json.dumps({"gc_removed": job.gc_checkpoints()}))
    wall = time.perf_counter() - t0  # epochs overlap; per-epoch walls don't sum
    metrics = job.metrics  # run() + finalize() share this list
    for m in metrics:
        print(json.dumps(m))
    total = sum(m["released_rows"] for m in metrics)
    print(
        json.dumps(
            {
                "summary": True,
                "epochs": len(metrics),
                "rows": total,
                "wall_s": round(wall, 2),
                "rows_per_sec": round(total / max(wall, 1e-9), 1),
                "late_dropped": sum(m["late_dropped"] for m in metrics),
                "out": args.out,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
