"""CLI runner: execute an SML ruleset over parquet transcripts.

The reference deploys its engine as a worker service fed by a queue
(`osprey_worker/src/osprey/worker/main.py`); this repo's batch analogue is a
one-shot job over parquet — the surface a user points at files:

    python -m osprey_ray --rules examples/rules/main.sml \
        --input /data/turns --output /tmp/out \
        [--labels /data/label_events.parquet] [--num-partitions 64]

Writes two partitioned parquet datasets under --output:
  results/   one row per deduped turn (features, rule booleans, __verdicts)
  verdicts/  the fired-verdict stream only (conv_id, turn_idx, verdict)

The streaming engine (epochs, manifests, resume, fsck) has its own runner,
``python -m osprey_ray.streaming.run``.

This script OWNS the Ray session (guarded init — the library never calls
ray.init); exit code 1 on SML validation errors, with positioned messages.
"""

from __future__ import annotations

import argparse
import sys


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="python -m osprey_ray", description=__doc__)
    p.add_argument("--rules", help="path to the ruleset entry .sml file")
    p.add_argument("--input", help="parquet file or directory of transcript turns")
    p.add_argument("--output", help="output directory (results/ + verdicts/)")
    p.add_argument("--query", default=None, metavar="NAME",
                   help="instead of a ruleset run, execute one registered analytics/"
                        "corpus query (see --query list) over --sf-dir")
    p.add_argument("--sf-dir", default=None,
                   help="directory of testdata-shaped parquet tables for --query")
    p.add_argument("--labels", default=None, help="optional label-events parquet")
    p.add_argument("--num-partitions", type=int, default=64)
    p.add_argument("--num-cpus", type=int, default=None,
                   help="ray.init(num_cpus=...) when this script owns the session")
    args = p.parse_args(argv)

    if args.query is None and not (args.rules and args.input and args.output):
        p.error("--rules, --input and --output are required (or use --query)")

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False, logging_level="ERROR")

    if args.query is not None:
        from osprey_ray.pipelines import registry

        q = registry()
        if args.query == "list":
            for name in sorted(q):
                print(name)
            return 0
        if args.query not in q:
            print(f"error: unknown query {args.query!r} (try --query list)", file=sys.stderr)
            return 1
        if not args.sf_dir:
            p.error("--sf-dir is required with --query")
        res = q[args.query](args.sf_dir)
        if args.output:
            res.write_parquet(f"{args.output}/{args.query}")
            print(f"query {args.query} complete: {args.output}/{args.query}")
        else:
            pdf = res.to_pandas() if hasattr(res, "to_pandas") else res
            print(pdf.head(20).to_string())
            print(f"[{len(pdf)} rows]")
        return 0

    import pyarrow.parquet as pq
    import ray.data as rd

    from osprey_ray.pipelines.flagship import label_events_map, run_batch, verdict_stream
    from osprey_ray.sml import SmlValidationError, load_sml

    try:
        spec = load_sml(args.rules)
    except SmlValidationError as e:
        for err in e.errors:
            print(f"error: {err}", file=sys.stderr)
        return 1

    lmap = label_events_map(pq.read_table(args.labels)) if args.labels else None

    ds = rd.read_parquet(args.input)
    res = run_batch(ds, spec, lmap, num_partitions=args.num_partitions)
    res.write_parquet(f"{args.output}/results")
    verdict_stream(res).write_parquet(f"{args.output}/verdicts")
    print(f"batch run complete: {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
