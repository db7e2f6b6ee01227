"""Single-threaded, no-Ray pass over a workload's input.

It calls each layer's public function in the order the Ray plan does:
read (``_read_segment_chunk``) → stateless stage (``compile_stateless``)
→ route (``AssignPartition`` plus the per-partition split) → stateful
stage (``sort_and_dedup``, ``eval_released``) → Parquet sink, with one
span around each call. It is the single-threaded baseline of the same job,
and its layer self times must add up to its wall time within
``UNATTRIBUTED_TOLERANCE``.

A second pass times each kernel family on its own, as a one-feature
``compile_stateless(RuleSpec(features=[f]))`` over the same tables.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

# share of the serial pass's wall time that may fall outside the layer spans
UNATTRIBUTED_TOLERANCE = 0.05

KERNEL_FAMILIES = ("StringContains", "CheckCensorized", "RegexMatch", "StringLength")


def serial_pass(tracer, files: list[str], spec, label_map: dict, num_parts: int,
                out_dir: str) -> tuple[int, dict, list[pa.Table], list[str]]:
    """Run the pass; returns ``(root_span_id, counters, input_tables,
    written_files)``."""
    from osprey_ray.pipelines.flagship import AssignPartition
    from osprey_ray.stages.stateful import eval_released, sort_and_dedup
    from osprey_ray.stages.stateless import compile_stateless, split_rules
    from osprey_ray.state.labels import LabelStore
    from osprey_ray.streaming.job import _read_segment_chunk

    os.makedirs(out_dir, exist_ok=True)
    stage1 = compile_stateless(spec)
    rule_plans = split_rules(spec)
    route = AssignPartition(num_parts)
    c = dict(read_bytes=0, rows_in=0, bytes_in=0, bytes_out=0, error_rows=0,
             routed=[], dup_rows=0, sink_bytes=0)
    parts: list[list[pa.Table]] = [[] for _ in range(num_parts)]
    inputs: list[pa.Table] = []
    written: list[str] = []
    with tracer.span("serial") as root:
        for path in files:
            with tracer.span("io"):
                tbl = _read_segment_chunk(path, None)
                if "_arrival_us" in tbl.column_names:
                    tbl = tbl.drop_columns(["_arrival_us"])
            c["read_bytes"] += os.path.getsize(path)
            c["rows_in"] += tbl.num_rows
            c["bytes_in"] += tbl.nbytes
            inputs.append(tbl)
            with tracer.span("stateless"):
                t1 = stage1(tbl)
            c["bytes_out"] += t1.nbytes
            c["error_rows"] += int(pc.sum(t1["__error_count"]).as_py() or 0)
            with tracer.span("route"):
                t1 = route(t1)
                keys = t1["__part"]
                t1 = t1.drop_columns(["__part"])
                for p in range(num_parts):
                    parts[p].append(t1.filter(pc.equal(keys, p)))
            c["routed"].extend(parts[p][-1] for p in range(num_parts))
        for p in range(num_parts):
            with tracer.span("stateful.dedup"):
                tbl = pa.concat_tables(parts[p], promote_options="default")
                n_in = tbl.num_rows
                tbl = sort_and_dedup(tbl, {})
            c["dup_rows"] += n_in - tbl.num_rows
            with tracer.span("stateful.eval"):
                out, _ = eval_released(
                    tbl, spec, rule_plans, {}, LabelStore(), label_map, persist=False
                )
            path = os.path.join(out_dir, f"part-{p:05d}.parquet")
            with tracer.span("sink"):
                pq.write_table(out, path)
            c["sink_bytes"] += os.path.getsize(path)
            written.append(path)
    return root["id"], c, inputs, written


def kernel_pass(tracer, tables: list[pa.Table], spec) -> None:
    """One span per kernel family per table, named ``kernels.<family>``."""
    from osprey_ray.rules import RuleSpec
    from osprey_ray.stages.stateless import compile_stateless

    stages = {}
    for f in spec.features:
        name = getattr(f.expr, "name", None)
        if name in KERNEL_FAMILIES and name not in stages:
            stages[name] = compile_stateless(RuleSpec(features=[f]))
    missing = set(KERNEL_FAMILIES) - set(stages)
    if missing:
        raise ValueError(f"spec has no feature for kernel families {sorted(missing)}")
    with tracer.span("kernels"):
        for tbl in tables:
            for name, stage in stages.items():
                with tracer.span(f"kernels.{name}"):
                    stage(tbl)


def route_skew(routed: list[pa.Table], num_parts: int) -> float:
    rows = np.zeros(num_parts)
    for i, t in enumerate(routed):
        rows[i % num_parts] += t.num_rows
    return float(rows.max() / rows.mean())
