"""Shared Parquet read and write helpers, and the one JSON transcript parse.

``write_parquet_atomic`` is the engine's one atomic Parquet write (batch
partition files, shard epoch streams and spills, the driver's hot-window
file).  ``read_parquet_clean`` passes an explicit metadata-free schema to
``ray.data.read_parquet``: pyarrow 16's ``pa.Schema`` is unhashable when it
carries (pandas) key-value metadata, which makes Ray Data's schema
deduplication log "Failed to hash the schemas … unhashable type: 'dict'"
in every worker for every metadata-bearing file.  Stripping the metadata at
the read silences the noise and costs nothing (the engine never reads the
pandas metadata)."""

from __future__ import annotations

import os
import uuid

import pyarrow as pa
import pyarrow.parquet as pq

from osprey_ray.schema import TRANSCRIPT_SCHEMA


def write_parquet_atomic(tbl: pa.Table, path: str) -> None:
    """Write ``tbl`` to ``path`` via a tmp file and ``os.replace``.  The
    tmp name is unique per call: a timed-out write may still run in an
    abandoned thread when its retry starts, and they must not share it."""
    tmp = f"{path}.tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}"
    pq.write_table(tbl, tmp)
    os.replace(tmp, path)


def read_parquet_clean(path: str, columns: list[str] | None = None) -> "rd.Dataset":
    import ray.data as rd

    sch = pq.read_schema(path).remove_metadata()
    if columns is not None:
        sch = pa.schema([sch.field(c) for c in columns])
    return rd.read_parquet(path, columns=columns, schema=sch)


# Arrow's JSON parser materializes string; the readers cast text to
# large_string after the parse
_JSON_PARSE_SCHEMA = pa.schema(
    [pa.field("text", pa.string()) if f.name == "text" else f for f in TRANSCRIPT_SCHEMA]
)


def parse_transcripts_json(source: str | bytes) -> pa.Table:
    """JSON lines (a file path or a byte buffer) -> a transcript-schema
    table, parsed by Arrow's native JSON reader; fields outside the schema
    (like a segment's ``_arrival_us``) are ignored.  The one parse of
    JSONL segment reads and of the Kafka and PubSub connectors."""
    from pyarrow import json as pajson

    t = pajson.read_json(
        pa.BufferReader(source) if isinstance(source, bytes) else source,
        parse_options=pajson.ParseOptions(
            explicit_schema=_JSON_PARSE_SCHEMA, unexpected_field_behavior="ignore"
        ),
    )
    i = t.schema.get_field_index("text")
    return t.set_column(i, "text", t["text"].cast(pa.large_string()))


def read_transcripts_jsonl(path: str) -> "rd.Dataset":
    """JSONL transcript source — the reference ingests action events as
    JSON payloads from its queue (osprey_coordinator/src/consumer/
    kafka.rs), so a JSON-lines ingest path is the parity surface for
    users whose upstream emits JSON rather than Parquet.

    Arrow's native JSON reader parses each block straight into the
    canonical transcript schema (int32 turn_idx, timestamp[us] ts from
    ISO-8601 strings) inside the read tasks — vectorized, no Python-row
    decode — and a trailing cast pins large_string for ``text`` (the
    JSON parser materializes string; the cast is zero-copy for the
    offsets upgrade).  Unexpected fields error loudly rather than being
    dropped silently."""
    from pyarrow import json as pajson

    import ray.data as rd

    ds = rd.read_json(
        path,
        parse_options=pajson.ParseOptions(
            explicit_schema=_JSON_PARSE_SCHEMA, unexpected_field_behavior="error"
        ),
    )
    return ds.map_batches(
        lambda t: t.cast(TRANSCRIPT_SCHEMA), batch_format="pyarrow"
    )


def unify_schemas_by_name(schemas: list[pa.Schema]) -> pa.Schema:
    """Union-by-name schema: added columns accumulate, conflicting types
    for a same-named column error loudly rather than coercing silently."""
    by_name: dict[str, pa.Field] = {}
    for sch in schemas:
        for f in sch:
            if f.name in by_name and by_name[f.name].type != f.type:
                raise TypeError(
                    f"schema evolution conflict on column {f.name!r}: "
                    f"{by_name[f.name].type} vs {f.type}"
                )
            by_name.setdefault(f.name, f)
    return pa.schema(list(by_name.values()))


def union_datasets_by_name(groups: list[tuple["rd.Dataset", pa.Schema]]) -> "rd.Dataset":
    """Union datasets whose schemas differ by ADDED columns: a per-batch
    pad stage appends each group's missing columns as typed nulls so
    every block carries the full union schema."""
    union = unify_schemas_by_name([sch for _, sch in groups])

    def pad(missing: list[str]):
        def _pad(t: pa.Table) -> pa.Table:
            for name in missing:
                t = t.append_column(
                    name, pa.nulls(t.num_rows, union.field(name).type)
                )
            return t.select([f.name for f in union])

        return _pad

    parts = []
    for ds, sch in groups:
        missing = [f.name for f in union if sch.get_field_index(f.name) < 0]
        parts.append(ds.map_batches(pad(missing), batch_format="pyarrow"))
    out = parts[0]
    for p in parts[1:]:
        out = out.union(p)
    return out


def read_parquet_union_by_name(roots: list[str]) -> "rd.Dataset":
    """Schema-evolution read: union several Parquet roots whose schemas
    differ by ADDED columns (the common evolution: a later snapshot grew
    a field).  The union schema is assembled from file FOOTERS only (one
    ``pq.read_schema`` per root — metadata, never data), each root is
    read with its own schema, and the pad stage appends each root's
    missing columns as typed nulls so every block carries the full union
    schema."""
    import glob as _glob

    import ray.data as rd

    groups = []
    for r in roots:
        first = sorted(_glob.glob(os.path.join(r, "*.parquet"))) or [r]
        sch = pq.read_schema(first[0]).remove_metadata()
        groups.append((rd.read_parquet(r, schema=sch), sch))
    return union_datasets_by_name(groups)
