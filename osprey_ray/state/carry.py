"""The carried window state: one Arrow table, one row per conversation.

Everything the window scans carry from one slice of a conversation's rows
to the next lives in one table, and the same table is what a shard holds,
what the driver holds for hot conversations, what salting's block summaries
are rows of, and what a checkpoint stores (as Arrow IPC, :func:`to_ipc`) —
there is no other in-memory shape and no encode step.  Its schema is a
function of the spec and the stage-1 schema (:func:`carry_schema`); a null
cell means the conversation carries nothing for that key:

- ``conv_id`` — string, unique;
- ``w:<f>`` — ``list<int64>``: sorted ts of an IncrementWindow's counted
  events still inside its window (the Redis-ZSET analogue,
  example_plugins/src/udfs/cache.py:161-207);
- ``q:<f>`` — ``list<int64>``: sorted turn_idx of a SequenceMatch's
  first-step matches still inside ``within_turns``;
- ``t:<f>`` — ``struct<bucket, count>`` (int64): the current tumbling
  bucket and its running count / sum / max; TumblingDistinct adds ``seen:
  list<value>`` (the ``__sf_<f>`` column's type), the bucket's sorted
  distinct values, null once the cap saturates;
- ``s:<f>`` — ``struct<last_ts, sid, count>`` (int64) of a SessionWindow;
- ``k:<f>`` — ``struct<ts: int64, value>``: the last KvCache set, its value
  typed as the ``__sfv_<f>`` column;
- ``last_turn`` — int64, the highest processed turn_idx (the cross-epoch
  dedup guard);
- ``last_seen`` — int64, the newest event ts (the idle-state TTL clock).

:class:`Carry` holds the table between calls and has the two operations
the engine needs, both vectorized: :meth:`Carry.gather` (seeds for a
slice's runs) and :meth:`Carry.update` (replace the touched rows).  A
checkpoint is a pickled envelope (:func:`write_checkpoint`) around the
IPC bytes of the carry, open-window (``streaming.shard``), armed-pattern
(``streaming.patterns``) and pending tables and a few small members.
"""

from __future__ import annotations

import os
import pickle

import pyarrow as pa
import pyarrow.compute as pc

from osprey_ray.rules import (
    IncrementWindow,
    KvCache,
    SequenceMatch,
    SessionWindow,
    TumblingCount,
    TumblingDistinct,
    TumblingMax,
    TumblingSum,
)

# written into every checkpoint envelope; a file without it (or with a
# different one) was written by another engine version and is rejected
CHECKPOINT_FORMAT = "osprey-arrow-carry/5"

_I64 = pa.int64()
_BUFFER = pa.list_(_I64)


def _ints(*names: str) -> list[pa.Field]:
    return [pa.field(n, _I64) for n in names]


def carry_schema(spec, schema: pa.Schema) -> pa.Schema:
    """The carry table's schema for ``spec`` over stage-1 rows of
    ``schema`` (which types the KvCache values and distinct seen-sets)."""
    fields = [pa.field("conv_id", pa.string())]
    for sf in spec.stateful:
        if isinstance(sf, IncrementWindow):
            fields.append(pa.field(f"w:{sf.name}", _BUFFER))
        elif isinstance(sf, SequenceMatch):
            fields.append(pa.field(f"q:{sf.name}", _BUFFER))
        elif isinstance(sf, (TumblingCount, TumblingSum, TumblingMax, TumblingDistinct)):
            sub = _ints("bucket", "count")
            if isinstance(sf, TumblingDistinct):
                sub.append(pa.field("seen", pa.list_(schema.field(f"__sf_{sf.name}").type)))
            fields.append(pa.field(f"t:{sf.name}", pa.struct(sub)))
        elif isinstance(sf, SessionWindow):
            fields.append(pa.field(f"s:{sf.name}", pa.struct(_ints("last_ts", "sid", "count"))))
        elif isinstance(sf, KvCache):
            value = pa.field("value", schema.field(f"__sfv_{sf.name}").type)
            fields.append(pa.field(f"k:{sf.name}", pa.struct([pa.field("ts", _I64), value])))
    return pa.schema(fields + _ints("last_turn", "last_seen"))


class Carry:
    """The mutable holder of one carry table (a table with no columns until
    the first update): a shard's, the driver's for hot conversations, or a
    caller's across ``stages.stateful.eval_released`` calls."""

    __slots__ = ("table",)

    def __init__(self, table: pa.Table | None = None) -> None:
        self.table = pa.table({}) if table is None else table

    def __len__(self) -> int:
        return self.table.num_rows

    def gather(self, cids, schema: pa.Schema | None = None, columns=None) -> pa.Table | None:
        """Seeds for runs of the conversations ``cids`` (string array): the
        carry's rows in ``cids`` order, a null row where a conversation
        carries nothing; None when nothing is carried.  ``schema`` first
        conforms the table to the scan's schema; ``columns`` gathers only
        those."""
        if not len(self):
            return None
        if schema is not None:
            self._conform(schema)
        idx = pc.index_in(pc.cast(cids, pa.string()), self.table["conv_id"])
        tbl = self.table if columns is None else self.table.select(columns)
        return tbl.take(idx)

    def update(self, rows: pa.Table) -> None:
        """Replace the rows of the conversations in ``rows`` (one row each,
        the state after a scan) and add the new ones; the table stays one
        chunk."""
        self._conform(rows.schema)
        touched = pc.is_in(self.table["conv_id"], rows["conv_id"])
        self.table = pa.concat_tables([self.table.filter(pc.invert(touched)), rows]).combine_chunks()

    def _conform(self, schema: pa.Schema) -> None:
        """Give the table ``schema`` (a spec swap changed it): a new key
        starts null, a dropped one goes, a retyped one is cast."""
        old = self.table
        if not old.schema.equals(schema):
            self.table = pa.table([
                old[f.name].cast(f.type) if f.name in old.column_names
                else pa.nulls(old.num_rows, f.type)
                for f in schema
            ], schema=schema).combine_chunks()


def to_ipc(tbl: pa.Table) -> bytes:
    """One table as an Arrow IPC stream, under its own schema."""
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, tbl.schema) as w:
        w.write_table(tbl)
    return sink.getvalue().to_pybytes()


def from_ipc(buf: bytes) -> pa.Table:
    return pa.ipc.open_stream(pa.py_buffer(buf)).read_all()


def ipc_schema(buf: bytes) -> pa.Schema:
    """The schema of an IPC stream, read without decoding its batches."""
    return pa.ipc.open_stream(pa.py_buffer(buf)).schema


def write_checkpoint(path: str, payload: dict) -> int:
    """Atomically write a checkpoint envelope; returns its size in bytes."""
    tmp = path + f".tmp.{os.getpid()}"
    with open(tmp, "wb") as f:
        pickle.dump({"format": CHECKPOINT_FORMAT, **payload}, f,
                    protocol=pickle.HIGHEST_PROTOCOL)
    size = os.path.getsize(tmp)
    os.replace(tmp, path)
    return size


def read_checkpoint(path: str) -> dict:
    """Load a checkpoint envelope written by :func:`write_checkpoint`; any
    other file fails with the format it expected."""
    with open(path, "rb") as f:
        payload = pickle.load(f)
    got = payload.get("format") if isinstance(payload, dict) else None
    if got != CHECKPOINT_FORMAT:
        raise ValueError(
            f"checkpoint {path} is not a {CHECKPOINT_FORMAT!r} checkpoint "
            f"(format: {got!r}) — it was written by an older engine version; "
            "resume with the version that wrote it"
        )
    return payload
