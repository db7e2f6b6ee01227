"""Columnar checkpoint codec for the carried per-conversation state.

A streaming checkpoint holds three kinds of state: the carry ``states``
(``conv_id -> {state key -> value}``, see the ``stages.stateful`` module
docstring), the buffered pending row tables, and a handful of small
bookkeeping members.  The first two are the bulk of the bytes, so they are
written as Arrow IPC — :func:`encode_carry` turns the carry into one table
with one row per conversation — and the small members ride in a pickled
envelope around them (:func:`write_checkpoint` / :func:`read_checkpoint`).

Carry table columns (a null cell means the key is absent for that
conversation):

- ``conv_id`` — string, unique;
- ``w:<f>``, ``q:<f>`` — ``list<int64>`` event buffers → int64 ndarrays;
- ``t:<f>`` — ``struct<bucket, count>`` (int64) for TumblingCount, Sum and
  Max, plus ``seen: list<value>`` for TumblingDistinct, where a null seen
  is the saturated state (``None``) and a non-null one a ``frozenset``;
  the count decodes to ``int``, the bucket to ``np.int64`` (``int`` for
  TumblingDistinct), as ``eval_released`` writes them;
- ``s:<f>`` — ``struct<last_ts, sid, count>`` (int64);
- ``k:<f>`` — ``struct<ts: int64, value>``; the value type is the KvCache
  column's own, inferred from the values;
- ``last_turn``, ``lev``, ``dseq`` — int64;
- ``delayed`` — ``list<struct<ts_eff, seq, label, status, exp, reason>>``
  in heap order (``exp`` nullable).

Any other key is an error: the codec has no per-value pickle fallback.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pyarrow as pa

# written into every checkpoint envelope; a file without it (or with a
# different one) was written by another engine version and is rejected
CHECKPOINT_FORMAT = "osprey-arrow-carry/2"

_INT_KEYS = ("last_turn", "lev", "dseq")
_DELAYED_FIELDS = ("ts_eff", "seq", "label", "status", "exp", "reason")
_DELAYED = pa.struct(list(zip(
    _DELAYED_FIELDS,
    (pa.int64(), pa.int64(), pa.string(), pa.string(), pa.int64(), pa.string()),
)))


def _ints(xs: list, absent: np.ndarray) -> pa.Array:
    return pa.array(np.array(xs, dtype=np.int64), mask=absent)


def _buffers(vals: list, absent: np.ndarray) -> pa.Array:
    """Per-conversation int64 buffers (None = absent) → ``list<int64>``."""
    lens = [0 if v is None else len(v) for v in vals]
    offsets = np.zeros(len(vals) + 1, dtype=np.int32)
    np.cumsum(lens, out=offsets[1:])
    present = [v for v in vals if v is not None and len(v)]
    flat = np.concatenate(present).astype(np.int64) if present else np.empty(0, np.int64)
    return pa.ListArray.from_arrays(pa.array(offsets), pa.array(flat), mask=pa.array(absent))


def _struct(fields: list[tuple[str, pa.Array]], absent: np.ndarray) -> pa.Array:
    return pa.StructArray.from_arrays(
        [a for _, a in fields], names=[n for n, _ in fields], mask=pa.array(absent)
    )


def _tumbling(key: str, vals: list, absent: np.ndarray) -> pa.Array:
    widths = {len(v) for v in vals if v is not None}
    if len(widths) != 1:
        raise ValueError(f"carry key {key!r} mixes state shapes {sorted(widths)}")
    fields = [
        ("bucket", _ints([0 if v is None else v[0] for v in vals], absent)),
        ("count", _ints([0 if v is None else v[1] for v in vals], absent)),
    ]
    if widths == {3}:  # TumblingDistinct: + seen-set, None once saturated
        seen = [None if v is None or v[2] is None else sorted(v[2]) for v in vals]
        flat = [x for s in seen if s for x in s]
        vtype = pa.array(flat).type if flat else pa.string()
        fields.append(("seen", pa.array(seen, pa.list_(vtype))))
    return _struct(fields, absent)


def _column(key: str, vals: list) -> pa.Array:
    absent = np.array([v is None for v in vals], dtype=bool)
    kind = key[:2]
    if kind in ("w:", "q:"):
        return _buffers(vals, absent)
    if kind == "t:":
        return _tumbling(key, vals, absent)
    if kind == "s:":
        return _struct(
            [(name, _ints([0 if v is None else v[i] for v in vals], absent))
             for i, name in enumerate(("last_ts", "sid", "count"))],
            absent,
        )
    if kind == "k:":
        return _struct(
            [("ts", _ints([0 if v is None else v[0] for v in vals], absent)),
             ("value", pa.array([None if v is None else v[1] for v in vals]))],
            absent,
        )
    if key in _INT_KEYS:
        return _ints([0 if v is None else v for v in vals], absent)
    if key == "delayed":
        return pa.array(
            [None if v is None else [dict(zip(_DELAYED_FIELDS, e)) for e in v] for v in vals],
            pa.list_(_DELAYED),
        )
    raise ValueError(f"carry state key {key!r} has no columnar encoding")


def encode_carry(states: dict) -> pa.Table:
    """The carry ``states`` as one table, one row per conversation."""
    cids = list(states)
    sts = [states[c] for c in cids]
    keys = sorted({k for st in sts for k in st})
    cols = {"conv_id": pa.array(cids, pa.string())}
    for key in keys:
        cols[key] = _column(key, [st.get(key) for st in sts])
    return pa.table(cols)


def _decode_column(key: str, arr: pa.Array) -> list:
    """Per-row decoded values of one carry column (None = absent)."""
    kind = key[:2]
    if kind in ("w:", "q:"):
        offsets = arr.offsets.to_numpy()
        flat = arr.values.to_numpy(zero_copy_only=False)
        return [
            flat[offsets[i] : offsets[i + 1]].copy() if ok else None
            for i, ok in enumerate(arr.is_valid().to_pylist())
        ]
    rows = arr.to_pylist()
    if kind == "t:":
        out = []
        for r in rows:
            if r is None:
                out.append(None)
            elif "seen" in r:
                seen = r["seen"]
                out.append((r["bucket"], r["count"],
                            None if seen is None else frozenset(seen)))
            else:
                out.append((np.int64(r["bucket"]), r["count"]))
        return out
    if kind == "s:":
        return [None if r is None else (r["last_ts"], r["sid"], r["count"]) for r in rows]
    if kind == "k:":
        return [None if r is None else (r["ts"], r["value"]) for r in rows]
    if key in _INT_KEYS:
        return rows
    if key == "delayed":
        return [None if r is None else [tuple(e.values()) for e in r] for r in rows]
    raise ValueError(f"carry column {key!r} has no columnar decoding")


def decode_carry(tbl: pa.Table) -> dict:
    """Inverse of :func:`encode_carry`: ``conv_id -> state dict``, value
    types included."""
    cids = tbl.column("conv_id").to_pylist()
    states: dict = {c: {} for c in cids}
    for key in tbl.column_names:
        if key == "conv_id":
            continue
        vals = _decode_column(key, tbl.column(key).combine_chunks())
        for c, v in zip(cids, vals):
            if v is not None:
                states[c][key] = v
    return states


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
