"""Watermark-driven CEP patterns on one armed-A tracker: ``rules.FollowedBy``
(the pairs stream, a windowed stream-stream interval join) and
``rules.AbsenceAlert`` (the absence stream, its anti-join).

A turn matching ``first`` arms an A at its ``ts``; a later turn of the same
conversation matching ``second`` with ``b_ts in (a_ts, a_ts + W]`` matches
it.  A pairs pattern emits one row per matched ``(a, b)`` at the B turn's
release; an absence pattern disarms every matched A.  Once the watermark
passes ``a + W`` an armed A expires: an absence pattern emits it as an
alert row, a pairs pattern drops it.  Both kinds carry the same state,
``pending[(kind, pattern, conv_id)] -> sorted int64 armed a_ts`` (kind
``"ab"`` or ``"fb"``, so same-named patterns of the two kinds never share
an entry).  The reference expresses absence with a timed label that the
B-rule removes before expiry (``expires_after`` + remove effects); here
both are first-class engine emissions like the window-aggregate stream.

Correctness argument for the per-slice protocol (the shard calls
:func:`track` once per epoch with the watermark-released,
``(conv, turn, ts)``-sorted slice):

- any A that can match a released B has ``a_ts < b_ts <= watermark``, so
  the A was released in this slice or an earlier one — it is either in
  the slice or in the carried state, which is why a pairs pattern emits
  the batch answer and a B released in a LATER epoch than its A still
  disarms it (the A is pending: its deadline ``a+W >= b > watermark``
  at arm time);
- a B released in an EARLIER epoch than its A cannot match it: released
  rows have ``ts <= watermark`` and later epochs only release
  ``ts > watermark``, so ``b_ts < a_ts`` — outside ``(a, a+W]``;
- expiry waits for ``watermark >= a + W``: every future released row has
  ``ts > watermark >= a + W``, so no future B can match an expired A —
  an emitted alert is final and a dropped A loses no pair.  State is
  bounded by W × arrival rate.
Hence the pair multiset equals the batch interval join and the alerts
equal the batch anti-join, independent of epoch cuts.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from osprey_ray.expr import EvalContext, _as_array, _bool_operand
from osprey_ray.rules import FollowedBy
from osprey_ray.stages.stateful import _conv_codes, sort_and_dedup

ALERT_SCHEMA = pa.schema(
    [
        ("pattern", pa.string()),
        ("conv_id", pa.string()),
        ("first_ts", pa.timestamp("us")),
        ("deadline", pa.timestamp("us")),
    ]
)
PAIR_SCHEMA = pa.schema(
    [
        ("pattern", pa.string()),
        ("conv_id", pa.string()),
        ("first_ts", pa.timestamp("us")),
        ("second_ts", pa.timestamp("us")),
    ]
)
# the shard's other fixed-layout output streams (results' schema is the spec's)
WINDOW_SCHEMA = pa.schema([
    ("window", pa.string()), ("conv_id", pa.string()), ("start", pa.timestamp("us")),
    ("end", pa.timestamp("us")), ("agg_count", pa.int64()),
])
LABEL_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("ts", pa.timestamp("us")), ("label", pa.string()),
    ("status", pa.string()), ("reason", pa.string()),
])
LATE_SCHEMA = pa.schema(
    [("conv_id", pa.string()), ("turn_idx", pa.int32()), ("ts", pa.timestamp("us"))]
)


def spec_patterns(spec) -> list:
    """The spec's AbsenceAlert and FollowedBy patterns as one list."""
    return [*spec.absences, *spec.follows]


def _kind(p) -> str:
    return "fb" if isinstance(p, FollowedBy) else "ab"


def _window_us(p) -> np.int64:
    return np.int64(p.window_seconds * 1e6)


def pattern_masks(tbl: pa.Table, patterns: list) -> dict[tuple, tuple]:
    """``(kind, name) -> (first, second)`` boolean masks.  The streaming
    path reads the hidden ``__sf_ab__*`` / ``__sf_fb__*`` columns stage 1
    precomputed (so raw input columns never need to survive the stateless
    stage); on a raw table (batch twin / tests) the predicates are
    evaluated here — two vectorized Expr evaluations per pattern, zero row
    loops.  Failed/null predicate rows collapse to False (rule
    semantics)."""

    def _np(col) -> np.ndarray:
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        return col.to_numpy(zero_copy_only=False).astype(bool)

    out = {}
    ctx = None
    for p in patterns:
        kind = _kind(p)
        ca, cb = f"__sf_{kind}__{p.name}__a", f"__sf_{kind}__{p.name}__b"
        if ca in tbl.column_names and cb in tbl.column_names:
            out[kind, p.name] = (_np(tbl[ca]), _np(tbl[cb]))
        else:
            if ctx is None:
                ctx = EvalContext(tbl)
            a = _bool_operand(_as_array(p.first.eval_batch(ctx), ctx.n))
            b = _bool_operand(_as_array(p.second.eval_batch(ctx), ctx.n))
            out[kind, p.name] = (_np(a), _np(b))
    return out


def _table(schema: pa.Schema, rows: list[tuple]) -> pa.Table | None:
    """``(pattern, conv_id, ts1 array, ts2 array)`` chunks → one table
    sorted by all four columns, so each epoch's file is byte-deterministic."""
    if not rows:
        return None
    n = [len(r[2]) for r in rows]
    cols = [
        pa.array([r[0] for r, k in zip(rows, n) for _ in range(k)], pa.string()),
        pa.array([r[1] for r, k in zip(rows, n) for _ in range(k)], pa.string()),
        pa.array(np.concatenate([r[2] for r in rows])).cast(pa.timestamp("us")),
        pa.array(np.concatenate([r[3] for r in rows])).cast(pa.timestamp("us")),
    ]
    tbl = pa.Table.from_arrays(cols, schema=schema)
    return tbl.sort_by([(f, "ascending") for f in schema.names])


def track(
    pending: dict, released: pa.Table | None, patterns: list, watermark_us: int
) -> tuple[pa.Table | None, pa.Table | None]:
    """Advance every pattern by one released slice and one watermark;
    return the epoch's ``(pairs, alerts)`` tables (``None`` when empty).
    Python touches one entry per (pattern, conversation-in-slice) plus the
    expiry sweep; within an entry the interval test is searchsorted.
    Entries of patterns no longer in ``patterns`` are dropped."""
    pairs: list[tuple] = []
    alerts: list[tuple] = []
    if released is not None and released.num_rows and patterns:
        codes, dictionary = _conv_codes(released)
        names = dictionary.to_pylist()
        ts = released["ts"].cast(pa.int64()).to_numpy()
        change = np.empty(len(codes), dtype=bool)
        change[0] = True
        change[1:] = codes[1:] != codes[:-1]
        starts = np.flatnonzero(change)
        ends = np.append(starts[1:], len(codes))
        masks = pattern_masks(released, patterns)
        for p in patterns:
            kind = _kind(p)
            amask, bmask = masks[kind, p.name]
            W = _window_us(p)
            for s, e in zip(starts, ends):
                a_new = ts[s:e][amask[s:e]]
                b_new = ts[s:e][bmask[s:e]]
                if not len(a_new) and not len(b_new):
                    continue
                cid = names[codes[s]]
                key = (kind, p.name, cid)
                prev = pending.get(key)
                cand = np.sort(a_new if prev is None else np.concatenate([prev, a_new]))
                if len(b_new) and len(cand):
                    b = np.sort(b_new)
                    # B's in (a, a+W] are b[lo:hi] for each armed a
                    lo = np.searchsorted(b, cand, side="right")
                    hi = np.searchsorted(b, cand + W, side="right")
                    counts = hi - lo
                    if kind == "ab":
                        cand = cand[counts == 0]
                    elif counts.any():
                        off = np.cumsum(counts) - counts
                        pos = np.arange(counts.sum()) - np.repeat(off - lo, counts)
                        pairs.append((p.name, cid, np.repeat(cand, counts), b[pos]))
                if len(cand):
                    pending[key] = cand
                elif prev is not None:
                    del pending[key]
    # expiry sweep: no future released row can match an A with
    # a + W <= watermark — absence patterns emit it, pairs patterns drop it
    live = {(_kind(p), p.name): _window_us(p) for p in patterns}
    for key in list(pending):
        W = live.get(key[:2])
        if W is None:
            del pending[key]
            continue
        arr = pending[key]
        due = arr + W <= watermark_us
        if not due.any():
            continue
        if key[0] == "ab":
            alerts.append((key[1], key[2], arr[due], arr[due] + W))
        if due.all():
            del pending[key]
        else:
            pending[key] = arr[~due]
    return _table(PAIR_SCHEMA, pairs), _table(ALERT_SCHEMA, alerts)


def absence_stream_batch(tbl: pa.Table, absences: list) -> pa.Table:
    """Batch twin: the full alert stream a bounded input produces after the
    end-of-input flush (watermark -> +inf) — one :func:`track` over the
    whole (sorted, deduped) table.  Used as the golden reference for the
    streaming emission and by batch pipelines."""
    _, alerts = track({}, sort_and_dedup(tbl, {}), absences, np.iinfo(np.int64).max)
    return alerts if alerts is not None else ALERT_SCHEMA.empty_table()
