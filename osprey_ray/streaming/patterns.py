"""Watermark-driven CEP patterns on one armed-A tracker: ``rules.FollowedBy``
(the pairs stream, a windowed stream-stream interval join) and
``rules.AbsenceAlert`` (the absence stream, its anti-join).

A turn matching ``first`` arms an A at its ``ts``; a later turn of the same
conversation matching ``second`` with ``b_ts in (a_ts, a_ts + W]`` matches
it.  A pairs pattern emits one row per matched ``(a, b)`` at the B turn's
release; an absence pattern disarms every matched A.  Once the watermark
passes ``a + W`` an armed A expires: an absence pattern emits it as an
alert row, a pairs pattern drops it.  Both kinds carry one state, the
table a shard holds and its checkpoint stores: :data:`ARMED_SCHEMA`, one
row per armed A (``kind`` ``"ab"`` | ``"fb"``, so same-named patterns of
the two kinds never share a row; ``pattern``; ``conv_id``; ``a_ts``).
The reference expresses absence with a timed label that the B-rule
removes before expiry (``expires_after`` + remove effects); here both are
first-class engine emissions like the window-aggregate stream.

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
import pyarrow.compute as pc

from osprey_ray.expr import EvalContext, _as_array, _bool_operand
from osprey_ray.rules import FollowedBy
from osprey_ray.stages.stateful import _conv_codes, _group_search, _in_order, sort_and_dedup

ALERT_SCHEMA = pa.schema([
    ("pattern", pa.string()), ("conv_id", pa.string()), ("first_ts", pa.timestamp("us")),
    ("deadline", pa.timestamp("us")),
])
PAIR_SCHEMA = pa.schema([
    ("pattern", pa.string()), ("conv_id", pa.string()), ("first_ts", pa.timestamp("us")),
    ("second_ts", pa.timestamp("us")),
])
# the armed A's of every pattern: one row per A turn, a_ts in µs
ARMED_SCHEMA = pa.schema([
    ("kind", pa.string()), ("pattern", pa.string()), ("conv_id", pa.string()), ("a_ts", pa.int64()),
])
# (not Schema.empty_table(), which imports pandas into every engine worker)
NO_ARMED = pa.Table.from_batches([], schema=ARMED_SCHEMA)
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


def _stream(schema: pa.Schema, pattern, conv, ts1, ts2) -> pa.Table | None:
    """A pairs or alerts table sorted by all four columns, so each epoch's
    file is byte-deterministic; None when empty."""
    if not len(ts1):
        return None
    ts = [pa.array(t).cast(pa.timestamp("us")) for t in (ts1, ts2)]
    tbl = pa.table([pattern, conv, *ts], schema=schema)
    return tbl.sort_by([(f, "ascending") for f in schema.names])


def track(
    armed: pa.Table, released: pa.Table | None, patterns: list, watermark_us: int
) -> tuple[pa.Table, pa.Table | None, pa.Table | None]:
    """Advance every pattern by one released slice and one watermark:
    ``(armed, released, patterns, watermark)`` -> ``(armed, pairs,
    alerts)``, the streams ``None`` when empty.  Python loops over
    patterns only: the B's in ``(a, a + W]`` of each A's conversation are
    found by one :func:`_group_search` over (conversation, ts).  Rows of
    patterns no longer in ``patterns`` are dropped."""
    if not patterns and not armed.num_rows:
        return armed, None, None
    kinds = pa.array([_kind(p) for p in patterns], pa.string())
    names = pa.array([p.name for p in patterns], pa.string())
    W = np.array([_window_us(p) for p in patterns], np.int64)
    pid = pc.index_in(pc.binary_join_element_wise(armed["kind"], armed["pattern"], ""),
                      pc.binary_join_element_wise(kinds, names, ""))
    armed = armed.filter(pc.is_valid(pid))
    pid, a_ts = pid.drop_null().to_numpy(), armed["a_ts"].to_numpy()
    # conversations are codes into ``convs``: the slice's, then one per
    # carried row, so a carried A whose conversation is not in the slice
    # matches nothing
    convs = pc.cast(armed["conv_id"].combine_chunks(), pa.string())
    code = np.arange(len(convs))
    pairs = [(np.empty(0, np.int64),) * 4]  # (pattern, conv, a, b) parts
    if released is not None and released.num_rows and patterns:
        rcode, dictionary = _conv_codes(released)
        hit = pc.fill_null(pc.index_in(convs, dictionary), -1).to_numpy()
        code = np.where(hit >= 0, hit, code + len(dictionary))
        convs = pa.concat_arrays([pc.cast(dictionary, pa.string()), convs])
        ts = released["ts"].cast(pa.int64()).to_numpy()
        masks = pattern_masks(released, patterns)
        state = []
        for i, p in enumerate(patterns):
            amask, bmask = masks[_kind(p), p.name]
            ca = np.concatenate([code[pid == i], rcode[amask]])
            ta = np.concatenate([a_ts[pid == i], ts[amask]])
            cb, tb = rcode[bmask], ts[bmask]
            if len(ca) and len(cb):
                if not _in_order(cb, tb):  # only when ts decreases along turns
                    o = np.lexsort((tb, cb))
                    cb, tb = cb[o], tb[o]
                o = np.argsort(ca, kind="stable")
                ca, ta = ca[o], ta[o]
                # every conversation's range spans the whole slice
                lo = np.full(len(convs), min(ta.min(), tb.min()))
                span = np.full(len(convs), max(ta.max() + W[i], tb.max()) - lo[0] + 1)
                # the B's in (a, a + W] are tb[first:first + n]
                first = _group_search(tb, cb, ta, ca, lo, span, "right")
                n = _group_search(tb, cb, ta + W[i], ca, lo, span, "right") - first
                if _kind(p) == "ab":
                    ca, ta = ca[n == 0], ta[n == 0]
                else:
                    pos = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n - first, n)
                    pairs.append((np.full(len(pos), i), np.repeat(ca, n), np.repeat(ta, n), tb[pos]))
            state.append((np.full(len(ca), i), ca, ta))
        pid, code, a_ts = (np.concatenate(c) for c in zip(*state))
    ppid, pcode, first_ts, second_ts = (np.concatenate(c) for c in zip(*pairs))
    pair_tbl = _stream(PAIR_SCHEMA, names.take(ppid), convs.take(pcode), first_ts, second_ts)
    # expiry: no future released row can match an A with a + W <=
    # watermark — absence patterns emit it, pairs patterns drop it
    deadline = a_ts + W[pid]
    due = deadline <= watermark_us
    alert = due & pc.equal(kinds, "ab").to_numpy(zero_copy_only=False)[pid]
    alert_tbl = _stream(ALERT_SCHEMA, names.take(pid[alert]), convs.take(code[alert]),
                        a_ts[alert], deadline[alert])
    keep = ~due
    armed = pa.table([kinds.take(pid[keep]), names.take(pid[keep]), convs.take(code[keep]),
                      a_ts[keep]], schema=ARMED_SCHEMA)
    return armed, pair_tbl, alert_tbl


def absence_stream_batch(tbl: pa.Table, absences: list) -> pa.Table:
    """Batch twin: the full alert stream a bounded input produces after the
    end-of-input flush (watermark -> +inf) — one :func:`track` over the
    whole (sorted, deduped) table.  Used as the golden reference for the
    streaming emission and by batch pipelines."""
    _, _, alerts = track(NO_ARMED, sort_and_dedup(tbl, {}), absences, np.iinfo(np.int64).max)
    return alerts if alerts is not None else pa.Table.from_batches([], schema=ALERT_SCHEMA)
