"""Stage 2: keyed stateful evaluation (windows, CEP, labels, joins).

This is the engine's only stateful stage (SURVEY §7 step 5): input rows are
hash-partitioned by ``conv_id`` and evaluated in strict
``(conv_id, turn_idx, ts)`` order within each partition.  Window math has
one implementation, :func:`scan_windows`: whole-array segmented scans over
runs of ordered rows, each run seeded from its carried state, leaving each
run's carry-out.  A run is any group of consecutive rows:
:func:`eval_released` scans conversations (seeds read in one gather of the
carry table, the carry-out written back as one update), and
hot-conversation salting scans ``(conv, turn block)`` runs, unseeded to
summarise blocks and seeded in one :func:`eval_runs` call to evaluate them
— no window math runs per conversation or per block.  Rule values
(:func:`_rule_values`) and output assembly (:func:`_assemble`) likewise
exist once for both kinds of run.
The label subsystem — whose read-your-writes ordering is inherently
sequential (a turn's LabelAdd is visible to later turns but not itself,
mirroring write-after-classify in
/root/reference/osprey_worker/src/osprey/worker/sinks/sink/output_sink.py:156-350)
— walks only mutation-candidate rows, external events and expiry points,
reconstructing HasLabel columns vectorized from a change log.

The same :func:`eval_released` core serves both execution modes:

- batch: fresh state per partition, one call (watermark = +inf);
- streaming: a persistent shard actor carries a ``Carry`` / ``label_store``
  across micro-batch epochs and calls this on each watermark-released,
  ordered slice of rows.

State carried per conversation is one row of the carry table
(``state.carry``: window tails, tumbling and session partials, CEP
first-match tails, the last KV write, ``last_turn`` and ``last_seen``); the
label walk's position (consumed label events, queued delayed mutations)
is kept by the ``LabelStore``.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from osprey_ray.expr import EvalContext, RowContext, ExprError, _as_array, _bool_operand
from osprey_ray.rules import (
    DeclareVerdict,
    HasLabel,
    IncrementWindow,
    KvCache,
    LabelAdd,
    LabelRemove,
    RuleSpec,
    SequenceMatch,
    SessionWindow,
    TumblingCount,
    TumblingDistinct,
    TumblingMax,
    TumblingSum,
    WindowCount,
)
from osprey_ray.stages.stateless import RulePlan, split_rules
from osprey_ray.state.carry import Carry, carry_schema
from osprey_ray.state.labels import LabelStore

NEG_INF = np.iinfo(np.int64).min


class _LazyRow:
    """Dict-like view of one row of an Arrow table, materializing cells only
    on access — the sparse label walk touches few rows and fewer columns, so
    eagerly converting every column per candidate row would waste work."""

    __slots__ = ("_tbl", "_i", "_names")

    def __init__(self, tbl: pa.Table, i: int) -> None:
        self._tbl = tbl
        self._i = i
        self._names = None

    def __contains__(self, name: str) -> bool:
        if self._names is None:
            self._names = set(self._tbl.column_names)
        return name in self._names

    def __getitem__(self, name: str):
        return self._tbl.column(name)[self._i].as_py()


def _conv_codes(tbl: pa.Table, column: str = "conv_id") -> tuple[np.ndarray, pa.Array]:
    """Dictionary-encode conv_id (or another grouping ``column``) → (int
    codes, dictionary array).  The grouping key never round-trips through
    Python strings.  Accepts a column that is already dictionary-encoded
    (the exchange ships conv_id dict-encoded to cut object-store bytes)."""
    col = tbl[column]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_dictionary(col.type):
        enc = col
    else:
        enc = col.dictionary_encode()
    return enc.indices.to_numpy(zero_copy_only=False).astype(np.int64), enc.dictionary


def route_keys(keys, num_parts: int) -> np.ndarray:
    """The conversation route: ``crc32(key) % num_parts`` for each string
    key (stable across processes — never Python ``hash``).  Callers pass
    unique keys, usually a ``_conv_codes`` dictionary, and gather by code;
    batch, streaming and a rescale re-deal all deal through this ring."""
    return np.array([zlib.crc32(k.encode()) % num_parts for k in keys], dtype=np.int32)


def _in_order(*keys: np.ndarray) -> bool:
    """True when rows already ascend by ``keys`` (lexicographically), so a
    stable lexsort would be the identity and it and its take are skipped."""
    tie = True
    for k in keys:
        if (tie & (k[1:] < k[:-1])).any():
            return False
        tie = tie & (k[1:] == k[:-1])
    return True


def sort_and_dedup(tbl: pa.Table, states: Carry | dict | None) -> pa.Table:
    """Order by (conv_id, turn_idx, ts) and exact-dedup on (conv_id,
    turn_idx) keep-first (SURVEY §2.8 — the at-least-once duplicate guard;
    the reference relies on idempotent keyed sinks,
    worker/lib/storage/stored_execution_result.py:182-193).  Also drops rows
    at or below a conversation's already-processed ``last_turn`` (cross-epoch
    duplicates / too-late re-orderings in streaming mode).

    Grouping uses dictionary codes (first-appearance order) + numpy lexsort
    — deterministic for a deterministic input row order, and conversations
    are mutually independent so inter-conversation order never affects
    results.  Input already in that order (every batch exchange partition)
    skips the sort after one O(n) check."""
    if tbl.num_rows == 0:
        return tbl
    codes, dictionary = _conv_codes(tbl)
    turn = tbl["turn_idx"].to_numpy()
    ts = tbl["ts"].cast(pa.int64()).to_numpy()
    if not _in_order(codes, turn, ts):
        order = np.lexsort((ts, turn, codes))
        codes = codes[order]
        turn = turn[order]
        tbl = tbl.take(pa.array(order))
    n = len(codes)
    keep = np.ones(n, dtype=bool)
    same_conv = codes[1:] == codes[:-1]
    keep[1:] = ~(same_conv & (turn[1:] == turn[:-1]))
    if states:
        # drop rows already processed in earlier epochs
        starts = np.flatnonzero(np.concatenate([[True], ~same_conv]))
        seed = states.gather(dictionary.take(pa.array(codes[starts])), columns=["last_turn"])
        last = pc.fill_null(seed["last_turn"], NEG_INF).to_numpy()
        keep &= turn > np.repeat(last, np.diff(np.append(starts, n)))
    if keep.all():
        return tbl
    return tbl.filter(pa.array(keep))


def _running_segment_count(flag: np.ndarray, new_seg: np.ndarray, carry) -> np.ndarray:
    """Running count (sum) of ``flag`` within segments delimited by
    ``new_seg`` (True = segment starts at that row; ``new_seg[0]`` is True),
    plus the per-row ``carry``."""
    cs = np.cumsum(flag.astype(np.int64))
    seg_start = np.maximum.accumulate(np.where(new_seg, np.arange(len(flag)), 0))
    return cs - cs[seg_start] + flag[seg_start] + carry


def _running_segment_max(vals: np.ndarray, new_seg: np.ndarray, carry) -> np.ndarray:
    """Running max of non-negative int64 ``vals`` within segments delimited
    by ``new_seg`` (True = segment starts at that row), floored by the
    per-row ``carry``.

    Vectorized via the offset trick: add ``seg_id * (max(vals)+1)`` so a
    plain ``np.maximum.accumulate`` can never leak a value across a segment
    boundary (later segments sit strictly higher), then subtract the offset
    back out.  Falls back to a pandas groupby cummax when the composite
    would overflow int64 (astronomical segment counts x value range)."""
    n = len(vals)
    if n == 0:
        return vals.astype(np.int64)
    v = vals.astype(np.int64)
    seg = np.cumsum(new_seg.astype(np.int64))
    off = int(v.max()) + 1
    if int(seg[-1]) * off + off < np.iinfo(np.int64).max:
        r = v + seg * np.int64(off)
        out = np.maximum.accumulate(r) - seg * np.int64(off)
    else:  # pragma: no cover - overflow-safe fallback
        import pandas as pd

        out = pd.Series(v).groupby(seg).cummax().to_numpy()
    return np.maximum(out, carry)


def _opening_carry(new_seg: np.ndarray, starts: np.ndarray, gidx: np.ndarray, seed) -> np.ndarray:
    """Per-row carry: ``seed[g]`` on the rows of group g's opening segment,
    0 elsewhere."""
    seg = np.cumsum(new_seg)
    return np.where(seg == seg[starts][gidx], seed[gidx], 0)


# composite ranges start a new chunk past this many units, so a chunk spans
# less than 2**61 + one group's width — inside int64 for any real timestamp
_CHUNK = float(1 << 61)


def _group_search(ev, egid, q, qgid, lo, width, side: str) -> np.ndarray:
    """Position in ``ev`` of each query ``q[i]`` searchsorted among the
    events of its own group ``qgid[i]``.  Events are sorted by (``egid``,
    ``ev``), queries by group, and group g's values lie in ``[lo[g], lo[g]
    + width[g])``.  Each group is shifted into its own composite range, so
    one searchsorted respects group boundaries; far-apart groups would wrap
    the int64 offsets, so groups run in chunks whose composite range fits
    (offsets are differences of one wrapping uint64 cumsum)."""
    width = width.astype(np.uint64)
    wf = width.astype(np.float64)
    chunk = ((np.cumsum(wf) - wf) // _CHUNK).astype(np.int64)
    cu = np.cumsum(width) - width
    base = (cu - cu[np.searchsorted(chunk, chunk)]).astype(np.int64)
    ep = ev - lo[egid] + base[egid]
    qp = q - lo[qgid] + base[qgid]
    first = np.flatnonzero(np.append(True, np.diff(chunk)))  # each chunk's first group
    ecut = np.append(np.searchsorted(egid, first), len(ev))
    qcut = np.append(np.searchsorted(qgid, first), len(q))
    pos = np.empty(len(q), dtype=np.int64)
    for e0, e1, q0, q1 in zip(ecut[:-1], ecut[1:], qcut[:-1], qcut[1:]):
        pos[q0:q1] = e0 + np.searchsorted(ep[e0:e1], qp[q0:q1], side=side)
    return pos


def _sliding(key, flag, gidx, starts, ends, bufs, w, side: str, incl_self: bool):
    """Sliding-window event counts for every row in whole-array ops.

    Events are the flagged rows, preceded in each group by its carried
    buffer ``bufs[g]`` (a ``list<int64>`` of sorted keys aligned to groups,
    null where none; ``bufs=None``: no group carries one).  Each row's
    window start is one :func:`_group_search` over its group's events.

    ``side="right"`` counts events with key in (k - w, k] (sliding
    windows), ``"left"`` in [k - w, k) (CEP within-turns).  Returns (per-row
    counts, all events as original keys in group order, per-group end of
    events, per-group start of the carry-out: the first event inside the
    window of the group's last row)."""
    G = len(starts)
    ev, egid = key[flag], gidx[flag]
    lo_g = np.minimum.reduceat(key, starts)
    hi_g = np.maximum.reduceat(key, starts)
    blen = np.zeros(G, dtype=np.int64)
    if bufs is not None:
        blen = pc.fill_null(pc.list_value_length(bufs), 0).to_numpy().astype(np.int64)
    if blen.any():
        bev = pc.list_flatten(bufs).to_numpy()
        bgid = np.repeat(np.arange(G), blen)
        nz = blen > 0
        bstarts = (np.cumsum(blen) - blen)[nz]
        lo_g[nz] = np.minimum(lo_g[nz], np.minimum.reduceat(bev, bstarts))
        hi_g[nz] = np.maximum(hi_g[nz], np.maximum.reduceat(bev, bstarts))
        allg = np.concatenate([bgid, egid])
        order = np.argsort(allg, kind="stable")  # buffer ahead of own rows
        ev, egid = np.concatenate([bev, ev])[order], allg[order]
    ev_end = np.cumsum(np.bincount(egid, minlength=G))
    fl = flag.astype(np.int64)
    added = np.cumsum(fl) + np.cumsum(blen)[gidx]
    if not incl_self:
        added -= fl
    lo = _group_search(ev, egid, key - w, gidx, lo_g - w, hi_g - lo_g + w + 1, side)
    return added - lo, ev, ev_end, lo[ends - 1]


def _tails(ev: np.ndarray, a: np.ndarray, e: np.ndarray) -> pa.ListArray:
    """``list<int64>`` whose entry g is ``ev[a[g]:e[g]]``."""
    lens = e - a
    offsets = np.zeros(len(a) + 1, dtype=np.int32)
    np.cumsum(lens, out=offsets[1:])
    pos = np.arange(offsets[-1]) - np.repeat(offsets[:-1] - a, lens)
    return pa.ListArray.from_arrays(pa.array(offsets), pa.array(ev[pos], pa.int64()))


def _struct(typ: pa.StructType, arrays: list, valid: np.ndarray | None = None) -> pa.StructArray:
    """A carry struct column of type ``typ`` from its field arrays."""
    mask = None if valid is None else pa.array(~valid)
    return pa.StructArray.from_arrays(
        [a if isinstance(a, pa.Array) else pa.array(a) for a in arrays],
        fields=list(typ), mask=mask,
    )


def _tumbling_distinct(col, sf, bucket, new_seg, starts, ends, gidx, cont, carry, seed, typ):
    """Running distinct count of string ``col`` per (conversation, bucket)
    segment, capped.  ``cont[g]`` marks a group whose carried bucket
    continues: ``carry`` holds its carried count on the opening segment and
    values in its carried seen-set (``seed``'s ``seen`` field, null once
    saturated) do not count again there.  Returns (counts, carry-out of
    struct type ``typ`` | None when ``typ`` is None): the bucket, count and
    sorted seen-set of the last segment — joined by the carried one when
    the opening segment is also the last — null once saturated."""
    import pandas as pd

    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    enc = col if pa.types.is_dictionary(col.type) else pc.dictionary_encode(col)
    codes = pc.fill_null(enc.indices.cast(pa.int64()), -1).to_numpy(zero_copy_only=False)
    # first occurrence of each value within its segment: hash duplicated on
    # a composite seg*K+code key, O(n)
    seg = np.cumsum(new_seg) - 1
    K = np.int64(len(enc.dictionary) + 2)
    first = ~pd.Series(seg * K + codes).duplicated().to_numpy() & (codes >= 0)
    counted = first
    seen_in = sg = None
    if seed is not None and cont.any():
        seen_in = pc.struct_field(seed, "seen")
        sg = pc.list_parent_indices(seen_in).to_numpy()
        sc = pc.fill_null(pc.index_in(pc.list_flatten(seen_in), enc.dictionary), -1).to_numpy()
        hit = (sc >= 0) & cont[sg]
        if hit.any():
            opening = seg == seg[starts][gidx]
            counted = first & ~(opening & np.isin(gidx * K + codes, sg[hit] * K + sc[hit]))
    cap = sf.max_distinct_cap
    cnt = np.minimum(_running_segment_count(counted, new_seg, carry), cap)
    if typ is None:
        return cnt, None
    final = cnt[ends - 1]
    live = final < cap  # runs that keep a seen-set
    last_seg = seg[ends - 1]
    rows = np.flatnonzero(first & (seg == last_seg[gidx]) & live[gidx])
    g, vals = gidx[rows], enc.dictionary.take(pa.array(codes[rows]))
    if seen_in is not None:
        only = live & cont & (last_seg == seg[starts])  # opening segment is the last
        keep = only[sg]
        if keep.any():
            g = np.concatenate([g, sg[keep]])
            vals = pa.concat_arrays([vals, pc.list_flatten(seen_in).filter(pa.array(keep))])
    uniq = pa.table({"g": g, "v": vals}).group_by(["g", "v"]).aggregate([])
    uniq = uniq.sort_by([("g", "ascending"), ("v", "ascending")])
    offsets = np.zeros(len(starts) + 1, dtype=np.int32)
    np.cumsum(np.bincount(uniq["g"].to_numpy(), minlength=len(starts)), out=offsets[1:])
    seen = pa.ListArray.from_arrays(
        pa.array(offsets), uniq["v"].combine_chunks(), type=typ.field("seen").type,
        mask=pa.array(~live),
    )
    return cnt, _struct(typ, [bucket[ends - 1], final, seen])


def scan_windows(
    tbl: pa.Table, spec: RuleSpec, change: np.ndarray, seeds: pa.Table | None, persist: bool
) -> tuple[dict, dict, pa.Table | None]:
    """Every window feature as whole-array scans over ordered rows split
    into runs: a run starts at each row where ``change`` is True
    (``change[0]`` is), and run g starts from row g of ``seeds``, a carry
    table aligned to runs (a null row: nothing; ``seeds=None``: no run
    carries anything).  :func:`eval_released` runs it over conversations;
    salting's carve runs it, unseeded, over ``(conv, turn_idx //
    block_turns)`` blocks.

    Returns (per-row feature values, per-row KvCache values, carry-out).
    With ``persist`` the carry-out is a carry table (``state.carry``) with
    one row per run: the run's state after its last row, where a KvCache
    cell the run did not write keeps its seed's and ``last_seen`` is the
    max of the seed's and the run's; without it, None."""
    n = tbl.num_rows
    turn = tbl["turn_idx"].to_numpy()
    ts = tbl["ts"].cast(pa.int64()).to_numpy()
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], n)
    G = len(starts)
    gidx = np.repeat(np.arange(G), ends - starts)
    schema = carry_schema(spec, tbl.schema) if persist else None
    out: dict[str, pa.Array] = {}  # carry-out columns

    def seed(key: str) -> pa.Array | None:
        """The seeds' column of one state key (None: no seeds)."""
        return None if seeds is None else seeds.column(key).combine_chunks()

    def seed_fields(key: str, *names: str) -> tuple:
        """(seed column | None, has carry, field arrays...) per run; fields
        are 0 where nothing is carried."""
        col = seed(key)
        if col is None:
            return (None, np.zeros(G, dtype=bool)) + (np.zeros(G, dtype=np.int64),) * len(names)
        return (col, col.is_valid().to_numpy(zero_copy_only=False)) + tuple(
            pc.fill_null(pc.struct_field(col, f), 0).to_numpy() for f in names
        )

    def flags(col: str) -> np.ndarray:
        return pc.fill_null(tbl[col], False).to_numpy(zero_copy_only=False)

    sf_vals: dict[str, np.ndarray] = {}
    kv_arrays: dict[str, pa.Array] = {}
    for sf in spec.stateful:
        if isinstance(sf, (IncrementWindow, WindowCount)):
            # WindowCount is declared before its source window (validated),
            # so it reads the same carried buffer: prior turns only
            src = sf.name if isinstance(sf, IncrementWindow) else sf.source
            cap = next(
                x.max_events_cap
                for x in spec.stateful
                if isinstance(x, IncrementWindow) and x.name == src
            )
            cnt, ev, ev_end, kf = _sliding(
                ts, flags(f"__sf_{src}"), gidx, starts, ends, seed(f"w:{src}"),
                np.int64(sf.window_seconds * 1e6), "right", src == sf.name,
            )
            sf_vals[sf.name] = np.minimum(cnt, cap)
            if persist and src == sf.name:
                # evict: outside the window AND cap stored events at the
                # newest max_events_cap (the reference's zremrangebyrank
                # bound, cache.py:199-201) so hot keys can't grow state
                out[f"w:{src}"] = _tails(ev, np.clip(ev_end - cap, kf, ev_end), ev_end)
        elif isinstance(sf, SequenceMatch):
            cnt, ev, ev_end, kf = _sliding(
                turn.astype(np.int64), flags(f"__sf_{sf.name}"), gidx, starts, ends, seed(f"q:{sf.name}"),
                sf.within_turns, "left", False,
            )
            sf_vals[sf.name] = flags(f"__sf_{sf.name}_b") & (cnt > 0)
            if persist:
                out[f"q:{sf.name}"] = _tails(ev, np.minimum(kf, ev_end), ev_end)
        elif isinstance(sf, (TumblingCount, TumblingSum, TumblingMax, TumblingDistinct)):
            key = f"t:{sf.name}"
            typ = schema.field(key).type if persist else None
            bucket = ts // np.int64(sf.bucket_seconds * 1e6)
            new_seg = change.copy()
            new_seg[1:] |= bucket[1:] != bucket[:-1]
            t_seed, has, c_bucket, c_count = seed_fields(key, "bucket", "count")
            cont = has & (c_bucket == bucket[starts])  # carried bucket continues
            carry = _opening_carry(new_seg, starts, gidx, np.where(cont, c_count, 0))
            if isinstance(sf, TumblingDistinct):
                cnt, out[key] = _tumbling_distinct(
                    tbl[f"__sf_{sf.name}"], sf, bucket, new_seg, starts, ends, gidx,
                    cont, carry, t_seed, typ,
                )
            else:
                if isinstance(sf, TumblingCount):
                    vals, run = flags(f"__sf_{sf.name}"), _running_segment_count
                else:
                    # int64 weights (stage 1 already clamped nulls/negatives to 0)
                    vals = (
                        pc.fill_null(tbl[f"__sf_{sf.name}"], 0)
                        .to_numpy(zero_copy_only=False)
                        .astype(np.int64)
                    )
                    run = _running_segment_max if isinstance(sf, TumblingMax) else _running_segment_count
                cnt = run(vals, new_seg, carry)
                if persist:
                    out[key] = _struct(typ, [bucket[ends - 1], cnt[ends - 1]])
            sf_vals[sf.name] = cnt
        elif isinstance(sf, SessionWindow):
            g_us = np.int64(sf.gap_seconds * 1e6)
            _, has, last_ts, sid0, cnt0 = seed_fields(f"s:{sf.name}", "last_ts", "sid", "count")
            prev = np.empty(n, dtype=np.int64)
            prev[1:] = ts[:-1]
            prev[starts] = np.where(has, last_ts, ts[starts])
            brk = (ts - prev) > g_us
            brk[starts] &= has
            cs = np.cumsum(brk)
            sid = sid0[gidx] + cs - (cs[starts] - brk[starts])[gidx]
            new_seg = change | brk
            cnt = _running_segment_count(
                np.ones(n, dtype=np.int64), new_seg,
                _opening_carry(new_seg, starts, gidx, np.where(brk[starts], 0, cnt0)),
            )
            sf_vals[f"{sf.name}__id"] = sid
            sf_vals[f"{sf.name}__count"] = cnt
            if persist:
                out[f"s:{sf.name}"] = _struct(
                    schema.field(f"s:{sf.name}").type, [ts[ends - 1], sid[ends - 1], cnt[ends - 1]]
                )
        elif isinstance(sf, KvCache):
            # per row: the conversation's last set strictly before it (in
            # this batch's value column), else the carried value; TTL-bound
            vcol = tbl[f"__sfv_{sf.name}"]
            if isinstance(vcol, pa.ChunkedArray):
                vcol = vcol.combine_chunks()
            set_pos = np.flatnonzero(flags(f"__sf_{sf.name}"))
            src = np.full(n, -1, dtype=np.int64)
            if len(set_pos):
                last = np.searchsorted(set_pos, np.arange(n), side="left") - 1
                src = np.where(last >= 0, set_pos[np.maximum(last, 0)], -1)
            own = src >= starts[gidx]
            valid = own.copy()
            ttl_us = None if sf.ttl_seconds is None else np.int64(sf.ttl_seconds * 1e6)
            if ttl_us is not None:
                valid &= (ts[np.maximum(src, 0)] + ttl_us) > ts
            vals = pc.if_else(
                pa.array(valid), vcol.take(pa.array(np.where(valid, src, 0))), pa.nulls(n, vcol.type)
            )
            kv, has, c_ts = seed_fields(f"k:{sf.name}", "ts")
            if has.any():
                cmask = has[gidx] & ~own
                if ttl_us is not None:
                    cmask &= (c_ts[gidx] + ttl_us) > ts
                carried = pc.struct_field(kv, "value").take(pa.array(gidx))
                vals = pc.if_else(pa.array(cmask), carried, vals)
            kv_arrays[sf.name] = vals
            if persist:
                j = set_pos[np.maximum(np.searchsorted(set_pos, ends) - 1, 0)] if len(set_pos) else ends
                wrote = (j >= starts) & (j < ends)
                jj = np.where(wrote, j, 0)
                k_out = _struct(
                    schema.field(f"k:{sf.name}").type, [ts[jj], vcol.take(pa.array(jj))], wrote
                )
                out[f"k:{sf.name}"] = k_out if kv is None else pc.if_else(pa.array(wrote), k_out, kv)
        # HasLabel handled by the label pass
    if not persist:
        return sf_vals, kv_arrays, None
    out["conv_id"] = pc.cast(tbl["conv_id"].take(pa.array(starts)), pa.string()).combine_chunks()
    out["last_turn"] = pa.array(turn[ends - 1].astype(np.int64))
    last_seen = np.maximum.reduceat(ts, starts)
    if seeds is not None:
        last_seen = np.maximum(last_seen, pc.fill_null(seed("last_seen"), NEG_INF).to_numpy())
    out["last_seen"] = pa.array(last_seen)
    return sf_vals, kv_arrays, pa.Table.from_arrays([out[f.name] for f in schema], schema=schema)


def eval_released(
    tbl: pa.Table,
    spec: RuleSpec,
    rule_plans: list[RulePlan],
    states: Carry | dict | None,
    label_store: LabelStore,
    label_events: dict[str, list] | None = None,
    persist: bool = True,
) -> tuple[pa.Table, list[tuple]]:
    """Evaluate ordered, deduped rows; mutates ``states``/``label_store``.

    Window math seeds each conversation from its row of the carry
    ``states`` (a ``Carry``; ``{}`` or None: no carry, as in a fresh batch
    run) and runs as whole-array scans.  ``persist`` writes the advanced
    carry back into a ``Carry``: streaming shards keep it (the default),
    batch callers pass no carry and ``persist=False``, which builds neither
    a gather nor a carry-out.

    Returns (execution-results table, applied label mutations
    [(conv_id, ts_us, label, status)]).
    """
    label_events = label_events or {}
    n = tbl.num_rows
    hl_feats = [s for s in spec.stateful if isinstance(s, HasLabel)]
    if n == 0:
        return _empty_output(tbl, spec), []

    codes, dictionary = _conv_codes(tbl)
    ts = tbl["ts"].cast(pa.int64()).to_numpy()

    change = np.empty(n, dtype=bool)
    change[0] = True
    change[1:] = codes[1:] != codes[:-1]
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], n)
    run_cids = dictionary.take(pa.array(codes[starts]))
    carry = states if isinstance(states, Carry) else None
    seeds = carry.gather(run_cids, carry_schema(spec, tbl.schema)) if carry else None

    sf_vals: dict[str, np.ndarray] = {}
    for sf in hl_feats:
        default = sf.status == "removed" and sf.manual != "yes"
        sf_vals[sf.name] = np.full(n, default, dtype=bool)

    # ---- window features: whole-array scans seeded from the carry --------
    persist = persist and carry is not None
    win_vals, kv_arrays, carry_out = scan_windows(tbl, spec, change, seeds, persist)
    sf_vals.update(win_vals)
    if persist:
        carry.update(carry_out)

    # ---- non-label rule values, then the label pass ----------------------
    aug, rule_vals = _rule_values(tbl, sf_vals, kv_arrays, rule_plans)

    # ---- label subsystem (sequential, only for active conversations) ----
    label_triggers = [
        trg for trg in spec.triggers if any(isinstance(ef, (LabelAdd, LabelRemove)) for ef in trg.then)
    ]
    label_rule_plans = [rp for rp in rule_plans if rp.label]
    mutations: list[tuple] = []

    if hl_feats or label_triggers:
        # Sparse label pass.  Python only touches *interesting* positions:
        # rows where a label-mutating trigger could fire (pre-label rule
        # value true), external label events, and reason-expiry points.
        # Every state transition is recorded in a per-conversation change
        # log; HasLabel feature columns are reconstructed vectorized from
        # the log afterwards, so a conversation with no label activity
        # costs nothing and a 100k-turn conversation with 3 mutations
        # costs 3 iterations, not 100k.
        import heapq

        plan_map = {rp.name: rp for rp in rule_plans}
        trig_pre = np.zeros(n, dtype=bool)
        for trg in label_triggers:
            for rn in trg.rules_any:
                trig_pre |= rule_vals[rn]
        INF = 1 << 62
        group_cids = run_cids.to_pylist()

        for gi, (s, e) in enumerate(zip(starts, ends)):
            cid = group_cids[gi]
            evs = label_events.get(cid)
            ei = label_store.lev.get(cid, 0)
            has_events = evs is not None and ei < len(evs)
            has_state = cid in label_store.data
            # pending delayed self-mutations (delay_action_by) behave like
            # external label events scheduled at ts_eff; the label store
            # keeps them per conversation so streaming checkpoints carry them
            dl = label_store.delayed.get(cid)
            cand = np.flatnonzero(trig_pre[s:e])
            if not has_events and not has_state and len(cand) == 0 and not dl:
                continue
            t_slice = ts[s:e]
            m = e - s
            changes: list[tuple[int, tuple]] = []
            expiry_heap: list[int] = []

            def hl_tuple(now_us: int) -> tuple:
                return tuple(
                    label_store.has_label(cid, h.label, now_us, h.status, h.manual)
                    for h in hl_feats
                )

            def note_expiry(expires_us) -> None:
                if expires_us is not None:
                    pos = int(np.searchsorted(t_slice, expires_us, side="left"))
                    if pos < m:
                        heapq.heappush(expiry_heap, pos)

            if has_state:
                changes.append((0, hl_tuple(int(t_slice[0]))))
                for stt in label_store.data.get(cid, {}).values():
                    for _, exp in stt.reasons:
                        note_expiry(exp)

            ci = 0
            while True:
                if has_events and ei < len(evs):
                    ev_pos = int(np.searchsorted(t_slice, evs[ei][0], side="left"))
                    if ev_pos >= m:
                        ev_pos = INF  # belongs to a future epoch's rows
                else:
                    ev_pos = INF
                dl = label_store.delayed.get(cid)
                if dl:
                    dl_pos = int(np.searchsorted(t_slice, dl[0][0], side="left"))
                    if dl_pos >= m:
                        dl_pos = INF  # takes effect past this slice's rows
                else:
                    dl_pos = INF
                exp_pos = expiry_heap[0] if expiry_heap else INF
                cand_pos = int(cand[ci]) if ci < len(cand) else INF
                nxt = min(ev_pos, exp_pos, dl_pos, cand_pos)
                if nxt == INF:
                    break
                if ev_pos == nxt:
                    ts_e, lbl, status, exp = evs[ei]
                    label_store.apply(cid, lbl, status, ts_e, exp)
                    note_expiry(exp)
                    ei += 1
                    changes.append((ev_pos, hl_tuple(int(t_slice[ev_pos]))))
                    continue
                if exp_pos == nxt:
                    heapq.heappop(expiry_heap)
                    changes.append((exp_pos, hl_tuple(int(t_slice[exp_pos]))))
                    continue
                if dl_pos == nxt:
                    # delayed self-mutation reaches its effective instant
                    tsf, _, lbl, status, exp, reason = heapq.heappop(dl)
                    if label_store.apply(cid, lbl, status, tsf, exp):
                        mutations.append((cid, tsf, lbl, status, reason))
                        note_expiry(exp)
                    changes.append((dl_pos, hl_tuple(int(t_slice[dl_pos]))))
                    continue
                # candidate row: evaluate label-gated conjuncts + fire effects
                i_loc = cand_pos
                ci += 1
                i = s + i_loc
                t_i = int(t_slice[i_loc])
                hl_now = {h.name: v for h, v in zip(hl_feats, hl_tuple(t_i))}
                row_rule_memo: dict[str, bool] = {}

                def rule_true_at(rn: str) -> bool:
                    """This rule's value on row i, label conjuncts included —
                    full augmented row, so a conjunct mixing a HasLabel
                    feature with ordinary columns/features resolves instead
                    of failing; HasLabel values override with the walk's
                    current (not vectorized-default) state.  Memoized per
                    row (dependent_rule may re-check a trigger rule)."""
                    got = row_rule_memo.get(rn)
                    if got is not None:
                        return got
                    ok = bool(rule_vals[rn][i])
                    rp = plan_map[rn]
                    if ok and rp.label:
                        rctx = RowContext(row=_LazyRow(aug, i), features=hl_now)
                        for conj in rp.label:
                            try:
                                v = conj.eval_row(rctx)
                            except ExprError:
                                v = None
                            if not v:
                                ok = False
                                break
                    row_rule_memo[rn] = ok
                    return ok

                muts: list[tuple] = []
                for trg in label_triggers:
                    fired = [rn for rn in trg.rules_any if rule_true_at(rn)]
                    if not fired:
                        continue
                    for ef in trg.then:
                        if not isinstance(ef, (LabelAdd, LabelRemove)):
                            continue
                        # suppressed: computed but never applied — the
                        # dry-run escape hatch (output_sink.py:129-131)
                        if ef.suppressed:
                            continue
                        # dependent_rule gate (output_sink.py:135-137); the
                        # dependent rule joins the recorded reason set
                        dep = ef.dependent_rule
                        if dep is not None and not rule_true_at(dep):
                            continue
                        reason = ",".join(
                            sorted(set(fired) | ({dep} if dep else set()))
                        )
                        if isinstance(ef, LabelAdd):
                            status = "added"
                            exp = (
                                t_i + int(ef.expires_after * 1e6)
                                if ef.expires_after is not None
                                else None
                            )
                        else:
                            status, exp = "removed", None
                        delay = ef.delay_action_by
                        if delay is not None and delay > 0:
                            # takes effect at ts_eff, like an external label
                            # event — queued in the label store (so
                            # checkpoints carry it), applied when the walk
                            # reaches the first turn at/after ts_eff
                            dlq = label_store.delayed.setdefault(cid, [])
                            seq = label_store.dseq.get(cid, 0)
                            label_store.dseq[cid] = seq + 1
                            heapq.heappush(
                                dlq,
                                (t_i + int(delay * 1e6), seq, ef.label, status, exp, reason),
                            )
                        else:
                            muts.append((ef.label, status, exp, reason))
                if muts:
                    applied = label_store.apply_conflicting(
                        cid, [(l, s, x) for l, s, x, _ in muts], t_i
                    )
                    for lbl, status in applied:
                        reason = next(
                            r for l, s, _, r in muts if l == lbl and s == status
                        )
                        mutations.append((cid, t_i, lbl, status, reason))
                        # expiry of the mutation that actually won — keyed by
                        # (label, status), not label alone, so a losing
                        # conflicting mutation's expiry is never picked up
                        note_expiry(
                            next(
                                (x for l, s, x, _ in muts if l == lbl and s == status),
                                None,
                            )
                        )
                    if i_loc + 1 < m:
                        changes.append((i_loc + 1, hl_tuple(int(t_slice[i_loc + 1]))))
            label_store.lev[cid] = ei

            # reconstruct HasLabel columns from the change log (fill between
            # consecutive change positions; rows before the first change keep
            # the vectorized default)
            if changes:
                positions = [p for p, _ in changes] + [m]
                # walk order is nondecreasing in position; same-position
                # entries fill an empty range so the later one wins
                for k, (p, tup) in enumerate(changes):
                    nxt_p = positions[k + 1]
                    if nxt_p <= p:
                        continue
                    for f_idx, h in enumerate(hl_feats):
                        sf_vals[h.name][s + p : s + nxt_p] = tup[f_idx]

    # label-gated rule values, vectorized over the exact HasLabel columns
    # (identical to what the sparse walk used at firing time)
    if label_rule_plans:
        hl_cols = dict(zip(aug.column_names, aug.columns))
        for hl in hl_feats:
            hl_cols[hl.name] = pa.array(sf_vals[hl.name])
        hctx = EvalContext(pa.table(hl_cols))
        for rp in label_rule_plans:
            for conj in rp.label:
                cv = _bool_operand(_as_array(conj.eval_batch(hctx), n)).to_numpy(
                    zero_copy_only=False
                )
                rule_vals[rp.name] &= cv

    return _assemble(tbl, spec, sf_vals, kv_arrays, rule_vals), mutations


def eval_runs(tbl: pa.Table, spec: RuleSpec, rule_plans, change, seeds: pa.Table | None) -> pa.Table:
    """Evaluate ordered rows of a label-free spec split into runs
    (``change`` marks run starts, as in :func:`scan_windows`), run g from
    row g of the seed table ``seeds``, writing no carry back: salting's
    seeded eval of every held ``(conv, turn block)`` run in one call."""
    sf_vals, kv_arrays, _ = scan_windows(tbl, spec, change, seeds, persist=False)
    _, rule_vals = _rule_values(tbl, sf_vals, kv_arrays, rule_plans)
    return _assemble(tbl, spec, sf_vals, kv_arrays, rule_vals)


def _rule_values(tbl: pa.Table, sf_vals: dict, kv_arrays: dict, rule_plans) -> tuple[pa.Table, dict]:
    """The augmented table (input columns plus feature and KvCache values)
    and every rule's value short of its label-gated conjuncts."""
    n = tbl.num_rows
    aug = pa.table({
        **dict(zip(tbl.column_names, tbl.columns)),
        **{name: pa.array(arr) for name, arr in sf_vals.items()},
        **kv_arrays,
    })
    ctx = EvalContext(aug)

    rule_vals: dict[str, np.ndarray] = {}
    for rp in rule_plans:
        val = pc.fill_null(aug[f"__rulepre_{rp.name}"], False).to_numpy(zero_copy_only=False).copy()
        for conj in rp.stateful_nonlabel:
            cv = _bool_operand(_as_array(conj.eval_batch(ctx), n)).to_numpy(zero_copy_only=False)
            val &= cv
        rule_vals[rp.name] = val
    return aug, rule_vals


def _assemble(tbl: pa.Table, spec: RuleSpec, sf_vals, kv_arrays, rule_vals) -> pa.Table:
    """The execution-results table: output input columns, feature values,
    rule values and, with triggers, the verdict and fired-rule lists."""
    n = tbl.num_rows
    # ---- triggers → verdicts --------------------------------------------
    # one boolean column per name: a verdict is on where any trigger that
    # declares it fires; a rule is on where it is true and sits in some
    # trigger's rules_any (a true rule fires its trigger)
    verdict_mask: dict[str, np.ndarray] = {}
    rule_mask: dict[str, np.ndarray] = {}
    for trg in spec.triggers:
        fired = np.zeros(n, dtype=bool)
        for rn in trg.rules_any:
            fired |= rule_vals[rn]
            rule_mask[rn] = rule_vals[rn]
        for ef in trg.then:
            if isinstance(ef, DeclareVerdict):
                verdict_mask[ef.verdict] = verdict_mask.get(ef.verdict, False) | fired

    # ---- assemble output -------------------------------------------------
    # (conv_id travels the exchange dictionary-encoded; outputs decode back
    # to plain string so sinks/consumers see the declared schema)
    out: dict[str, pa.Array] = {}
    for name in _output_columns(tbl, spec):
        c = tbl[name]
        out[name] = c.cast(pa.string()) if pa.types.is_dictionary(c.type) else c
    for sf in spec.stateful:
        if isinstance(sf, SessionWindow):
            out[f"{sf.name}__id"] = pa.array(sf_vals[f"{sf.name}__id"])
            out[f"{sf.name}__count"] = pa.array(sf_vals[f"{sf.name}__count"])
        elif isinstance(sf, KvCache):
            out[sf.name] = kv_arrays[sf.name]
        else:
            out[sf.name] = pa.array(sf_vals[sf.name])
    for r in spec.rules:
        out[r.name] = pa.array(rule_vals[r.name])
    if spec.triggers:
        out["__verdicts"] = _name_lists(verdict_mask, n)
        out["__rules_fired"] = _name_lists(rule_mask, n)
    out["__error_count"] = tbl["__error_count"]
    return pa.table(out)


def _name_lists(masks: dict[str, np.ndarray], n: int) -> pa.ListArray:
    """``list<string>`` column whose row i lists, sorted, the names whose
    mask is true on row i.  The names are sorted once, so a row-major
    ``nonzero`` over the (rows x names) mask yields every row's names in
    order; per-row counts give the offsets and one ``take`` the values."""
    names = sorted(masks)
    mask = np.column_stack([masks[k] for k in names]) if names else np.zeros((n, 0), bool)
    rows, which = np.nonzero(mask)
    offsets = np.zeros(n + 1, dtype=np.int32)
    offsets[1:] = np.cumsum(np.bincount(rows, minlength=n))
    values = pa.array(names, pa.string()).take(pa.array(which))
    return pa.ListArray.from_arrays(pa.array(offsets), values)


def _output_columns(tbl: pa.Table, spec: RuleSpec) -> list[str]:
    hidden = {c for c in tbl.column_names if c.startswith("__sf_") or c.startswith("__rulepre_")}
    return [c for c in tbl.column_names if c not in hidden and c != "__error_count"]


def _empty_output(tbl: pa.Table, spec: RuleSpec) -> pa.Table:
    """The 0-row execution-results table, typed as a non-empty one."""
    sf_vals, kv_arrays = {}, {}
    for sf in spec.stateful:
        if isinstance(sf, KvCache):
            kv_arrays[sf.name] = pa.array([], tbl.schema.field(f"__sfv_{sf.name}").type)
        elif isinstance(sf, SessionWindow):
            sf_vals[f"{sf.name}__id"] = sf_vals[f"{sf.name}__count"] = np.zeros(0, np.int64)
        else:
            flag = isinstance(sf, (SequenceMatch, HasLabel))
            sf_vals[sf.name] = np.zeros(0, bool if flag else np.int64)
    rule_vals = {r.name: np.zeros(0, bool) for r in spec.rules}
    return _assemble(tbl, spec, sf_vals, kv_arrays, rule_vals)


class StatefulPartitionEval:
    """Per-partition evaluator for the *batch* pipeline: fresh state, one
    shot (``groupby('__part').map_groups(StatefulPartitionEval(spec, ...))``).
    The streaming shard actor (osprey_ray.streaming.shard) reuses
    :func:`eval_released` with carried state instead."""

    def __init__(self, spec: RuleSpec, label_events: dict[str, list] | None = None):
        self.spec = spec
        self.rule_plans = split_rules(spec)
        self.label_events = label_events or {}
        self.__name__ = "StatefulPartitionEval"  # map_groups wants a named fn

    def __call__(self, tbl: pa.Table) -> pa.Table:
        tbl = sort_and_dedup(tbl, None)
        if "__part" in tbl.column_names:
            tbl = tbl.drop_columns(["__part"])
        out, _ = eval_released(
            tbl, self.spec, self.rule_plans, None, LabelStore(), self.label_events,
            persist=False,
        )
        return out
