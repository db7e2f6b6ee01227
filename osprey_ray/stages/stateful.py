"""Stage 2: keyed stateful evaluation (windows, CEP, labels, joins).

This is the engine's only stateful stage (SURVEY §7 step 5): input rows are
hash-partitioned by ``conv_id`` and evaluated in strict
``(conv_id, turn_idx, ts)`` order within each partition.  Window math has
one implementation: whole-array segmented scans over every conversation at
once, each seeded from the conversation's carried state (read in one
gather, written back in one pass) — no window math runs per conversation.
The label subsystem — whose read-your-writes ordering is inherently
sequential (a turn's LabelAdd is visible to later turns but not itself,
mirroring write-after-classify in
/root/reference/osprey_worker/src/osprey/worker/sinks/sink/output_sink.py:156-350)
— walks only mutation-candidate rows, external events and expiry points,
reconstructing HasLabel columns vectorized from a change log.

The same :func:`eval_released` core serves both execution modes:

- batch: fresh state per partition, one call (watermark = +inf);
- streaming: a persistent shard actor carries ``states`` / ``label_store``
  across micro-batch epochs and calls this on each watermark-released,
  ordered slice of rows.

State carried per conversation (``states[conv_id]``):

- ``w:<name>``  — sorted int64 ts of counted events in a sliding window
  (the Redis-ZSET analogue, example_plugins/src/udfs/cache.py:161-207);
- ``t:<name>``  — (current tumbling bucket, running count / sum / max);
  TumblingDistinct adds the bucket's seen-set (None once saturated);
- ``s:<name>``  — (last_ts, session_id, count_in_session);
- ``q:<name>``  — sorted int64 turn_idx of CEP first-step matches;
- ``k:<name>``  — (ts, value) of the last KvCache set;
- ``last_turn`` — highest processed turn_idx (cross-epoch dedup guard);
- ``lev``       — consumed prefix of the external label-event stream.
"""

from __future__ import annotations

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


def _conv_codes(tbl: pa.Table) -> tuple[np.ndarray, pa.Array]:
    """Dictionary-encode conv_id → (int codes, dictionary array).  The
    grouping key never round-trips through Python strings.  Accepts a
    column that is already dictionary-encoded (the exchange ships conv_id
    dict-encoded to cut object-store bytes)."""
    col = tbl["conv_id"]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_dictionary(col.type):
        enc = col
    else:
        enc = col.dictionary_encode()
    return enc.indices.to_numpy(zero_copy_only=False).astype(np.int64), enc.dictionary


def _group_cids(dictionary: pa.Array, codes: np.ndarray, starts: np.ndarray) -> list:
    """conv_id of each group, decoded in one dictionary pass."""
    return dictionary.take(pa.array(codes[starts])).to_pylist()


def _carried(states: dict, cids: list) -> list:
    """The one per-conversation carry gather: each group's state dict, or
    None when the conversation carries nothing."""
    return [states.get(c) or None for c in cids]


def sort_and_dedup(tbl: pa.Table, states: dict) -> pa.Table:
    """Order by (conv_id, turn_idx, ts) and exact-dedup on (conv_id,
    turn_idx) keep-first (SURVEY §2.8 — the at-least-once duplicate guard;
    the reference relies on idempotent keyed sinks,
    worker/lib/storage/stored_execution_result.py:182-193).  Also drops rows
    at or below a conversation's already-processed ``last_turn`` (cross-epoch
    duplicates / too-late re-orderings in streaming mode).

    Grouping uses dictionary codes (first-appearance order) + numpy lexsort
    — deterministic for a deterministic input row order, and conversations
    are mutually independent so inter-conversation order never affects
    results."""
    if tbl.num_rows == 0:
        return tbl
    codes, dictionary = _conv_codes(tbl)
    turn = tbl["turn_idx"].to_numpy()
    ts = tbl["ts"].cast(pa.int64()).to_numpy()
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
        carried = _carried(states, _group_cids(dictionary, codes, starts))
        last = np.array(
            [st.get("last_turn", NEG_INF) if st else NEG_INF for st in carried], dtype=np.int64
        )
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


def _sliding(key, flag, gidx, starts, ends, bufs, w, side: str, incl_self: bool):
    """Sliding-window event counts for every row in whole-array ops.

    Events are the flagged rows, preceded in each group by its carried
    buffer ``bufs[g]`` (sorted int64 keys, or None).  Each group's timeline
    is shifted into its own composite range, ``w + 1`` wider than its span,
    so one searchsorted respects group boundaries.  Far-apart groups would
    wrap the int64 offsets, so groups run in chunks whose composite range
    fits: offsets are differences of one wrapping uint64 cumsum, exact
    inside a chunk.

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
        blen = np.array([0 if b is None else len(b) for b in bufs], dtype=np.int64)
    if blen.any():
        bev = np.concatenate([b for b in bufs if b is not None]).astype(np.int64)
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
    width = (hi_g - lo_g + w + 1).astype(np.uint64)
    wf = width.astype(np.float64)
    chunk = ((np.cumsum(wf) - wf) // _CHUNK).astype(np.int64)
    cu = np.cumsum(width) - width
    base = (cu - cu[np.searchsorted(chunk, chunk)]).astype(np.int64)
    tp = key - lo_g[gidx] + base[gidx]
    etp = ev - lo_g[egid] + base[egid]
    lo = np.empty(len(key), dtype=np.int64)
    bounds = np.flatnonzero(np.diff(chunk)) + 1
    for g0, g1 in zip(np.append(0, bounds), np.append(bounds, G)):
        r0, r1 = starts[g0], ends[g1 - 1]
        e0 = ev_end[g0 - 1] if g0 else 0
        lo[r0:r1] = e0 + np.searchsorted(etp[e0 : ev_end[g1 - 1]], tp[r0:r1] - w, side=side)
    return added - lo, ev, ev_end, lo[ends - 1]


def _tumbling_distinct(col, sf, bucket, new_seg, starts, ends, gidx, cont, carry, carry_in, out):
    """Running distinct count of string ``col`` per (conversation, bucket)
    segment, capped.  ``cont[g]`` marks a group whose carried bucket
    continues: ``carry`` holds its carried count on the opening segment and
    values in its carried seen-set (``carry_in[g][2]``, None once saturated)
    do not count again there.  Appends the carry-out to ``out`` unless it is
    None: the last segment's values, plus the seen-set when the opening
    segment is also the last; None once saturated."""
    import pandas as pd

    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    enc = col if pa.types.is_dictionary(col.type) else pc.dictionary_encode(col)
    codes = pc.fill_null(enc.indices.cast(pa.int64()), -1).to_numpy(zero_copy_only=False)
    dstrs = enc.dictionary.to_pylist()
    # first occurrence of each value within its segment: hash duplicated on
    # a composite seg*K+code key, O(n)
    seg = np.cumsum(new_seg) - 1
    K = np.int64(len(dstrs) + 2)
    first = ~pd.Series(seg * K + codes).duplicated().to_numpy() & (codes >= 0)
    counted = first
    if carry_in is not None:
        lookup = {s: i for i, s in enumerate(dstrs)}
        seen_keys = [
            g * int(K) + lookup[v]
            for g in np.flatnonzero(cont).tolist()
            for v in (carry_in[g][2] or ())
            if v in lookup
        ]
        if seen_keys:
            opening = seg == seg[starts][gidx]
            counted = first & ~(opening & np.isin(gidx * K + codes, seen_keys))
    cap = sf.max_distinct_cap
    cnt = np.minimum(_running_segment_count(counted, new_seg, carry), cap)
    if out is not None:
        final = cnt[ends - 1].tolist()
        last_seg = seg[ends - 1]
        rows = np.flatnonzero(first & (seg == last_seg[gidx]))
        cut = np.searchsorted(gidx[rows], np.arange(len(starts) + 1)).tolist()
        row_codes = codes[rows].tolist()
        only = (last_seg == seg[starts]) & cont  # opening segment is the last
        vals = []
        for g, b in enumerate(bucket[ends - 1].tolist()):
            seen = None
            if final[g] < cap:
                seen = frozenset(dstrs[c] for c in row_codes[cut[g] : cut[g + 1]])
                if only[g] and carry_in[g][2]:
                    seen = frozenset(seen | carry_in[g][2])
            vals.append((b, final[g], seen))
        out.append((f"t:{sf.name}", vals))
    return cnt


def eval_released(
    tbl: pa.Table,
    spec: RuleSpec,
    rule_plans: list[RulePlan],
    states: dict,
    label_store: LabelStore,
    label_events: dict[str, list] | None = None,
    persist: bool = True,
) -> tuple[pa.Table, list[tuple]]:
    """Evaluate ordered, deduped rows; mutates ``states``/``label_store``.

    Window math reads each conversation's carry from ``states`` (empty for a
    fresh batch run) and runs as whole-array scans.  ``persist`` writes the
    advanced carry back into ``states``: streaming shards and salted blocks
    keep it (the default), batch callers discard it (``persist=False``).

    Returns (execution-results table, applied label mutations
    [(conv_id, ts_us, label, status)]).
    """
    label_events = label_events or {}
    n = tbl.num_rows
    hl_feats = [s for s in spec.stateful if isinstance(s, HasLabel)]
    out_schema_cols = _output_columns(tbl, spec)
    if n == 0:
        return _empty_output(tbl, spec), []

    codes, dictionary = _conv_codes(tbl)
    turn = tbl["turn_idx"].to_numpy()
    ts = tbl["ts"].cast(pa.int64()).to_numpy()

    change = np.empty(n, dtype=bool)
    change[0] = True
    change[1:] = codes[1:] != codes[:-1]
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], n)
    G = len(starts)
    gidx = np.repeat(np.arange(G), ends - starts)
    group_cids = _group_cids(dictionary, codes, starts)
    carried = _carried(states, group_cids) if states else None

    def seed(key: str) -> list | None:
        """Per-group carried value of one state key (None = none)."""
        if carried is None:
            return None
        return [c.get(key) if c else None for c in carried]

    def seed_arrays(key: str, fields: int) -> tuple:
        """(carried values | None, has carry, field 0, ..., field
        fields-1) per group; fields are 0 where nothing is carried."""
        vals = seed(key)
        if vals is None:
            return (None, np.zeros(G, dtype=bool)) + (np.zeros(G, dtype=np.int64),) * fields
        has = np.array([v is not None for v in vals], dtype=bool)
        return (vals, has) + tuple(
            np.array([v[i] if v is not None else 0 for v in vals], dtype=np.int64)
            for i in range(fields)
        )

    sf_vals: dict[str, np.ndarray] = {}
    for sf in spec.stateful:
        if isinstance(sf, HasLabel):
            default = sf.status == "removed" and sf.manual != "yes"
            sf_vals[sf.name] = np.full(n, default, dtype=bool)

    def flags(col: str) -> np.ndarray:
        return pc.fill_null(tbl[col], False).to_numpy(zero_copy_only=False)

    # ---- window features: whole-array scans seeded from the carry --------
    carry_out: list[tuple[str, list]] = []  # (state key, per-group value | None)
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
                carry_out.append((f"w:{src}", [
                    ev[max(a, e - cap) : e].copy() for a, e in zip(kf.tolist(), ev_end.tolist())
                ]))
        elif isinstance(sf, SequenceMatch):
            cnt, ev, ev_end, kf = _sliding(
                turn.astype(np.int64), flags(f"__sf_{sf.name}"), gidx, starts, ends, seed(f"q:{sf.name}"),
                sf.within_turns, "left", False,
            )
            sf_vals[sf.name] = flags(f"__sf_{sf.name}_b") & (cnt > 0)
            if persist:
                carry_out.append((f"q:{sf.name}", [
                    ev[a:e].copy() for a, e in zip(kf.tolist(), ev_end.tolist())
                ]))
        elif isinstance(sf, (TumblingCount, TumblingSum, TumblingMax, TumblingDistinct)):
            bucket = ts // np.int64(sf.bucket_seconds * 1e6)
            new_seg = change.copy()
            new_seg[1:] |= bucket[1:] != bucket[:-1]
            carry_in, has, c_bucket, c_count = seed_arrays(f"t:{sf.name}", 2)
            cont = has & (c_bucket == bucket[starts])  # carried bucket continues
            carry = _opening_carry(new_seg, starts, gidx, np.where(cont, c_count, 0))
            if isinstance(sf, TumblingDistinct):
                cnt = _tumbling_distinct(
                    tbl[f"__sf_{sf.name}"], sf, bucket, new_seg, starts, ends, gidx,
                    cont, carry, carry_in, carry_out if persist else None,
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
                    carry_out.append((f"t:{sf.name}", list(zip(bucket[ends - 1], cnt[ends - 1].tolist()))))
            sf_vals[sf.name] = cnt
        elif isinstance(sf, SessionWindow):
            g_us = np.int64(sf.gap_seconds * 1e6)
            _, has, last_ts, sid0, cnt0 = seed_arrays(f"s:{sf.name}", 3)
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
                carry_out.append((f"s:{sf.name}", list(zip(
                    ts[ends - 1].tolist(), sid[ends - 1].tolist(), cnt[ends - 1].tolist()
                ))))
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
            kv, has, c_ts = seed_arrays(f"k:{sf.name}", 1)
            if has.any():
                cmask = has[gidx] & ~own
                if ttl_us is not None:
                    cmask &= (c_ts[gidx] + ttl_us) > ts
                slot = np.cumsum(has) - 1  # group → position among carried
                carried_vals = pa.array([v[1] for v in kv if v is not None], vcol.type)
                vals = pc.if_else(
                    pa.array(cmask), carried_vals.take(pa.array(np.where(cmask, slot[gidx], 0))), vals
                )
            kv_arrays[sf.name] = vals
            if persist:
                j = set_pos[np.maximum(np.searchsorted(set_pos, ends) - 1, 0)] if len(set_pos) else ends
                wrote = (j >= starts) & (j < ends)
                set_vals = vcol.take(pa.array(np.where(wrote, j, 0))).to_pylist()
                carry_out.append((f"k:{sf.name}", [
                    (int(ts[jj]), v) if w else None
                    for jj, v, w in zip(j.tolist(), set_vals, wrote.tolist())
                ]))
        # HasLabel handled by the label pass

    if persist:
        last_turns = turn[ends - 1].tolist()
        for gi, cid in enumerate(group_cids):
            st = states.setdefault(cid, {})
            for key, vals in carry_out:
                if vals[gi] is not None:
                    st[key] = vals[gi]
            st["last_turn"] = last_turns[gi]

    # ---- augmented table + non-label rule values ------------------------
    aug_cols = {name: tbl[name] for name in tbl.column_names}
    for name, arr in sf_vals.items():
        aug_cols[name] = pa.array(arr)
    aug_cols.update(kv_arrays)
    aug = pa.table(aug_cols)
    ctx = EvalContext(aug)

    rule_vals: dict[str, np.ndarray] = {}
    for rp in rule_plans:
        val = pc.fill_null(aug[f"__rulepre_{rp.name}"], False).to_numpy(zero_copy_only=False).copy()
        for conj in rp.stateful_nonlabel:
            cv = _bool_operand(_as_array(conj.eval_batch(ctx), n)).to_numpy(zero_copy_only=False)
            val &= cv
        rule_vals[rp.name] = val

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

        for gi, (s, e) in enumerate(zip(starts, ends)):
            cid = group_cids[gi]
            evs = label_events.get(cid)
            st = states.setdefault(cid, {})
            ei = st.get("lev", 0)
            has_events = evs is not None and ei < len(evs)
            has_state = cid in label_store.data
            # pending delayed self-mutations (delay_action_by) behave like
            # external label events scheduled at ts_eff; they live in the
            # per-conversation state so streaming checkpoints carry them
            dl = st.get("delayed")
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
                dl = st.get("delayed")
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
                            # event — queued in per-conversation state (so
                            # checkpoints carry it), applied when the walk
                            # reaches the first turn at/after ts_eff
                            dlq = st.setdefault("delayed", [])
                            seq = st.get("dseq", 0)
                            st["dseq"] = seq + 1
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
            st["lev"] = ei

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
        hl_cols = dict(aug_cols)
        for hl in hl_feats:
            hl_cols[hl.name] = pa.array(sf_vals[hl.name])
        hctx = EvalContext(pa.table(hl_cols))
        for rp in label_rule_plans:
            for conj in rp.label:
                cv = _bool_operand(_as_array(conj.eval_batch(hctx), n)).to_numpy(
                    zero_copy_only=False
                )
                rule_vals[rp.name] &= cv

    # ---- triggers → verdicts --------------------------------------------
    # sparse: only fired rows materialize Python sets
    verdict_sets: dict[int, set] = {}
    fired_rules: dict[int, set] = {}
    for trg in spec.triggers:
        fired = np.zeros(n, dtype=bool)
        for rn in trg.rules_any:
            fired |= rule_vals[rn]
        if not fired.any():
            continue
        verdicts = [ef.verdict for ef in trg.then if isinstance(ef, DeclareVerdict)]
        for i in np.flatnonzero(fired):
            i = int(i)
            verdict_sets.setdefault(i, set()).update(verdicts)
            fr = fired_rules.setdefault(i, set())
            for rn in trg.rules_any:
                if rule_vals[rn][i]:
                    fr.add(rn)

    # ---- assemble output -------------------------------------------------
    # (conv_id travels the exchange dictionary-encoded; outputs decode back
    # to plain string so sinks/consumers see the declared schema)
    out: dict[str, pa.Array] = {}
    for name in out_schema_cols:
        if name in tbl.column_names:
            col_out = tbl[name]
            if pa.types.is_dictionary(
                col_out.type if not isinstance(col_out, pa.ChunkedArray) else col_out.type
            ):
                col_out = col_out.cast(pa.string())
            out[name] = col_out
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
        empty: list[str] = []
        out["__verdicts"] = pa.array(
            [sorted(verdict_sets[i]) if i in verdict_sets else empty for i in range(n)],
            pa.list_(pa.string()),
        )
        out["__rules_fired"] = pa.array(
            [sorted(fired_rules[i]) if i in fired_rules else empty for i in range(n)],
            pa.list_(pa.string()),
        )
    out["__error_count"] = tbl["__error_count"]
    return pa.table(out), mutations


def _output_columns(tbl: pa.Table, spec: RuleSpec) -> list[str]:
    hidden = {c for c in tbl.column_names if c.startswith("__sf_") or c.startswith("__rulepre_")}
    return [c for c in tbl.column_names if c not in hidden and c != "__error_count"]


def _empty_output(tbl: pa.Table, spec: RuleSpec) -> pa.Table:
    out: dict[str, pa.Array] = {}
    for name in _output_columns(tbl, spec):
        out[name] = tbl[name]
    for sf in spec.stateful:
        if isinstance(sf, SessionWindow):
            out[f"{sf.name}__id"] = pa.array([], pa.int64())
            out[f"{sf.name}__count"] = pa.array([], pa.int64())
        elif isinstance(
            sf,
            (IncrementWindow, TumblingCount, TumblingSum, TumblingMax, TumblingDistinct, WindowCount),
        ):
            out[sf.name] = pa.array([], pa.int64())
        elif isinstance(sf, KvCache):
            vt = tbl.schema.field(f"__sfv_{sf.name}").type
            out[sf.name] = pa.array([], vt)
        else:
            out[sf.name] = pa.array([], pa.bool_())
    for r in spec.rules:
        out[r.name] = pa.array([], pa.bool_())
    if spec.triggers:
        out["__verdicts"] = pa.array([], pa.list_(pa.string()))
        out["__rules_fired"] = pa.array([], pa.list_(pa.string()))
    out["__error_count"] = tbl["__error_count"]
    return pa.table(out)


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
        states: dict = {}
        store = LabelStore()
        tbl = sort_and_dedup(tbl, states)
        if "__part" in tbl.column_names:
            tbl = tbl.drop_columns(["__part"])
        out, _ = eval_released(
            tbl, self.spec, self.rule_plans, states, store, self.label_events,
            persist=False,
        )
        return out
