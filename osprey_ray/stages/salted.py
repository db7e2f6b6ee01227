"""Hot-conversation salting: the one implementation of the protocol.

BASELINE.json's north_star requires "hash-partitioned by conv_id with
explicit salting for hot conversations".  Whole-key routing serializes a
whale conversation onto one evaluator; salting routes each hot
conversation's contiguous turn-index blocks (``blk = turn_idx //
block_turns``) by the sub-key ``conv_id#blk`` instead (the route is
``streaming.job._read_route``), and still produces output byte-equal to
unsalted evaluation:

1. **Carve** (:func:`carve_hot_blocks`, per partition) — split the hot
   ``(conv, blk)`` runs off a sorted, deduped slice, hold them, and compute
   each one's tiny *boundary summary* (:func:`summarize_block`): the
   sliding-window event tail, tumbling-bucket partials, session-boundary
   gap facts, the CEP first-match tail and the last KV write.  Exactly the
   state ``eval_released`` reads from ``states`` and, with ``persist=True``,
   writes back, derived without evaluating rules.
2. **Scan** (:func:`scan_seeds`, driver, cheap) — per conversation,
   summaries merge in turn order (:func:`merge_state`) from the carry into
   the state each block starts from.  One tiny dict per block; associative
   per feature family (SURVEY §2.9 notes window merges are associative).
3. **Seeded eval** (:func:`eval_seeded_blocks`, per partition) — every
   held block evaluates through the same ``eval_released`` call streaming
   makes per epoch: its whole-array window scans read the block's incoming
   state as their carry.

Batch (:func:`run_batch_salted`, on ``run_batch_exchange``'s route and
partition tasks) runs the protocol once over the whole input with an
empty carry; streaming (``StreamingJob(hot_convs=...)``) runs it once per
epoch, with the carry held by the driver and checkpointed with the
manifests.

Label-dependent specs are rejected (:func:`check_hot_routing`):
read-your-writes label feedback is inherently sequential per conversation
(the reference's per-event executor has the same ordering dependency,
worker/sinks/sink/rules_sink.py:121-177), so label rulesets keep
whole-conversation routing.

Hot-conversation *detection* is a performance heuristic, not a correctness
decision — salted and unsalted evaluation agree for every conversation
(golden-tested) — so ``detect_hot_convs`` may use per-file lower-bound
filtering without affecting results.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from osprey_ray.rules import (
    HasLabel,
    IncrementWindow,
    KvCache,
    RuleSpec,
    SequenceMatch,
    SessionWindow,
    TumblingCount,
    TumblingDistinct,
    TumblingMax,
    TumblingSum,
    WindowCount,
)
from osprey_ray.stages.stateful import _conv_codes, eval_released, sort_and_dedup
from osprey_ray.state.labels import LabelStore


def check_hot_routing(spec: RuleSpec) -> None:
    """Reject specs whose semantics need a conversation's whole stream in
    one place, which sub-key routing splits across partitions: label
    feedback (read-your-writes, sequential per conversation) and the
    AbsenceAlert / FollowedBy timers (they must see every turn to disarm;
    supporting them needs driver-merged timer partials)."""
    if spec.uses_labels():
        raise ValueError(
            "hot-conversation salting requires a label-free spec: label "
            "feedback is sequential per conversation — use whole-key "
            "routing (run_batch / run_batch_exchange, no hot_convs)"
        )
    for attr, name in (("absences", "AbsenceAlert"), ("follows", "FollowedBy")):
        if getattr(spec, attr, None):
            raise NotImplementedError(
                f"{name} patterns are not supported together with "
                "hot-conversation sub-key routing (hot_convs)"
            )


def _flag(tbl: pa.Table, col: str) -> np.ndarray:
    return pc.fill_null(tbl[col], False).to_numpy(zero_copy_only=False)


def summarize_block(tbl: pa.Table, spec: RuleSpec) -> dict:
    """Boundary summary of one sorted, deduped single-conversation block.

    Cheap and rule-free: only the ``__sf_`` predicate columns stage 1 already
    computed are touched.  The summary is everything ``merge_state`` needs to
    extend a prefix carry-state across this block."""
    ts = tbl["ts"].cast(pa.int64()).to_numpy()
    turn = tbl["turn_idx"].to_numpy().astype(np.int64)
    summ: dict = {
        "last_turn": int(turn[-1]),
        "first_ts": int(ts[0]),
        "last_ts": int(ts[-1]),
    }
    for sf in spec.stateful:
        if isinstance(sf, IncrementWindow):
            w_us = np.int64(sf.window_seconds * 1e6)
            evs = ts[_flag(tbl, f"__sf_{sf.name}")]
            keep_from = np.searchsorted(evs, ts[-1] - w_us, side="right")
            summ[f"w:{sf.name}"] = evs[keep_from:][-sf.max_events_cap :]
        elif isinstance(sf, (TumblingCount, TumblingSum, TumblingMax)):
            # shared segment-partial shape for the whole tumbling family:
            # (first_bucket, reduce(first_seg), last_bucket,
            #  reduce(last_seg), single_segment?) where reduce is count/sum
            # (merged by +) or max (merged by max) — all three are exact
            # under block splits because within a bucket the per-turn value
            # is a running reduction of per-row contributions
            b_us = np.int64(sf.bucket_seconds * 1e6)
            if isinstance(sf, TumblingCount):
                vals = _flag(tbl, f"__sf_{sf.name}").astype(np.int64)
            else:
                # stage 1 already clamped nulls/negatives to 0 (int64)
                vals = (
                    pc.fill_null(tbl[f"__sf_{sf.name}"], 0)
                    .to_numpy(zero_copy_only=False)
                    .astype(np.int64)
                )
            reduce = np.max if isinstance(sf, TumblingMax) else np.sum
            bucket = ts // b_us
            new_seg = np.empty(len(ts), dtype=bool)
            new_seg[0] = True
            new_seg[1:] = bucket[1:] != bucket[:-1]
            seg = np.cumsum(new_seg) - 1
            nseg = int(seg[-1]) + 1
            cnt_first = int(reduce(vals[seg == 0]))
            cnt_last = cnt_first if nseg == 1 else int(reduce(vals[seg == nseg - 1]))
            summ[f"t:{sf.name}"] = (int(bucket[0]), cnt_first, int(bucket[-1]), cnt_last, nseg == 1)
        elif isinstance(sf, TumblingDistinct):
            # distinct variant of the tumbling segment-partial: the partial
            # is the exact SET of values in the boundary segments (bounded
            # by one bucket's distinct count; merge unions, then drops the
            # set once the cap saturates — split-invariant because a
            # saturated count can never move again)
            b_us = np.int64(sf.bucket_seconds * 1e6)
            col0 = tbl[f"__sf_{sf.name}"].combine_chunks()
            enc = col0 if pa.types.is_dictionary(col0.type) else pc.dictionary_encode(col0)
            codes = pc.fill_null(enc.indices.cast(pa.int64()), -1).to_numpy(
                zero_copy_only=False
            )
            dstrs = enc.dictionary.to_pylist()
            bucket = ts // b_us
            new_seg = np.empty(len(ts), dtype=bool)
            new_seg[0] = True
            new_seg[1:] = bucket[1:] != bucket[:-1]
            seg = np.cumsum(new_seg) - 1
            nseg = int(seg[-1]) + 1

            def _seg_set(mask, codes=codes, dstrs=dstrs):
                cs = codes[mask]
                u = np.unique(cs[cs >= 0])
                return frozenset(dstrs[int(c)] for c in u)

            set_first = _seg_set(seg == 0)
            set_last = set_first if nseg == 1 else _seg_set(seg == nseg - 1)
            summ[f"t:{sf.name}"] = (
                int(bucket[0]), set_first, int(bucket[-1]), set_last, nseg == 1,
            )
        elif isinstance(sf, SessionWindow):
            g_us = np.int64(sf.gap_seconds * 1e6)
            gaps = np.diff(ts) > g_us
            internal = int(gaps.sum())
            tail = len(ts) - (int(np.flatnonzero(gaps)[-1]) + 1) if internal else len(ts)
            summ[f"s:{sf.name}"] = (internal, tail)
        elif isinstance(sf, SequenceMatch):
            firsts = turn[_flag(tbl, f"__sf_{sf.name}")]
            keep_from = np.searchsorted(firsts, turn[-1] - sf.within_turns, side="left")
            summ[f"q:{sf.name}"] = firsts[keep_from:]
        elif isinstance(sf, KvCache):
            pos = np.flatnonzero(_flag(tbl, f"__sf_{sf.name}"))
            if len(pos):
                vcol = tbl[f"__sfv_{sf.name}"]
                if isinstance(vcol, pa.ChunkedArray):
                    vcol = vcol.combine_chunks()
                j = int(pos[-1])
                summ[f"k:{sf.name}"] = (int(ts[j]), vcol[j].as_py())
            else:
                summ[f"k:{sf.name}"] = None
        elif isinstance(sf, WindowCount):
            pass  # reads its source IncrementWindow's buffer
        elif isinstance(sf, HasLabel):
            raise ValueError("label features are not saltable (sequential per conv)")
    return summ


def merge_state(prev: dict | None, summ: dict, spec: RuleSpec) -> dict:
    """Carry-state after (prefix → this block), in the exact format
    ``eval_released`` reads from and (``persist=True``) writes back into
    ``states`` (see the ``stateful`` module docstring)."""
    p = prev or {}
    out: dict = {}
    for sf in spec.stateful:
        if isinstance(sf, IncrementWindow):
            w_us = np.int64(sf.window_seconds * 1e6)
            pbuf = p.get(f"w:{sf.name}", np.empty(0, dtype=np.int64))
            keep = pbuf[pbuf > summ["last_ts"] - w_us]
            out[f"w:{sf.name}"] = np.concatenate(
                [keep, summ[f"w:{sf.name}"]]
            ).astype(np.int64)[-sf.max_events_cap :]
        elif isinstance(sf, (TumblingCount, TumblingSum, TumblingMax)):
            fb, cf, lb, cl, single = summ[f"t:{sf.name}"]
            pv = p.get(f"t:{sf.name}")
            if pv is not None and single and pv[0] == fb:
                merged = (
                    max(int(pv[1]), cl)
                    if isinstance(sf, TumblingMax)
                    else int(pv[1]) + cl
                )
                out[f"t:{sf.name}"] = (lb, merged)
            else:
                out[f"t:{sf.name}"] = (lb, cl)
        elif isinstance(sf, TumblingDistinct):
            fb, s_f, lb, s_l, single = summ[f"t:{sf.name}"]
            pv = p.get(f"t:{sf.name}")  # (bucket, count, seen|None)
            cap = sf.max_distinct_cap
            if pv is not None and single and pv[0] == fb:
                if pv[2] is None:  # already saturated — pinned at cap
                    out[f"t:{sf.name}"] = (lb, cap, None)
                else:
                    u = frozenset(pv[2] | s_l)
                    c = min(len(u), cap)
                    out[f"t:{sf.name}"] = (lb, c, None if c >= cap else u)
            else:
                c = min(len(s_l), cap)
                out[f"t:{sf.name}"] = (lb, c, None if c >= cap else s_l)
        elif isinstance(sf, SessionWindow):
            internal, tail = summ[f"s:{sf.name}"]
            g_us = np.int64(sf.gap_seconds * 1e6)
            pv = p.get(f"s:{sf.name}")
            if pv is None:
                sid, cnt = internal, tail
            else:
                last_ts_p, sid_p, cnt_p = pv
                boundary = (summ["first_ts"] - last_ts_p) > g_us
                sid = sid_p + (1 if boundary else 0) + internal
                cnt = tail + (cnt_p if (internal == 0 and not boundary) else 0)
            out[f"s:{sf.name}"] = (summ["last_ts"], int(sid), int(cnt))
        elif isinstance(sf, SequenceMatch):
            pbuf = p.get(f"q:{sf.name}", np.empty(0, dtype=np.int64))
            keep = pbuf[pbuf >= summ["last_turn"] - sf.within_turns]
            out[f"q:{sf.name}"] = np.concatenate([keep, summ[f"q:{sf.name}"]]).astype(np.int64)
        elif isinstance(sf, KvCache):
            k = summ[f"k:{sf.name}"]
            prev_k = p.get(f"k:{sf.name}")
            out[f"k:{sf.name}"] = k if k is not None else prev_k
        elif isinstance(sf, WindowCount):
            pass
    # drop None KV entries so eval's st.get(...) semantics match an absent key
    out = {k: v for k, v in out.items() if v is not None}
    out["last_turn"] = summ["last_turn"]
    return out


def carve_hot_blocks(
    tbl: pa.Table, spec: RuleSpec, hot: frozenset, block_turns: int
) -> tuple[pa.Table, list, list]:
    """Split the hot conversations' contiguous ``(conv, turn_idx //
    block_turns)`` runs off a sorted, deduped slice.  Returns ``(cold rows,
    held blocks [(conv, blk, table)], summaries [(conv, blk, first_turn,
    summary)])``; the summaries feed :func:`scan_seeds`, the held blocks
    :func:`eval_seeded_blocks`."""
    if not hot or tbl.num_rows == 0:
        return tbl, [], []
    codes, dictionary = _conv_codes(tbl)
    names = dictionary.to_pylist()
    hot_code = np.array([c in hot for c in names], dtype=bool)
    if not hot_code.any():
        return tbl, [], []
    row_hot = hot_code[codes]
    turn = tbl["turn_idx"].to_numpy().astype(np.int64)
    blk = turn // np.int64(block_turns)
    n = len(codes)
    change = np.empty(n, dtype=bool)
    change[0] = True
    change[1:] = (codes[1:] != codes[:-1]) | (blk[1:] != blk[:-1])
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], n)
    hot_runs = row_hot[starts]
    held, summaries = [], []
    for s, e in zip(starts[hot_runs], ends[hot_runs]):
        cid, b = names[codes[s]], int(blk[s])
        block = tbl.slice(int(s), int(e - s)).combine_chunks()
        held.append((cid, b, block))
        summaries.append((cid, b, int(turn[s]), summarize_block(block, spec)))
    return tbl.filter(pa.array(~row_hot)), held, summaries


def scan_seeds(summaries: list, carry: dict, spec: RuleSpec) -> dict:
    """Driver scan: per conversation, merge block summaries in turn order
    from ``carry`` (conv -> carry-state, advanced in place past every
    block) and return each block's incoming state ``{(conv, blk): seed}``."""
    seeds: dict = {}
    for cid, blk, _first_turn, summ in sorted(summaries, key=lambda x: (x[0], x[2])):
        prev = carry.get(cid)
        seeds[(cid, blk)] = prev or {}
        carry[cid] = merge_state(prev, summ, spec)
    return seeds


def eval_seeded_blocks(held: list, seeds: dict, spec: RuleSpec, rule_plans) -> pa.Table | None:
    """Evaluate held blocks, each from its scanned incoming seed; None when
    nothing is left after the cross-epoch dedup against the seed.
    ``eval_released`` writes into the state dict it is given, so each block
    evaluates on a copy of its seed: no seed ever aliases the scan's carry,
    whether or not a Ray call (which copies arguments) sits in between."""
    outs = []
    for cid, b, block in held:
        states = {cid: dict(seeds.get((cid, b)) or {})}
        block = sort_and_dedup(block, states)
        if block.num_rows:
            out, _ = eval_released(block, spec, rule_plans, states, LabelStore(), {})
            outs.append(out)
    return pa.concat_tables(outs, promote_options="default") if outs else None


def detect_hot_convs(parquet_files: list[str], threshold: int) -> list[str]:
    """Distributed approximate hot-conversation detection: per-file value
    counts, locally filtered to convs with count ≥ threshold/(2·n_files)
    (a conversation with ≥ threshold total rows must clear that bar in some
    file), merged on the driver.  Heuristic by design — see module doc."""
    import ray

    @ray.remote
    def counts(path: str, bar: int) -> dict:
        import pyarrow.parquet as pq

        col = pq.read_table(path, columns=["conv_id"])["conv_id"].combine_chunks()
        enc = col.dictionary_encode()
        c = np.bincount(
            enc.indices.to_numpy(zero_copy_only=False),
            minlength=len(enc.dictionary),
        )
        names = enc.dictionary.to_pylist()
        return {names[i]: int(c[i]) for i in np.flatnonzero(c >= bar)}

    bar = max(1, threshold // max(1, 2 * len(parquet_files)))
    merged: dict = {}
    for d in ray.get([counts.remote(p, bar) for p in parquet_files]):
        for k, v in d.items():
            merged[k] = merged.get(k, 0) + v
    return [k for k, v in merged.items() if v >= threshold]


def run_batch_salted(
    parquet_files: list[str],
    spec: RuleSpec,
    num_partitions: int = 64,
    block_turns: int = 65_536,
    hot_convs: list[str] | None = None,
    hot_threshold: int = 250_000,
) -> pa.Table:
    """Salted batch evaluation: ``run_batch_exchange``'s plan with a hot
    set — cold conversations evaluate whole in their partition task, hot
    ones block-parallel with the carve/scan/seeded-eval protocol.  Output
    is byte-equal to ``run_batch_exchange`` (tested) — salting is purely a
    skew/latency fix.

    Reads go by bounded row-group chunks (one read task per ~512k rows of
    the segment-log plan), not whole files: the batch layout is
    conv-hash-partitioned, so a whale conversation concentrates in ONE
    file, and whole-file read tasks would serialize its stage-1 text
    kernels on one core no matter how well stage 2 is salted."""
    from osprey_ray.pipelines.flagship import _run_exchange
    from osprey_ray.streaming.source import SegmentLogStream

    check_hot_routing(spec)
    if hot_convs is None:
        hot_convs = detect_hot_convs(parquet_files, hot_threshold)
    reads = [c for c, _s, _e in SegmentLogStream(parquet_files, rows_per_epoch=524_288).plan]
    return _run_exchange(
        reads, spec, {}, num_partitions, hot=frozenset(hot_convs), block_turns=block_turns
    )
