"""Hot-conversation salting: the one implementation of the protocol.

BASELINE.json's north_star requires "hash-partitioned by conv_id with
explicit salting for hot conversations".  Whole-key routing serializes a
whale conversation onto one evaluator; salting routes each hot
conversation's contiguous turn-index blocks (``blk = turn_idx //
block_turns``) by the sub-key ``conv_id#blk`` instead (the route is
``streaming.job._read_route``), and still produces output byte-equal to
unsalted evaluation:

1. **Carve** (:func:`carve_hot_blocks`, per partition) — split the hot
   conversations' rows off a sorted, deduped slice and hold them as one
   table, and run ``eval_released``'s window scan
   (``stateful.scan_windows``) once over them with the ``(conv, blk)``
   blocks as its runs and no seed.  A block's summary is that scan's
   carry-out for it (the sliding-window event tail, tumbling partial,
   session tail, CEP first-match tail, last KV write and ``last_turn``)
   plus its first and last ``ts``.
2. **Scan** (:func:`scan_seeds`, driver, cheap) — per conversation,
   summaries combine in turn order (:func:`merge_state`) from the carry
   into the state each block starts from.  The combine reads carry values
   only, one small dict per block; it is associative per feature family
   (SURVEY §2.9 notes window merges are associative).
3. **Seeded eval** (:func:`eval_seeded_blocks`, per partition) — one
   ``stateful.eval_runs`` call over all held rows, the blocks as runs
   seeded from their scanned states, after one mask drops rows at or below
   a seed's ``last_turn``.  No carry is written back: the scan advanced it.

Batch (``pipelines.flagship.run_batch_exchange(hot_convs=...)``, on its
route and partition tasks) runs the protocol once over the whole input
with an empty carry; streaming (``StreamingJob(hot_convs=...)``) runs it
once per epoch, with the carry held by the driver and checkpointed with
the manifests.  Both route through the one conversation ring
(``stateful.route_keys``), a hot block by its ``conv_id#blk`` key.

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

import ray

from osprey_ray.rules import (
    IncrementWindow,
    RuleSpec,
    SequenceMatch,
    SessionWindow,
    TumblingCount,
    TumblingDistinct,
    TumblingMax,
    TumblingSum,
)
from osprey_ray.stages.stateful import NEG_INF, _conv_codes, _group_cids, eval_runs, scan_windows

# turns per salted block (``blk = turn_idx // HOT_BLOCK_TURNS``): the
# default of batch ``run_batch_exchange(hot_convs=...)`` and of streaming
# ``StreamingJob(hot_convs=...)`` alike
HOT_BLOCK_TURNS = 512


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


def merge_state(prev: dict | None, summ: tuple, spec: RuleSpec) -> dict:
    """Carry state after (prefix → this block): the combine of the carried
    state ``prev`` with a block summary ``(first_ts, last_ts, carry-out)``,
    where the carry-out is the state the window scan leaves after the block
    when it starts from nothing.  Reads carry values only, and writes the
    state (value types included) that evaluating the block from ``prev``
    with ``persist=True`` leaves."""
    first_ts, last_ts, blk = summ
    if not prev:
        return dict(blk)
    # KvCache: the block's last write wins (the carried one stays when the
    # block wrote none); last_turn: the block's
    out = {**prev, **blk}
    for sf in spec.stateful:
        if isinstance(sf, IncrementWindow):
            key = f"w:{sf.name}"
            pbuf = prev.get(key)
            if pbuf is not None:
                keep = pbuf[pbuf > last_ts - np.int64(sf.window_seconds * 1e6)]
                out[key] = np.concatenate([keep, blk[key]])[-sf.max_events_cap :]
        elif isinstance(sf, SequenceMatch):
            key = f"q:{sf.name}"
            pbuf = prev.get(key)
            if pbuf is not None:
                keep = pbuf[pbuf >= blk["last_turn"] - sf.within_turns]
                out[key] = np.concatenate([keep, blk[key]])
        elif isinstance(sf, (TumblingCount, TumblingSum, TumblingMax, TumblingDistinct)):
            # the carried partial continues only into a block that stays in
            # the carried bucket from its first row to its last (one bucket
            # segment: ts does not decrease along a conversation's turns,
            # which the sliding-window scans rely on too)
            key = f"t:{sf.name}"
            pv, bv = prev.get(key), blk[key]
            if pv is None or not pv[0] == bv[0] == first_ts // np.int64(sf.bucket_seconds * 1e6):
                continue
            if isinstance(sf, TumblingDistinct):
                cap = sf.max_distinct_cap
                seen = None if pv[2] is None or bv[2] is None else pv[2] | bv[2]
                c = cap if seen is None else min(len(seen), cap)
                out[key] = (bv[0], c, None if c >= cap else seen)
            elif isinstance(sf, TumblingMax):
                out[key] = (bv[0], max(pv[1], bv[1]))
            else:
                out[key] = (bv[0], pv[1] + bv[1])
        elif isinstance(sf, SessionWindow):
            # the block's own session id counts its internal breaks
            key = f"s:{sf.name}"
            pv = prev.get(key)
            if pv is not None:
                lt, breaks, cnt = blk[key]
                boundary = int(first_ts - pv[0] > np.int64(sf.gap_seconds * 1e6))
                sid = pv[1] + boundary + breaks
                out[key] = (lt, sid, cnt if breaks or boundary else pv[2] + cnt)
    return out


def carve_hot_blocks(
    tbl: pa.Table, spec: RuleSpec, hot: frozenset, block_turns: int
) -> tuple[pa.Table, pa.Table | None, list]:
    """Split the hot conversations' rows off a sorted, deduped slice.
    Returns ``(cold rows, held hot rows | None, summaries [(conv, blk,
    (first_ts, last_ts, carry-out))])``: the held rows stay in
    the slice's order, so each ``(conv, turn_idx // block_turns)`` block is
    one contiguous run, and the carry-outs come from one unseeded window
    scan over them with the blocks as its runs.  The summaries feed
    :func:`scan_seeds`, the held rows :func:`eval_seeded_blocks`."""
    if not hot or tbl.num_rows == 0:
        return tbl, None, []
    codes, dictionary = _conv_codes(tbl)
    hot_code = pc.is_in(dictionary, pa.array(list(hot), dictionary.type))
    row_hot = hot_code.to_numpy(zero_copy_only=False)[codes]
    if not row_hot.any():  # a shipped dictionary may name absent convs
        return tbl, None, []
    held = tbl.filter(pa.array(row_hot))
    change, blk, cids = _block_runs(held, block_turns)
    _, _, carry_out = scan_windows(held, spec, change, None, persist=True)
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], held.num_rows)
    ts = held["ts"].cast(pa.int64()).to_numpy()
    summaries = [
        (cid, b, (ts0, ts1, {key: vals[g] for key, vals in carry_out if vals[g] is not None}))
        for g, (cid, b, ts0, ts1) in enumerate(
            zip(cids, blk[starts].tolist(), ts[starts].tolist(), ts[ends - 1].tolist())
        )
    ]
    return tbl.filter(pa.array(~row_hot)), held, summaries


def _block_runs(tbl: pa.Table, block_turns: int) -> tuple[np.ndarray, np.ndarray, list]:
    """Runs of ``(conv, turn_idx // block_turns)`` over grouped, ordered
    rows: (run-start mask, per-row block, conv_id of each run)."""
    codes, dictionary = _conv_codes(tbl)
    blk = tbl["turn_idx"].to_numpy().astype(np.int64) // np.int64(block_turns)
    change = np.empty(len(codes), dtype=bool)
    change[0] = True
    change[1:] = (codes[1:] != codes[:-1]) | (blk[1:] != blk[:-1])
    return change, blk, _group_cids(dictionary, codes, np.flatnonzero(change))


def scan_seeds(summaries: list, carry: dict, spec: RuleSpec) -> dict:
    """Driver scan: per conversation, combine block summaries in turn order
    from ``carry`` (conv -> carry-state, advanced in place past every
    block) and return each block's incoming state ``{(conv, blk): seed}``."""
    seeds: dict = {}
    for cid, blk, summ in sorted(summaries, key=lambda x: x[:2]):
        prev = carry.get(cid)
        seeds[(cid, blk)] = prev or {}
        carry[cid] = merge_state(prev, summ, spec)
    return seeds


def eval_seeded_blocks(
    held: pa.Table | None, seeds: dict, spec: RuleSpec, rule_plans, block_turns: int
) -> pa.Table | None:
    """Evaluate held hot rows in one call, each ``(conv, blk)`` run from
    its scanned incoming seed; None when nothing is left.  Rows at or
    below their seed's ``last_turn`` (a re-delivery of turns an earlier
    epoch processed) are dropped first, as ``sort_and_dedup`` drops them
    against a conversation's carry.  Seeds are only read: the driver scan
    has already advanced the carry past every block."""
    if held is None:
        return None
    change, blk, cids = _block_runs(held, block_turns)
    run_seeds = [seeds.get(key) or None for key in zip(cids, blk[change].tolist())]
    last = np.array(
        [s.get("last_turn", NEG_INF) if s else NEG_INF for s in run_seeds], dtype=np.int64
    )
    run = np.cumsum(change) - 1
    keep = held["turn_idx"].to_numpy() > last[run]
    if not keep.all():
        held, run = held.filter(pa.array(keep)), run[keep]
        if held.num_rows == 0:
            return None
        change = np.append(True, run[1:] != run[:-1])
    return eval_runs(held, spec, rule_plans, change, [run_seeds[g] for g in run[change]])


@ray.remote
def _hot_counts(path: str, bar: int) -> dict:
    """One file's conversations with at least ``bar`` rows, with counts."""
    import pyarrow.parquet as pq

    enc = pq.read_table(path, columns=["conv_id"])["conv_id"].combine_chunks().dictionary_encode()
    c = np.bincount(enc.indices.to_numpy(zero_copy_only=False), minlength=len(enc.dictionary))
    names = enc.dictionary.to_pylist()
    return {names[i]: int(c[i]) for i in np.flatnonzero(c >= bar)}


def detect_hot_convs(parquet_files: list[str], threshold: int) -> list[str]:
    """Distributed approximate hot-conversation detection: per-file value
    counts, locally filtered to convs with count ≥ threshold/(2·n_files)
    (a conversation with ≥ threshold total rows must clear that bar in some
    file), merged on the driver.  Heuristic by design — see module doc."""
    bar = max(1, threshold // max(1, 2 * len(parquet_files)))
    merged: dict = {}
    for d in ray.get([_hot_counts.remote(p, bar) for p in parquet_files]):
        for k, v in d.items():
            merged[k] = merged.get(k, 0) + v
    return [k for k, v in merged.items() if v >= threshold]
