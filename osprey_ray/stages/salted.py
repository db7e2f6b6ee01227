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
   blocks as its runs and no seed.  A block's summary is its row of that
   scan's carry-out table (``state.carry``) plus its ``blk``, first turn
   and first and last ``ts``.
2. **Scan** (:func:`scan_seeds`, driver, cheap) — per conversation,
   summaries combine in turn order (:func:`merge_state`, a Python fold
   over carry-table rows, O(hot blocks); associative per feature family,
   SURVEY §2.9) from the carry table into a seed table of the state each
   block starts from.  A block that opens at or below its carried
   ``last_turn`` cannot be summarised exactly and is refused.
3. **Seeded eval** (:func:`eval_seeded_blocks`, per partition) — one
   ``stateful.eval_runs`` call over all held rows, the blocks as runs
   seeded from their seed rows, after one mask drops rows at or below a
   seed's ``last_turn``.  No carry is written back: the scan advanced it.

Batch (``pipelines.flagship.run_batch_exchange(hot_convs=...)``, on its
route and partition tasks) runs the protocol once over the whole input
with an empty carry; streaming (``StreamingJob(hot_convs=...)``) runs it
once per epoch, with the carry table held by the driver and checkpointed
with the manifests.  Both route through the one conversation ring
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

import operator

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from osprey_ray.rules import (
    IncrementWindow,
    KvCache,
    RuleSpec,
    SequenceMatch,
    SessionWindow,
    TumblingCount,
    TumblingDistinct,
    TumblingMax,
    TumblingSum,
)
from osprey_ray.stages.stateful import NEG_INF, _conv_codes, eval_runs, scan_windows
from osprey_ray.state.carry import Carry

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


# the columns a block summary adds to its carry-out row
_SUMMARY = ("blk", "first_turn", "first_ts", "last_ts")


def merge_state(prev: dict | None, blk: dict, spec: RuleSpec) -> dict:
    """Carry row after (prefix → this block): the combine of the carried
    row ``prev`` (None: nothing carried) with a block summary row ``blk``,
    whose carry-out is the state the window scan leaves after the block
    when it starts from nothing.  Rows are carry-table rows as Python
    dicts; the result is the row that evaluating the block from ``prev``
    with ``persist=True`` leaves."""
    if prev is None:
        return blk
    first_ts, last_ts = blk["first_ts"], blk["last_ts"]
    # last_turn, and the other families by default: the block's
    out = dict(blk, last_seen=max(prev["last_seen"], blk["last_seen"]))
    for sf in spec.stateful:
        if isinstance(sf, IncrementWindow):
            key = f"w:{sf.name}"
            if prev[key] is not None:
                cut = last_ts - int(sf.window_seconds * 1e6)
                out[key] = ([x for x in prev[key] if x > cut] + blk[key])[-sf.max_events_cap :]
        elif isinstance(sf, SequenceMatch):
            key = f"q:{sf.name}"
            if prev[key] is not None:
                cut = blk["last_turn"] - sf.within_turns
                out[key] = [x for x in prev[key] if x >= cut] + blk[key]
        elif isinstance(sf, (TumblingCount, TumblingSum, TumblingMax, TumblingDistinct)):
            # the carried partial continues only into a block that stays in
            # the carried bucket from its first row to its last (one bucket
            # segment: ts does not decrease along a conversation's turns,
            # which the sliding-window scans rely on too)
            key = f"t:{sf.name}"
            pv, bv = prev[key], blk[key]
            bucket = first_ts // int(sf.bucket_seconds * 1e6)
            if pv is None or not pv["bucket"] == bv["bucket"] == bucket:
                continue
            if isinstance(sf, TumblingDistinct):
                cap = sf.max_distinct_cap
                both = pv["seen"] is not None and bv["seen"] is not None
                seen = sorted({*pv["seen"], *bv["seen"]}) if both else None
                c = cap if seen is None else min(len(seen), cap)
                out[key] = dict(bv, count=c, seen=None if c >= cap else seen)
            else:
                merge = max if isinstance(sf, TumblingMax) else operator.add
                out[key] = dict(bv, count=merge(pv["count"], bv["count"]))
        elif isinstance(sf, SessionWindow):
            # the block's own session id counts its internal breaks
            key = f"s:{sf.name}"
            pv, bv = prev[key], blk[key]
            if pv is not None:
                boundary = int(first_ts - pv["last_ts"] > int(sf.gap_seconds * 1e6))
                cnt = bv["count"] if bv["sid"] or boundary else pv["count"] + bv["count"]
                out[key] = dict(bv, sid=pv["sid"] + boundary + bv["sid"], count=cnt)
        elif isinstance(sf, KvCache):
            # the block's last write wins; the carried one stays otherwise
            key = f"k:{sf.name}"
            if blk[key] is None:
                out[key] = prev[key]
    return out


def carve_hot_blocks(
    tbl: pa.Table, spec: RuleSpec, hot: frozenset, block_turns: int
) -> tuple[pa.Table, pa.Table | None, pa.Table | None]:
    """Split the hot conversations' rows off a sorted, deduped slice.
    Returns ``(cold rows, held hot rows | None, summaries | None)``: the
    held rows stay in the slice's order, so each ``(conv, turn_idx //
    block_turns)`` block is one contiguous run, and the summaries are the
    carry-out table of one unseeded window scan over them with the blocks
    as its runs, plus each block's ``blk``, ``first_turn``, ``first_ts``
    and ``last_ts``.  The summaries feed :func:`scan_seeds`, the held rows
    :func:`eval_seeded_blocks`."""
    if not hot or tbl.num_rows == 0:
        return tbl, None, None
    codes, dictionary = _conv_codes(tbl)
    hot_code = pc.is_in(dictionary, pa.array(list(hot), dictionary.type))
    row_hot = hot_code.to_numpy(zero_copy_only=False)[codes]
    if not row_hot.any():  # a shipped dictionary may name absent convs
        return tbl, None, None
    held = tbl.filter(pa.array(row_hot))
    change, blk = _block_runs(held, block_turns)
    _, _, summaries = scan_windows(held, spec, change, None, persist=True)
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], held.num_rows)
    ts = held["ts"].cast(pa.int64()).to_numpy()
    turn = held["turn_idx"].to_numpy().astype(np.int64)
    for name, vals in zip(_SUMMARY, (blk[starts], turn[starts], ts[starts], ts[ends - 1])):
        summaries = summaries.append_column(name, pa.array(vals))
    return tbl.filter(pa.array(~row_hot)), held, summaries


def _block_runs(tbl: pa.Table, block_turns: int) -> tuple[np.ndarray, np.ndarray]:
    """Runs of ``(conv, turn_idx // block_turns)`` over grouped, ordered
    rows: (run-start mask, per-row block)."""
    codes, _ = _conv_codes(tbl)
    blk = tbl["turn_idx"].to_numpy().astype(np.int64) // np.int64(block_turns)
    change = np.empty(len(codes), dtype=bool)
    change[0] = True
    change[1:] = (codes[1:] != codes[:-1]) | (blk[1:] != blk[:-1])
    return change, blk


def _block_keys(cids, blk) -> pa.Array:
    """``conv_id#blk`` key of each block."""
    return pc.binary_join_element_wise(pc.cast(cids, pa.string()), pc.cast(blk, pa.string()), "#")


def scan_seeds(summaries: pa.Table, carry: Carry, spec: RuleSpec) -> pa.Table:
    """Driver scan: per conversation, combine block summaries in turn order
    from the carry table ``carry`` (advanced in place past every block) and
    return each block's incoming state: a seed table aligned to
    ``summaries``' rows, with their ``conv_id`` and ``blk``.  Raises
    ``ValueError`` for a block that opens at or below its carried
    ``last_turn``: its rows were summarised as new turns, which the
    partitioning assumption (ts non-decreasing in turn_idx, so such a row
    is late-dropped first) rules out."""
    schema = pa.schema([f for f in summaries.schema if f.name not in _SUMMARY])
    order = pc.sort_indices(summaries, [("conv_id", "ascending"), ("blk", "ascending")])
    carried = carry.gather(pc.unique(summaries["conv_id"]), schema)
    rows = [] if carried is None else carried.to_pylist()
    state = {r["conv_id"]: r for r in rows if r["conv_id"] is not None}
    seeds: list = [None] * summaries.num_rows
    for i, row in zip(order.to_pylist(), summaries.take(order).to_pylist()):
        cid = row["conv_id"]
        prev = state.get(cid)
        if prev is not None and row["first_turn"] <= prev["last_turn"]:
            raise ValueError(
                f"hot conversation {cid!r} block {row['blk']} opens at turn {row['first_turn']}, "
                f"at or below its carried last_turn {prev['last_turn']}: its ts decreased along "
                "its turns, against the partitioning assumption (ts non-decreasing in turn_idx)"
            )
        seeds[i] = prev or {}
        state[cid] = merge_state(prev, row, spec)
    carry.update(pa.Table.from_pylist(list(state.values()), schema=schema))
    out = pa.Table.from_pylist(seeds, schema=schema)
    return out.set_column(0, "conv_id", summaries["conv_id"]).append_column("blk", summaries["blk"])


def eval_seeded_blocks(
    held: pa.Table | None, seeds: pa.Table, spec: RuleSpec, rule_plans, block_turns: int
) -> pa.Table | None:
    """Evaluate held hot rows in one call, each ``(conv, blk)`` run from
    its row of the seed table ``seeds`` (from :func:`scan_seeds`); None
    when nothing is left.  Rows at or below their seed's ``last_turn`` (a
    re-delivery of turns an earlier epoch processed) are dropped first, as
    ``sort_and_dedup`` drops them against a conversation's carry.  Seeds
    are only read: the driver scan has already advanced the carry past
    every block."""
    if held is None:
        return None
    change, blk = _block_runs(held, block_turns)
    starts = np.flatnonzero(change)
    keys = _block_keys(held["conv_id"].take(pa.array(starts)), pa.array(blk[starts]))
    run_seeds = seeds.take(pc.index_in(keys, _block_keys(seeds["conv_id"], seeds["blk"])))
    last = pc.fill_null(run_seeds["last_turn"], NEG_INF).to_numpy()
    run = np.cumsum(change) - 1
    keep = held["turn_idx"].to_numpy() > last[run]
    if not keep.all():
        held, run = held.filter(pa.array(keep)), run[keep]
        if held.num_rows == 0:
            return None
        change = np.append(True, run[1:] != run[:-1])
        run_seeds = run_seeds.take(pa.array(run[change]))
    return eval_runs(held, spec, rule_plans, change, run_seeds)


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
