"""Transcript-native training-data preparation over the conversation log
(the BASELINE.json ``input_hint`` table: ``conv_id, turn_idx, role, text,
tool, ts``).

These are the operators a pretraining/SFT pipeline runs over agent
transcripts AFTER the rules/CEP engine (``pipelines/flagship.py``) has
classified them: rendering conversations into single training-example
texts, splitting, and per-conversation statistics.  Reference analogue:
the reference engine's per-event executor only ever sees one action at a
time (osprey_worker/src/osprey/worker/lib/osprey_engine.py) — rendering a
whole conversation is a capability the Ray Data engine adds on top, built
from the same one-exchange-per-key primitives as ``textops``.

Scale shape shared by every op here: ONE hash(conv_id) exchange routes
whole conversations to partitions (conversations are bounded — tens of
turns — so per-conversation work is O(1) per row), then a single
vectorized callback per partition does lexsort + group-boundary math.
No driver materialization, no per-row Python in the hot path.
"""

from __future__ import annotations

import glob
import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from osprey_ray.pipelines.analytics import _by_key_partition

__all__ = [
    "conv_render",
    "conv_stats",
    "qa_pairs",
    "conv_sessions",
    "tool_transitions",
    "domain_histogram",
    "conv_turn_gap",
]


def _read_turns(dataset_dir: str, columns: list[str]):
    return rd.read_parquet(
        sorted(glob.glob(f"{dataset_dir}/batch/*.parquet")), columns=columns
    )


def conv_render(dataset_dir: str, last_k: int = 8):
    """Render each conversation into ONE training-example text: keep-first
    dedup on ``(conv_id, turn_idx)`` (re-delivered rows are exact copies),
    order by ``turn_idx``, truncate to the LAST ``last_k`` turns (the
    context-window truncation every SFT pipeline applies), and serialize
    as ``role: text`` lines joined by newlines.

    Output per conversation: total turn count, rendered turn count,
    rendered char count, and the md5 of the rendered text (the driver
    compare carries the digest, not the text — same convention as
    ``textops.q_line_dedup``'s ``kept_md5``).

    The md5 is computed once per CONVERSATION (group, not row); everything
    else is Arrow/numpy: group bounds from one sort, the last-k window as
    a difference-array cumsum, line serialization via
    ``binary_join_element_wise`` and group reassembly via a ListArray +
    ``binary_join`` — zero per-row Python."""
    ds = _read_turns(dataset_dir, ["conv_id", "turn_idx", "role", "text", "ts"])

    def render(t: pa.Table) -> pa.Table:
        t = t.sort_by(
            [("conv_id", "ascending"), ("turn_idx", "ascending"), ("ts", "ascending")]
        )
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        tix = t["turn_idx"].to_numpy()
        keep = np.ones(len(conv), dtype=bool)
        keep[1:] = (conv[1:] != conv[:-1]) | (tix[1:] != tix[:-1])
        t = t.filter(pa.array(keep))
        conv = conv[keep]
        starts = np.concatenate([[0], np.nonzero(conv[1:] != conv[:-1])[0] + 1])
        ends = np.append(starts[1:], len(conv))
        n_turns = ends - starts
        lo = np.maximum(starts, ends - last_k)
        delta = np.zeros(len(conv) + 1, dtype=np.int64)
        np.add.at(delta, lo, 1)
        np.add.at(delta, ends, -1)
        sel = np.cumsum(delta[:-1]) > 0
        # group blocks arrive as large_string — stay in the large family
        # (a partition's rendered text may exceed the 2 GiB string limit)
        lines = pc.binary_join_element_wise(
            pc.cast(t["role"], pa.large_string()),
            pc.cast(t["text"], pa.large_string()),
            pa.scalar(": ", pa.large_string()),
        )
        if isinstance(lines, pa.ChunkedArray):
            lines = lines.combine_chunks()
        kept = lines.filter(pa.array(sel))
        n_kept = np.minimum(n_turns, last_k)
        offs = np.concatenate([[0], np.cumsum(n_kept)])
        la = pa.LargeListArray.from_arrays(pa.array(offs, pa.int64()), kept)
        txt = pc.binary_join(la, pa.scalar("\n", pa.large_string()))
        dig = [hashlib.md5(x.encode()).hexdigest() for x in txt.to_pylist()]
        return pa.table(
            {
                "conv_id": pa.array(conv[starts], pa.string()),
                "n_turns": pa.array(n_turns, pa.int64()),
                "n_rendered": pa.array(n_kept, pa.int64()),
                "n_chars": pc.cast(pc.utf8_length(txt), pa.int64()),
                "rendered_md5": pa.array(dig, pa.string()),
            }
        )

    return _by_key_partition(ds, "conv_id").map_groups(render, batch_format="pyarrow")


def conv_stats(dataset_dir: str):
    """Per-conversation profile — the dataset-card statistics a curation
    pass filters on (turn balance, tool usage, wall duration): turn count
    after keep-first dedup, per-role counts, tool-call count, total chars,
    and conversation duration in whole seconds.  Single conv exchange +
    one vectorized reduceat pass; no text leaves the partition."""
    ds = _read_turns(dataset_dir, ["conv_id", "turn_idx", "role", "text", "tool", "ts"])

    def stats(t: pa.Table) -> pa.Table:
        t = t.sort_by(
            [("conv_id", "ascending"), ("turn_idx", "ascending"), ("ts", "ascending")]
        )
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        tix = t["turn_idx"].to_numpy()
        keep = np.ones(len(conv), dtype=bool)
        keep[1:] = (conv[1:] != conv[:-1]) | (tix[1:] != tix[:-1])
        t = t.filter(pa.array(keep))
        conv = conv[keep]
        starts = np.concatenate([[0], np.nonzero(conv[1:] != conv[:-1])[0] + 1])
        ends = np.append(starts[1:], len(conv))
        role = t["role"].to_numpy(zero_copy_only=False)
        is_user = (role == "user").astype(np.int64)
        is_asst = (role == "assistant").astype(np.int64)
        has_tool = pc.is_valid(t["tool"]).to_numpy(zero_copy_only=False).astype(np.int64)
        nchars = pc.cast(pc.utf8_length(t["text"]), pa.int64()).to_numpy()
        tus = t["ts"].cast(pa.int64()).to_numpy()
        out = {
            "conv_id": pa.array(conv[starts], pa.string()),
            "n_turns": pa.array(ends - starts, pa.int64()),
            "n_user": pa.array(np.add.reduceat(is_user, starts), pa.int64()),
            "n_assistant": pa.array(np.add.reduceat(is_asst, starts), pa.int64()),
            "n_tool_calls": pa.array(np.add.reduceat(has_tool, starts), pa.int64()),
            "total_chars": pa.array(np.add.reduceat(nchars, starts), pa.int64()),
            "duration_s": pa.array(
                (np.maximum.reduceat(tus, starts) - np.minimum.reduceat(tus, starts))
                // 1_000_000,
                pa.int64(),
            ),
        }
        return pa.table(out)

    return _by_key_partition(ds, "conv_id").map_groups(stats, batch_format="pyarrow")


_QA_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("n_pairs", pa.int64()),
        ("pairs_md5", pa.string()),
    ]
)


def qa_pairs(dataset_dir: str):
    """Extract (user → assistant) instruction-tuning pairs: after
    keep-first dedup, every user turn immediately followed (turn_idx + 1)
    by an assistant turn becomes one ``Q: …\\nA: …`` example.  Output per
    conversation: pair count + md5 of the double-newline-joined pair
    block (digest convention of :func:`conv_render`).  Conversations with
    zero pairs emit nothing.

    Same one-exchange shape as :func:`conv_render`; pair detection is a
    shifted-array comparison (role[i]=='user' & role[i+1]=='assistant' &
    same conv & consecutive turn_idx), fully vectorized."""
    ds = _read_turns(dataset_dir, ["conv_id", "turn_idx", "role", "text", "ts"])

    def pairs(t: pa.Table) -> pa.Table:
        t = t.sort_by(
            [("conv_id", "ascending"), ("turn_idx", "ascending"), ("ts", "ascending")]
        )
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        tix = t["turn_idx"].to_numpy()
        keep = np.ones(len(conv), dtype=bool)
        keep[1:] = (conv[1:] != conv[:-1]) | (tix[1:] != tix[:-1])
        t = t.filter(pa.array(keep))
        conv, tix = conv[keep], tix[keep]
        role = t["role"].to_numpy(zero_copy_only=False)
        if len(conv) < 2:
            return _QA_SCHEMA.empty_table()
        is_pair = (
            (role[:-1] == "user")
            & (role[1:] == "assistant")
            & (conv[:-1] == conv[1:])
            & (tix[1:] == tix[:-1] + 1)
        )
        qi = np.nonzero(is_pair)[0]
        if len(qi) == 0:
            return _QA_SCHEMA.empty_table()
        text = t["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        text = pc.cast(text, pa.large_string())
        q = text.take(pa.array(qi, pa.int64()))
        a = text.take(pa.array(qi + 1, pa.int64()))
        qa = pc.binary_join_element_wise(
            q, a, pa.scalar("\nA: ", pa.large_string())
        )
        n = len(qi)
        pair = pc.binary_join_element_wise(
            pa.array(["Q: "] * n, pa.large_string()),
            qa,
            pa.scalar("", pa.large_string()),
        )
        pconv = conv[qi]
        starts = np.concatenate([[0], np.nonzero(pconv[1:] != pconv[:-1])[0] + 1])
        counts = np.diff(np.append(starts, n))
        offs = np.concatenate([[0], np.cumsum(counts)])
        la = pa.LargeListArray.from_arrays(pa.array(offs, pa.int64()), pair)
        block = pc.binary_join(la, pa.scalar("\n\n", pa.large_string()))
        dig = [hashlib.md5(x.encode()).hexdigest() for x in block.to_pylist()]
        return pa.table(
            {
                "conv_id": pa.array(pconv[starts], pa.string()),
                "n_pairs": pa.array(counts, pa.int64()),
                "pairs_md5": pa.array(dig, pa.string()),
            }
        )

    return _by_key_partition(ds, "conv_id").map_groups(pairs, batch_format="pyarrow")


def conv_sessions(dataset_dir: str, gap_s: int = 1800):
    """Segment each conversation into SESSIONS at idle gaps > ``gap_s``
    (the transcript-side twin of the event-table sessionizer
    ``analytics.q_session_counts``, and the same gap rule the streaming
    engine's SessionWindow uses): per (conv, session) turn count and
    event-time span.  Keep-first dedup, then a lag/cumsum boundary pass —
    one conv exchange, fully vectorized."""
    ds = _read_turns(dataset_dir, ["conv_id", "turn_idx", "ts"])
    gap_us = gap_s * 1_000_000

    def sessions(t: pa.Table) -> pa.Table:
        t = t.sort_by(
            [("conv_id", "ascending"), ("turn_idx", "ascending"), ("ts", "ascending")]
        )
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        tix = t["turn_idx"].to_numpy()
        keep = np.ones(len(conv), dtype=bool)
        keep[1:] = (conv[1:] != conv[:-1]) | (tix[1:] != tix[:-1])
        t = t.filter(pa.array(keep))
        conv = conv[keep]
        # sessions break at conv change or event-time gap > gap_us; note
        # turn order (turn_idx) is the processing order, so a late turn
        # with an out-of-order ts still belongs to its turn position
        tus = t["ts"].cast(pa.int64()).to_numpy()
        newsess = np.ones(len(conv), dtype=bool)
        newsess[1:] = (conv[1:] != conv[:-1]) | (tus[1:] - tus[:-1] > gap_us)
        sid = np.cumsum(newsess) - 1
        starts = np.nonzero(newsess)[0]
        ends = np.append(starts[1:], len(conv))
        # session_idx restarts per conversation
        conv_first = np.ones(len(starts), dtype=bool)
        conv_first[1:] = conv[starts][1:] != conv[starts][:-1]
        conv_start_sess = np.maximum.accumulate(
            np.where(conv_first, np.arange(len(starts)), 0)
        )
        return pa.table(
            {
                "conv_id": pa.array(conv[starts], pa.string()),
                "session_idx": pa.array(
                    np.arange(len(starts)) - conv_start_sess, pa.int64()
                ),
                "n_turns": pa.array(ends - starts, pa.int64()),
                "start_us": pa.array(np.minimum.reduceat(tus, starts), pa.int64()),
                "end_us": pa.array(np.maximum.reduceat(tus, starts), pa.int64()),
            }
        )

    return _by_key_partition(ds, "conv_id").map_groups(sessions, batch_format="pyarrow")


def tool_transitions(dataset_dir: str):
    """Tool-usage transition counts: for every pair of CONSECUTIVE tool
    turns within a conversation (ordered by turn_idx after dedup,
    intervening non-tool turns skipped), count (from_tool → to_tool) —
    the CEP-adjacency mining that surfaces the planted exec→mail
    sequences (datagen plants them; the flagship SequenceMatch rule fires
    on them).  One conv exchange; per-partition shifted-array compare,
    then a tiny per-batch combiner into a global (from, to) groupby."""
    from ray.data.aggregate import Sum

    ds = _read_turns(dataset_dir, ["conv_id", "turn_idx", "tool", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "from_tool": pa.array([], pa.string()),
                "to_tool": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
            }
        )
        t = t.sort_by(
            [("conv_id", "ascending"), ("turn_idx", "ascending"), ("ts", "ascending")]
        )
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        tix = t["turn_idx"].to_numpy()
        keep = np.ones(len(conv), dtype=bool)
        keep[1:] = (conv[1:] != conv[:-1]) | (tix[1:] != tix[:-1])
        t = t.filter(pa.array(keep))
        conv = conv[keep]
        tool = t["tool"].to_numpy(zero_copy_only=False)
        has = pa.compute.is_valid(t["tool"]).to_numpy(zero_copy_only=False)
        idx = np.nonzero(has)[0]
        if len(idx) < 2:
            return empty
        same = conv[idx[1:]] == conv[idx[:-1]]
        f = tool[idx[:-1]][same].astype(str)
        to = tool[idx[1:]][same].astype(str)
        if len(f) == 0:
            return empty
        key = np.char.add(np.char.add(f, "␟"), to)  # unit-separator glyph
        uk, cnt = np.unique(key, return_counts=True)
        parts = np.char.partition(uk, "␟")
        return pa.table(
            {
                "from_tool": pa.array(parts[:, 0], pa.string()),
                "to_tool": pa.array(parts[:, 2], pa.string()),
                "n": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    return (
        _by_key_partition(ds, "conv_id")
        .map_groups(partial, batch_format="pyarrow")
        .groupby(["from_tool", "to_tool"])
        .aggregate(Sum("n", alias_name="n"))
    )


_URL_HOST_RE = None  # compiled lazily in the worker (once per process)
# shared VERBATIM with the DuckDB twin (the pii_redact convention):
URL_HOST_PATTERN = r"https?://([^/\s]+)"


def domain_histogram(dataset_dir: str, top_n: int = 20):
    """Top URL hosts mentioned across all transcript text — the link-spam
    / exfiltration diagnostic next to the flagship's HasSpamDomain rule
    (reference analogue: stdlib StringExtractDomains,
    example_plugins ExtractDomains — here as a corpus aggregate instead
    of a per-event UDF).

    Scale shape: ONE compiled-regex scan per BATCH — rows are joined with
    a newline (the host charset excludes whitespace, so matches can't
    span rows) and scanned once at C level, never a per-row Python loop —
    then a per-batch value_counts combiner before the host groupby.
    Dedup of re-delivered turns is unnecessary for a histogram twin only
    if the twin sees the same multiset, so BOTH sides count the raw log."""
    import re

    from ray.data.aggregate import Sum

    ds = _read_turns(dataset_dir, ["text"])

    def extract(t: pa.Table) -> pa.Table:
        global _URL_HOST_RE
        if _URL_HOST_RE is None:
            _URL_HOST_RE = re.compile(URL_HOST_PATTERN)
        col = t["text"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        blob = "\n".join(col.to_pylist())
        hosts = [h.lower() for h in _URL_HOST_RE.findall(blob)]
        if not hosts:
            return pa.table(
                {"domain": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
            )
        u, c = np.unique(np.array(hosts, dtype=object), return_counts=True)
        return pa.table(
            {
                "domain": pa.array(u.astype(str), pa.string()),
                "n": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    return (
        ds.map_batches(extract, batch_format="pyarrow")
        .groupby("domain")
        .aggregate(Sum("n", alias_name="n"))
        .sort(["n", "domain"], descending=[True, False])
        .limit(top_n)
    )


def conv_turn_gap(dataset_dir: str):
    """Inter-turn latency per conversation: after keep-first dedup and
    turn_idx ordering, the count / exact total / max of consecutive-turn
    timestamp gaps — the responsiveness diagnostic behind the streaming
    engine's watermark-lag target (single-turn conversations emit
    nothing).

    Same one-exchange shape as :func:`conv_stats`.  The gap SUM
    telescopes to ``last_ts - first_ts`` per conversation; the MAX is one
    ``np.maximum.reduceat`` with an int64-min sentinel at conversation
    starts — no Python per row."""
    ds = _read_turns(dataset_dir, ["conv_id", "turn_idx", "ts"])

    def gaps(t: pa.Table) -> pa.Table:
        t = t.sort_by(
            [("conv_id", "ascending"), ("turn_idx", "ascending"), ("ts", "ascending")]
        )
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        tix = t["turn_idx"].to_numpy()
        keep = np.ones(len(conv), dtype=bool)
        keep[1:] = (conv[1:] != conv[:-1]) | (tix[1:] != tix[:-1])
        conv = conv[keep]
        us = t["ts"].cast(pa.int64()).to_numpy()[keep]
        starts = np.concatenate([[0], np.nonzero(conv[1:] != conv[:-1])[0] + 1])
        ends = np.append(starts[1:], len(conv))
        d = np.empty(len(us), dtype=np.int64)
        d[0] = np.iinfo(np.int64).min
        d[1:] = us[1:] - us[:-1]
        d[starts] = np.iinfo(np.int64).min  # cross-conv diffs never win the max
        n_gaps = ends - starts - 1
        multi = n_gaps > 0
        return pa.table(
            {
                "conv_id": pa.array(conv[starts][multi], pa.string()),
                "n_gaps": pa.array(n_gaps[multi], pa.int64()),
                "total_gap_us": pa.array(
                    (us[ends - 1] - us[starts])[multi], pa.int64()
                ),
                "max_gap_us": pa.array(
                    np.maximum.reduceat(d, starts)[multi], pa.int64()
                ),
            }
        )

    return _by_key_partition(ds, "conv_id").map_groups(gaps, batch_format="pyarrow")


def conv_context_cutoff(dataset_dir: str, budget_chars: int = 2000):
    """Context-window truncation report: per conversation (keep-first
    dedup, turn order), the first turn_idx whose running char total
    exceeds ``budget_chars`` (-1 if the whole conversation fits) and the
    chars that DO fit — the SFT packing-loss estimate for a fixed
    context budget.

    Scale shape: the single conv exchange every transcript op shares;
    per partition one sort, one segment-cumsum, and one
    ``minimum.reduceat`` argfirst — no text leaves the partition, no
    Python per row."""
    ds = _read_turns(dataset_dir, ["conv_id", "turn_idx", "text", "ts"])

    def cutoff(t: pa.Table) -> pa.Table:
        t = t.sort_by(
            [("conv_id", "ascending"), ("turn_idx", "ascending"), ("ts", "ascending")]
        )
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        tix = t["turn_idx"].to_numpy().astype(np.int64)
        keep = np.ones(len(conv), dtype=bool)
        keep[1:] = (conv[1:] != conv[:-1]) | (tix[1:] != tix[:-1])
        t = t.filter(pa.array(keep))
        conv, tix = conv[keep], tix[keep]
        n = len(conv)
        starts = np.concatenate([[0], np.nonzero(conv[1:] != conv[:-1])[0] + 1])
        ends = np.append(starts[1:], n)
        run_id = np.repeat(np.arange(len(starts)), ends - starts)
        nchars = pc.cast(pc.utf8_length(t["text"]), pa.int64()).to_numpy()
        cum = np.cumsum(nchars)
        base = cum[starts] - nchars[starts]
        within = cum - base[run_id]
        over_pos = np.where(within > budget_chars, np.arange(n), 2 * n)
        first_over = np.minimum.reduceat(over_pos, starts)
        has_cut = first_over < 2 * n
        cutoff_idx = np.where(has_cut, tix[np.minimum(first_over, n - 1)], -1)
        at_start = has_cut & (first_over == starts)
        prev = np.maximum(np.minimum(first_over, n) - 1, 0)
        fits_all = within[ends - 1]
        chars_within = np.where(
            has_cut, np.where(at_start, 0, within[prev]), fits_all
        )
        return pa.table(
            {
                "conv_id": pa.array(conv[starts], pa.string()),
                "n_turns": pa.array(ends - starts, pa.int64()),
                "cutoff_idx": pa.array(cutoff_idx.astype(np.int64), pa.int64()),
                "chars_within": pa.array(chars_within.astype(np.int64), pa.int64()),
            }
        )

    return _by_key_partition(ds, "conv_id").map_groups(cutoff, batch_format="pyarrow")


def sft_mask_spans(dataset_dir: str):
    """SFT packing prep: per turn, the token-offset span it occupies in
    the rendered conversation and whether its loss is MASKED (everything
    that isn't an assistant turn — the standard instruction-tuning loss
    mask).  Token convention is split-on-single-space (``n_tok = 1 +
    count(' ')``) so the DuckDB twin reproduces counts exactly with
    ``length(text) - length(replace(text,' ','')) + 1``; spans are
    per-conversation exclusive prefix sums over turn order after
    keep-first dedup.  Downstream, a packer concatenates conversations
    and carries (tok_start, tok_end, masked) through to the trainer's
    loss mask — this op is the distributed span computation, all
    vectorized (one cumsum + reduceat per partition)."""
    ds = _read_turns(dataset_dir, ["conv_id", "turn_idx", "role", "text", "ts"])

    def spans(t: pa.Table) -> pa.Table:
        t = t.sort_by(
            [("conv_id", "ascending"), ("turn_idx", "ascending"), ("ts", "ascending")]
        )
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        tix = t["turn_idx"].to_numpy()
        keep = np.ones(len(conv), dtype=bool)
        keep[1:] = (conv[1:] != conv[:-1]) | (tix[1:] != tix[:-1])
        t = t.filter(pa.array(keep))
        conv, tix = conv[keep], tix[keep]
        role = t["role"].to_numpy(zero_copy_only=False)
        n_tok = (
            pc.count_substring(pc.cast(t["text"], pa.large_string()), " ")
            .to_numpy()
            .astype(np.int64)
            + 1
        )
        starts = np.concatenate([[0], np.nonzero(conv[1:] != conv[:-1])[0] + 1])
        counts = np.diff(np.append(starts, len(conv)))
        excl = np.cumsum(n_tok) - n_tok
        base = np.repeat(excl[starts], counts)
        tok_start = excl - base
        return pa.table(
            {
                "conv_id": pa.array(conv, pa.string()),
                "turn_idx": pa.array(tix.astype(np.int32), pa.int32()),
                "role": pa.array(role, pa.string()),
                "tok_start": pa.array(tok_start, pa.int64()),
                "tok_end": pa.array(tok_start + n_tok, pa.int64()),
                "masked": pa.array((role != "assistant").astype(np.int64), pa.int64()),
            }
        )

    return _by_key_partition(ds, "conv_id").map_groups(spans, batch_format="pyarrow")
