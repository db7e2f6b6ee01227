"""Deterministic synthetic transcript generator (FIXTURES.md F1/F2).

Everything is derived from a single integer seed (default 42) with
numpy's PCG64 — the same ``(num_turns, seed)`` always produces byte-identical
tables, which is what makes golden tests and kill/resume replay meaningful.

Planted signals (mirroring the *shape* of the reference's test corpus, e.g.
/root/reference/example_rules/post_contains_hello.sml and
/root/reference/example_data/generate_test_data.sh — no data copied):

- ~2%% of turns contain the trigger word ``hello``;
- ~1%% contain a homoglyph-obfuscated spam phrase (``frėe montey`` style) to
  exercise the normalization/censorize kernels;
- ~1.5%% contain a URL ``https://<dom>/x`` to exercise URL/domain extraction;
- ``tool`` turns draw from {browser, exec, files, mail}; some ``exec`` turns
  are followed by a ``mail`` turn within 3 turns (CEP escalation sequences);
- per-conversation timestamps are cumulative exponential inter-arrivals with
  >30-minute gaps planted inside ~10%% of conversations (session windows);
- ~1%% duplicated ``(conv_id, turn_idx)`` rows (exact-dedup exercise);
- ~2%% of rows are delivered late (arrival = ts + minutes) — they appear out
  of order in the *stream* layout (late-data / watermark exercise).

Two physical layouts are written:

- ``batch/part-{p:04d}.parquet``  — hash(conv_id)-partitioned (conv-colocated),
  the layout a bounded batch job reads;
- ``stream/seg-{s:05d}.parquet`` — arrival-time-ordered segments, the
  "Kafka log" equivalent the streaming micro-batch job consumes in order.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from osprey_ray.stages.stateful import _conv_codes, route_keys

VOCAB = np.array(
    "the quick brown fox jumps over lazy dog pack my box with five dozen liquor jugs "
    "how vexingly daft zebras judge sphinx of black quartz my vow agent model tool call "
    "response question answer maybe later today tomorrow weather report data table row "
    "column stream window state check please thanks okay sure indeed".split()
)

SPAM_PHRASES = np.array(
    [
        "frėe m0ney now",           # homoglyph 'ė' + leet '0' — StringClean/censorize target
        "f r e e  m o n e y",       # spaced-out evasion
        "FREE MONEY guaranteed",
    ]
)
SPAM_CANONICAL = "free money"

URL_DOMAINS = np.array(["spam.example", "ok.example.org", "shady.test", "news.example"])

TOOLS = np.array(["browser", "exec", "files", "mail"])
ROLES = np.array(["user", "assistant", "tool"])
LABELS = np.array(["spam_suspect", "recently_flagged", "verified"])
LABEL_STATUS = np.array(["added", "removed", "manually_added", "manually_removed"])

BASE_TS_US = np.int64(1_700_000_000_000_000)  # 2023-11-14T22:13:20Z in µs


def _join_words(idx: np.ndarray) -> np.ndarray:
    """Space-join a (n, k) matrix of vocab indices via Arrow's binary_join
    (C++; ~30× numpy's _vec_string at 10^7 rows).  Chunked so the child
    string array never exceeds int32 offsets."""
    import pyarrow.compute as pc

    n, k = idx.shape
    chunk = 8_000_000
    outs = []
    for lo in range(0, n, chunk):
        sub = idx[lo : lo + chunk]
        m = sub.shape[0]
        flat = sub.reshape(-1).astype(np.int32)
        words = pa.array(VOCAB).take(pa.array(flat))
        offsets = pa.array(np.arange(0, m * k + 1, k, dtype=np.int32))
        outs.append(
            pc.binary_join(pa.ListArray.from_arrays(offsets, words), " ").to_numpy(
                zero_copy_only=False
            )
        )
    return outs[0] if len(outs) == 1 else np.concatenate(outs)


def generate_transcripts(
    num_turns: int, seed: int = 42, whale_turns: int | None = None
) -> pa.Table:
    """Generate the transcript table in (conv_id, turn_idx) order.

    Returns a pyarrow Table with TRANSCRIPT_SCHEMA columns plus an
    ``_arrival_us`` int64 column (delivery time; = ts except for late rows)
    used only to build the stream layout — callers drop it for batch use.
    """
    rng = np.random.default_rng(seed)

    # --- conversation lengths: Zipf-flavored with a hot head -------------
    # "Zipf-distributed lengths with A FEW hot conversations >=10k turns"
    # (FIXTURES.md F1): the bulk is zipf-shaped capped at 2k turns; exactly
    # three planted whales (10k/15k/25k) exercise skew handling without an
    # army of whales colliding in hash partitions.
    lens: list[int] = []
    total = 0
    hot_sizes = [25_000, 15_000, 10_000] if num_turns >= 200_000 else (
        [10_000] if num_turns >= 50_000 else []
    )
    if whale_turns is not None:
        # explicit skew fixture: ONE whale of exactly this
        # size, uncapped — e.g. 10%% of all turns in a single conversation
        hot_sizes = [whale_turns]
        lens.append(int(whale_turns))
        total += int(whale_turns)
    else:
        for h in hot_sizes:
            h = min(h, num_turns // 8)
            lens.append(h)
            total += h
    max_len = min(max(64, num_turns // 20), 2_000)
    while total < num_turns:
        draw = rng.zipf(1.5, size=1024).astype(np.int64)
        draw = np.clip(draw * 4, 4, max_len)
        for d in draw:
            if total >= num_turns:
                break
            d = int(min(d, num_turns - total))
            lens.append(d)
            total += d
    lens_arr = np.array(lens, dtype=np.int64)

    n_convs = len(lens_arr)
    n = int(lens_arr.sum())

    conv_ord = np.repeat(np.arange(n_convs), lens_arr)
    starts = np.zeros(n_convs, dtype=np.int64)
    starts[1:] = np.cumsum(lens_arr)[:-1]
    turn_idx = (np.arange(n) - starts[conv_ord]).astype(np.int32)

    # shuffle conversation *names* so conv ids aren't correlated with length
    name_perm = rng.permutation(n_convs)
    conv_names = np.array([f"conv_{i:08d}" for i in range(n_convs)])
    conv_id = conv_names[name_perm[conv_ord]]

    # --- roles & tools ----------------------------------------------------
    role = ROLES[turn_idx % 3]
    tool = np.full(n, None, dtype=object)
    is_tool = role == "tool"
    tool_draw = TOOLS[rng.integers(0, len(TOOLS), size=n)]
    tool[is_tool] = tool_draw[is_tool]
    # plant exec→mail sequences: after an exec tool turn, the next tool turn
    # (3 rows later, same conversation) becomes mail with p=0.5
    exec_pos = np.flatnonzero(is_tool & (tool == "exec"))
    follow = exec_pos + 3
    ok = follow < n
    follow = follow[ok]
    same_conv = conv_ord[follow] == conv_ord[exec_pos[ok]]
    follow = follow[same_conv]
    chosen = follow[rng.random(len(follow)) < 0.5]
    tool[chosen] = "mail"

    # --- timestamps: per-conv cumulative exponential + session gaps -------
    deltas = rng.exponential(30.0, size=n)  # seconds
    sess_conv = rng.random(n_convs) < 0.10
    gap_rows = sess_conv[conv_ord] & (rng.random(n) < 0.02) & (turn_idx > 0)
    deltas[gap_rows] += 1800.0 + rng.exponential(1800.0, size=int(gap_rows.sum()))
    conv_start_s = rng.uniform(0, 6 * 3600, size=n_convs)  # stagger starts over 6h
    deltas[starts] = conv_start_s  # first turn of each conv = conv start offset
    cum = np.cumsum(deltas)
    base = np.zeros(n)
    base[starts[1:]] = cum[starts[1:] - 1]
    ts_s = cum - np.maximum.accumulate(base)
    ts_us = BASE_TS_US + (ts_s * 1e6).astype(np.int64)

    # --- text -------------------------------------------------------------
    widx = rng.integers(0, len(VOCAB), size=(n, 8))
    text = _join_words(widx)
    r = rng.random(n)
    hello_rows = r < 0.02
    spam_rows = (r >= 0.02) & (r < 0.03)
    url_rows = (r >= 0.03) & (r < 0.045)
    text = text.astype(object)
    text[hello_rows] = np.char.add(text[hello_rows].astype(str), " hello there")
    spam_pick = SPAM_PHRASES[rng.integers(0, len(SPAM_PHRASES), size=int(spam_rows.sum()))]
    text[spam_rows] = np.char.add(
        np.char.add(text[spam_rows].astype(str), " "), spam_pick
    )
    dom_pick = URL_DOMAINS[rng.integers(0, len(URL_DOMAINS), size=int(url_rows.sum()))]
    text[url_rows] = np.char.add(
        text[url_rows].astype(str), np.char.add(np.char.add(" https://", dom_pick), "/x")
    )

    # --- late delivery + duplicates --------------------------------------
    arrival = ts_us.copy()
    late = rng.random(n) < 0.02
    arrival[late] += (rng.uniform(120, 900, size=int(late.sum())) * 1e6).astype(np.int64)

    dup = np.flatnonzero(rng.random(n) < 0.01)

    def _take(a: np.ndarray) -> np.ndarray:
        return np.concatenate([a, a[dup]])

    conv_id = _take(conv_id)
    turn_idx = _take(turn_idx)
    role = _take(role)
    text = _take(text)
    tool = _take(tool)
    ts_us = _take(ts_us)
    arr2 = arrival[dup] + (rng.uniform(1, 60, size=len(dup)) * 1e6).astype(np.int64)
    arrival = np.concatenate([arrival, arr2])

    conv_ord2 = np.concatenate([conv_ord, conv_ord[dup]])
    tbl = pa.table(
        {
            "conv_id": pa.array(conv_id, pa.string()),
            "turn_idx": pa.array(turn_idx, pa.int32()),
            "role": pa.array(role, pa.string()),
            "text": pa.array(text, pa.large_string()),  # int64 offsets — 64M+ rows overflow int32
            "tool": pa.array(tool.tolist(), pa.string()),
            "ts": pa.array(ts_us, pa.timestamp("us")),
            "_arrival_us": pa.array(arrival, pa.int64()),
        }
    )
    # canonical deterministic order: (conversation, turn_idx, ts) — integer
    # lexsort, not an Arrow string sort (matters at 10^7+ rows)
    order = np.lexsort((ts_us, turn_idx, conv_ord2))
    return tbl.take(pa.array(order))


def generate_label_events(transcripts: pa.Table, seed: int = 42) -> pa.Table:
    """F2: label mutation events over ~5% of conversations, ts-interleaved."""
    rng = np.random.default_rng(seed + 1)
    col = transcripts["conv_id"]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    uniq = np.sort(np.asarray(col.dictionary_encode().dictionary.to_pylist(), dtype=object))
    ts = transcripts["ts"].cast(pa.int64()).to_numpy()
    picked = uniq[rng.random(len(uniq)) < 0.05]
    if len(picked) == 0:
        picked = uniq[:1]
    rows_c, rows_t, rows_l, rows_s, rows_e = [], [], [], [], []
    lo, hi = ts.min(), ts.max()
    for c in picked:
        k = int(rng.integers(1, 4))
        for _ in range(k):
            t = int(rng.integers(lo, hi))
            rows_c.append(c)
            rows_t.append(t)
            rows_l.append(str(LABELS[rng.integers(0, len(LABELS))]))
            rows_s.append(str(LABEL_STATUS[rng.integers(0, len(LABEL_STATUS))]))
            if rng.random() < 0.30:
                rows_e.append(t + int(rng.uniform(60, 3600) * 1e6))
            else:
                rows_e.append(None)
    tbl = pa.table(
        {
            "conv_id": pa.array(rows_c, pa.string()),
            "ts": pa.array(rows_t, pa.timestamp("us")),
            "label": pa.array(rows_l, pa.string()),
            "status": pa.array(rows_s, pa.string()),
            "expires_at": pa.array(rows_e, pa.timestamp("us")),
        }
    )
    return tbl.sort_by([("conv_id", "ascending"), ("ts", "ascending")])


def write_dataset(
    out_dir: str,
    num_turns: int,
    seed: int = 42,
    num_batch_parts: int = 16,
    num_stream_segments: int = 16,
    whale_turns: int | None = None,
) -> str:
    """Write batch + stream layouts and label_events under out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    done = os.path.join(out_dir, "_DONE")
    if os.path.exists(done):
        return out_dir
    tbl = generate_transcripts(num_turns, seed, whale_turns=whale_turns)
    labels = generate_label_events(tbl, seed)

    batch_dir = os.path.join(out_dir, "batch")
    stream_dir = os.path.join(out_dir, "stream")
    os.makedirs(batch_dir, exist_ok=True)
    os.makedirs(stream_dir, exist_ok=True)

    # batch layout: hash(conv_id) partitioned, no _arrival_us.  One stable
    # argsort by partition + contiguous slices — O(n log n), not O(P·n)
    codes, dictionary = _conv_codes(tbl)
    parts = route_keys(dictionary.to_pylist(), num_batch_parts)[codes]
    clean = tbl.drop_columns(["_arrival_us"])
    order = np.argsort(parts, kind="stable")
    clean = clean.take(pa.array(order))
    sorted_parts = parts[order]
    bounds = np.searchsorted(sorted_parts, np.arange(num_batch_parts + 1))
    for p in range(num_batch_parts):
        sub = clean.slice(int(bounds[p]), int(bounds[p + 1] - bounds[p]))
        # bounded row groups: read tasks can split a whale-heavy file
        pq.write_table(
            sub, os.path.join(batch_dir, f"part-{p:04d}.parquet"),
            row_group_size=262_144,
        )

    # stream layout: arrival-ordered segments (the replayable log)
    ordered = tbl.sort_by([("_arrival_us", "ascending")])
    n = ordered.num_rows
    seg_size = max(1, (n + num_stream_segments - 1) // num_stream_segments)
    s = 0
    off = 0
    while off < n:
        sub = ordered.slice(off, seg_size)
        pq.write_table(sub, os.path.join(stream_dir, f"seg-{s:05d}.parquet"))
        off += seg_size
        s += 1

    pq.write_table(labels, os.path.join(out_dir, "label_events.parquet"))
    with open(done, "w") as f:
        f.write(f"num_turns={num_turns} seed={seed}\n")
    return out_dir


def ensure_dataset(num_turns: int, seed: int = 42, root: str = "/tmp/osprey_ray_data") -> str:
    """Idempotent cached generation keyed by (num_turns, seed).

    File counts scale with size so the read stage parallelizes: ~25k
    turns/file, clamped to [16, 128] (row content is independent of the
    partitioning, so goldens are unaffected)."""
    parts = int(np.clip(num_turns // 25_000, 16, 128))
    out = os.path.join(root, f"turns{num_turns}_seed{seed}")
    return write_dataset(out, num_turns, seed, num_batch_parts=parts, num_stream_segments=parts)
