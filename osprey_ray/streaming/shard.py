"""StateShard — one persistent actor per hash partition of conversations.

This is the stateful actor-pool stage of the streaming pipeline (SURVEY §4
checkpoint row, §7 steps 5-6).  Ray Data's ``map_batches`` actor pools give
no key affinity across micro-batches, so the epoch exchange drops to raw
Ray here — the one place the Dataset API genuinely can't express the
semantics (a per-key state store that must live across epochs).

Responsibilities:

- buffer out-of-order rows until the watermark passes (event-time
  correctness: rows are *evaluated* in ``(conv_id, turn_idx, ts)`` order no
  matter the arrival interleaving, so streaming output is bit-identical to
  the batch/oracle run as long as disorder ≤ allowed lateness);
- drop rows older than the watermark (late data) and count them;
- receive each epoch's routed slices as top-level arguments of
  :meth:`StateShard.process`, so Ray fetches them before the call starts;
- run :func:`osprey_ray.stages.stateful.eval_released` over each released
  slice with the shard's carry table (``state.carry.Carry``, one row per
  conversation) + its LabelStore;
- carve routed hot-conversation rows off the released slice and hold them
  as one table until the driver's scan seeds their one-call evaluation
  (:meth:`StateShard.eval_held_blocks`; protocol in stages/salted.py);
- merge each slice's window partials into its open-window table (one row
  per window feature, conversation and bucket | session) and emit the
  windows the watermark closes with one mask (:func:`emit_closed_windows`);
  advance its armed-pattern table the same way (:func:`patterns.track`);
- write its own output partition ``part-e{epoch}-p{part}.parquet`` via
  ``io.write_parquet_atomic`` (idempotent: deterministic bytes, safe to
  re-run);
- snapshot/restore its full state for checkpoints, columnar: the carry,
  open-window, armed-pattern and pending tables as Arrow IPC
  (:mod:`osprey_ray.state.carry`)
  — the live tables themselves, so a snapshot has no encode step — and a
  rescale re-deals them with one crc32 mask over their conv_ids.

Partitioning assumption (documented per SURVEY §2.9): within a
conversation, event-time ``ts`` is non-decreasing in ``turn_idx`` (turn
k+1 happens after turn k) — the cross-epoch dedup guard relies on it.
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray

from osprey_ray.io import write_parquet_atomic
from osprey_ray.rules import (
    RuleSpec, SessionWindow, TumblingCount, TumblingDistinct, TumblingMax, TumblingSum,
)
from osprey_ray.stages.salted import HOT_BLOCK_TURNS, carve_hot_blocks, eval_seeded_blocks
from osprey_ray.stages.stateful import _conv_codes, eval_released, route_keys, sort_and_dedup
from osprey_ray.stages.stateless import split_rules
from osprey_ray.state.carry import Carry, from_ipc, read_checkpoint, to_ipc, write_checkpoint
from osprey_ray.state.labels import LabelStore
from osprey_ray.streaming.patterns import (
    LABEL_SCHEMA, LATE_SCHEMA, NO_ARMED, WINDOW_SCHEMA, spec_patterns, track,
)

I64_MIN = np.iinfo(np.int64).min


def _owned(tbl: pa.Table, num_parts: int, part: int) -> pa.Array:
    """Row mask of ``tbl``'s rows whose conversation routes to ``part`` of
    ``num_parts`` — the route runs once per unique conv_id."""
    codes, dictionary = _conv_codes(tbl)
    return pa.array((route_keys(dictionary.to_pylist(), num_parts) == part)[codes])


def _fired(out: pa.Table | None) -> int:
    """Rows of an evaluated slice with at least one verdict."""
    if out is None or "__verdicts" not in out.column_names:
        return 0
    return int(
        pc.sum(
            pc.cast(pc.greater(pc.list_value_length(out["__verdicts"]), 0), pa.int64())
        ).as_py()
        or 0
    )


def window_families(spec: RuleSpec) -> tuple[list, list]:
    """The spec's (tumbling, session) window features: the windows the
    watermark closes and emits."""
    tumbling = [
        s for s in spec.stateful
        if isinstance(s, (TumblingCount, TumblingSum, TumblingMax, TumblingDistinct))
    ]
    return tumbling, [s for s in spec.stateful if isinstance(s, SessionWindow)]


# The open windows — a shard's, the driver's for hot conversations, a
# slice's partials and a checkpoint's — are one table with one row per
# (window feature, conversation, key): key is the tumbling bucket start (µs)
# or the session id, start/end the window's bounds in µs (a bucket's, or a
# session's first and last ts), agg_count its running count so far.
OPEN_WINDOW_SCHEMA = pa.schema([
    ("window", pa.string()), ("conv_id", pa.string()), ("key", pa.int64()),
    ("start", pa.int64()), ("end", pa.int64()), ("agg_count", pa.int64()),
])
# (not Schema.empty_table(), which imports pandas into every engine worker)
NO_OPEN_WINDOWS = pa.Table.from_batches([], schema=OPEN_WINDOW_SCHEMA)


def window_partials(out: pa.Table, spec: RuleSpec) -> pa.Table:
    """An evaluated slice's open-window partials: per window feature, one
    row per run of (conversation, bucket | session id) with the run's min
    start, max end and max running count.  The slice's rows come grouped
    by conversation in turn order, so runs need no sort; a run that is
    split anyway (ts decreasing along turns) is reduced by the merge."""
    tumbling, sessions = window_families(spec)
    if out.num_rows == 0 or not (tumbling or sessions):
        return NO_OPEN_WINDOWS
    conv = out["conv_id"].combine_chunks()
    codes = conv.indices if pa.types.is_dictionary(conv.type) else conv
    conv_new = pc.not_equal(codes[1:], codes[:-1]).to_numpy(zero_copy_only=False)
    ts = out["ts"].cast(pa.int64()).to_numpy()
    parts = []
    for sf in tumbling + sessions:
        if isinstance(sf, SessionWindow):
            key = out[f"{sf.name}__id"].to_numpy()
            cnt = out[f"{sf.name}__count"].to_numpy()
            lo = hi = ts
        else:
            b_us = np.int64(sf.bucket_seconds * 1e6)
            key = (ts // b_us) * b_us
            cnt = out[sf.name].to_numpy()
            lo, hi = key, key + b_us
        starts = np.flatnonzero(np.append(True, conv_new | (key[1:] != key[:-1])))
        parts.append(pa.table([
            pa.repeat(pa.scalar(sf.name), len(starts)),
            pc.cast(conv.take(pa.array(starts)), pa.string()),
            key[starts],
            np.minimum.reduceat(lo, starts),
            np.maximum.reduceat(hi, starts),
            np.maximum.reduceat(cnt, starts),
        ], schema=OPEN_WINDOW_SCHEMA))
    return pa.concat_tables(parts)


def merge_windows(open_windows: pa.Table, *partials: pa.Table) -> pa.Table:
    """Fold partial tables into the open windows: one lexsort over the
    (window, conv_id, key) codes, then per group min start, max end and
    max count — running counts are monotone within a window, so partials
    merge associatively.  A window whose count stays 0 never opens."""
    parts = [t for t in partials if t.num_rows]
    if not parts:
        return open_windows
    tbl = pa.concat_tables([open_windows, *parts])
    codes = [tbl["key"].to_numpy(), _conv_codes(tbl)[0], _conv_codes(tbl, "window")[0]]
    order = np.lexsort(codes)
    key = codes[0][order]
    new = np.zeros(len(order), dtype=bool)
    new[0] = True
    for c in codes:
        c = c[order]
        new[1:] |= c[1:] != c[:-1]
    starts = np.flatnonzero(new)
    cnt = np.maximum.reduceat(tbl["agg_count"].to_numpy()[order], starts)
    keep = cnt > 0
    first = pa.array(order[starts][keep])
    return pa.table([
        tbl["window"].take(first),
        tbl["conv_id"].take(first),
        key[starts][keep],
        np.minimum.reduceat(tbl["start"].to_numpy()[order], starts)[keep],
        np.maximum.reduceat(tbl["end"].to_numpy()[order], starts)[keep],
        cnt[keep],
    ], schema=OPEN_WINDOW_SCHEMA)


def prune_windows(open_windows: pa.Table, spec: RuleSpec) -> pa.Table:
    """Drop the open windows of features that left ``spec`` on a swap:
    their window config is gone, so they could never close."""
    tumbling, sessions = window_families(spec)
    live = pa.array([sf.name for sf in tumbling + sessions], pa.string())
    return open_windows.filter(pc.is_in(open_windows["window"], live))


def emit_closed_windows(
    open_windows: pa.Table, spec: RuleSpec, watermark_us: int
) -> tuple[pa.Table | None, pa.Table]:
    """Split the open windows at the watermark: a window is closed once
    ``end + gap <= watermark`` (gap 0 for a tumbling bucket, ``spec``'s gap
    for a session — no non-late row can extend it).  Returns the closed
    windows as the window-stream table, sorted by (window, conv_id, start,
    end, agg_count), or None; and the windows still open.  The engine's
    window-state eviction, for the shards and for the driver's hot
    conversations (a routed whale spans shards, so its windows close
    driver-side)."""
    if not open_windows.num_rows:
        return None, open_windows
    tumbling, sessions = window_families(spec)
    names = pa.array([sf.name for sf in tumbling + sessions], pa.string())
    gaps = np.array(
        [0] * len(tumbling) + [int(sf.gap_seconds * 1e6) for sf in sessions], np.int64
    )
    gap = gaps[pc.index_in(open_windows["window"], names).to_numpy()]
    closed = open_windows["end"].to_numpy() + gap <= watermark_us
    if not closed.any():
        return None, open_windows
    closed = pa.array(closed)
    done = open_windows.filter(closed).sort_by(
        [(k, "ascending") for k in ("window", "conv_id", "start", "end", "agg_count")]
    )
    win_tbl = pa.table(
        [done["window"], done["conv_id"], done["start"].cast(pa.timestamp("us")),
         done["end"].cast(pa.timestamp("us")), done["agg_count"]],
        schema=WINDOW_SCHEMA,
    )
    return win_tbl, open_windows.filter(pc.invert(closed))


class StreamWriteError(RuntimeError):
    """One or more of the epoch's output streams (results/labels/windows)
    failed its isolated write after retries; the others still wrote."""

    def __init__(self, failures: dict[str, str]):
        self.failures = failures
        super().__init__(f"epoch stream writes failed: {failures}")


@ray.remote
class StateShard:
    def __init__(
        self,
        spec: RuleSpec,
        part: int,
        out_dir: str,
        label_events: dict[str, list],
        pending_spill_rows: int = 500_000,
        hot_convs: frozenset | None = None,
        hot_block_turns: int = HOT_BLOCK_TURNS,
        stream_write_timeout_s: float = 30.0,
        stream_write_retries: int = 1,
        fault_injection: dict[str, list[float]] | None = None,
        late_output: bool = False,
        state_ttl_us: int | None = None,
    ):
        self.spec = spec
        self.part = part
        self.out_dir = out_dir
        self.label_events = label_events
        self.rule_plans = split_rules(spec)
        # hot-conversation salting (the sub-key exchange, stages/salted.py):
        # rows of a conversation in this set arrive routed by (conv_id,
        # turn_idx // hot_block_turns), so the whale's BYTES spread across
        # shards instead of all landing here.  This shard only carves,
        # summarizes and holds its blocks; the driver owns the carry state
        # and seeds the evaluation (streaming/job.py _hot_phase).
        self.hot_convs = hot_convs or frozenset()
        self.hot_block_turns = hot_block_turns
        self._held_blocks: dict[int, pa.Table] = {}  # epoch -> held hot rows
        # the carry table: one row per conversation, its last_seen column
        # the clock of TTL eviction
        self.states = Carry()
        self.labels = LabelStore()
        self.pending: list[pa.Table] = []
        # bounded buffer (VERDICT r1 item #10): a stalled watermark used to
        # grow `pending` without limit (a stuck segment ⇒ eventual OOM).
        # Past this row count, buffered rows spill to Parquet under
        # out_dir/spill and are read back only once the watermark reaches
        # their min ts; consumed spill files are deleted after the next
        # snapshot commits (resume uses the latest snapshot only).
        self.pending_spill_rows = pending_spill_rows
        # per-stream write isolation (ref output_sink.py:46-89)
        self.stream_write_timeout_s = stream_write_timeout_s
        self.stream_write_retries = stream_write_retries
        self.fault_injection = fault_injection
        self.spilled: list[dict] = []  # {"path", "min_ts", "rows"}
        self._spill_seq = 0
        self._consumed_spills: list[str] = []
        self.watermark: int = np.iinfo(np.int64).min
        # the open windows (OPEN_WINDOW_SCHEMA, one row per window feature,
        # conversation and bucket | session), evicted when the watermark
        # passes their end
        self.open_windows = NO_OPEN_WINDOWS
        # the armed A's of AbsenceAlert / FollowedBy (patterns.ARMED_SCHEMA,
        # one row per armed A), expired when the watermark passes a + W
        self.patterns = spec_patterns(spec)
        self.armed = NO_ARMED
        self.late_output = late_output
        # idle-conversation state eviction horizon (validated job-side:
        # only time-bounded specs, ttl >= lateness and >= every feature
        # span, so eviction is semantically invisible)
        self.state_ttl_us = state_ttl_us
        # finish the worker's lazy set-up at construction, which
        # StreamingJob.warm() waits for: a worker's first ray.get of an
        # Arrow table imports pandas and Ray's tensor extensions, a one-time
        # cost that otherwise lands in the first epoch's process call (the
        # undecorated class, used without Ray, has nothing to warm)
        if ray.is_initialized():
            ray.get(ray.put(pa.table({"conv_id": pa.array(["c"]).dictionary_encode()})))

    def update_spec(self, spec: RuleSpec) -> bool:
        """Hot-swap the compiled ruleset at an epoch boundary (the etcd-watch
        hot reload of the reference, worker/lib/osprey_engine.py:127-149,
        re-expressed as a driver-coordinated boundary swap — actor FIFO
        ordering guarantees the swap lands between ``process`` calls).
        Per-conversation carry state survives the swap; open window
        accumulators and armed pattern state whose feature or pattern left
        the spec are dropped (their window config is gone, so they could
        never close)."""
        self.spec = spec
        self.rule_plans = split_rules(spec)
        self.open_windows = prune_windows(self.open_windows, spec)
        self.patterns = spec_patterns(spec)
        # a watermark that expires nothing: drops only the armed state of
        # patterns that left the spec
        self.armed, _, _ = track(self.armed, None, self.patterns, I64_MIN)
        return True

    def process(
        self, epoch: int, watermark_us: int, *tables: pa.Table, write: bool = True
    ) -> dict:
        """Ingest this epoch's routed rows (one table per read task, top-level
        arguments that Ray resolves before the call), release everything ≤
        watermark, evaluate, write the output partition.  Returns stats."""
        incoming = [t for t in tables if t.num_rows]
        late_dropped = 0
        late_parts: list[pa.Table] = []
        for t in incoming:
            ts = t["ts"].cast(pa.int64())
            mask = pc.greater(ts, self.watermark)
            kept = t.filter(mask)
            n_late = t.num_rows - kept.num_rows
            late_dropped += n_late
            if n_late and self.late_output:
                # late-data SIDE OUTPUT (the Beam pattern): rows the
                # watermark has passed are never evaluated, but instead of
                # vanishing behind a counter they ride their own
                # exactly-once stream for offline reconciliation/backfill
                # (routed conv_id arrives dictionary-encoded; the cast
                # decodes it for a sortable, schema-stable file)
                late_parts.append(
                    t.filter(pc.invert(mask)).select(LATE_SCHEMA.names).cast(LATE_SCHEMA)
                )
            if kept.num_rows:
                self.pending.append(kept)

        # read back spilled rows the watermark has reached (files whose
        # min ts is still in the future stay on disk untouched)
        if self.spilled:
            ready = [f for f in self.spilled if f["min_ts"] <= watermark_us]
            if ready:
                self.spilled = [f for f in self.spilled if f["min_ts"] > watermark_us]
                for f in ready:
                    self.pending.append(pq.read_table(f["path"]))
                    self._consumed_spills.append(f["path"])

        buffered = (
            pa.concat_tables(self.pending, promote_options="default")
            if self.pending
            else None
        )
        released = None
        if buffered is not None and buffered.num_rows:
            ts = buffered["ts"].cast(pa.int64())
            rel_mask = pc.less_equal(ts, watermark_us)
            released = buffered.filter(rel_mask)
            still = buffered.filter(pc.invert(rel_mask))
            self.pending = [still] if still.num_rows else []
        self.watermark = max(self.watermark, watermark_us)
        if sum(t.num_rows for t in self.pending) > self.pending_spill_rows:
            self._spill_pending()

        out = labels_tbl = late_tbl = win_tbl = None
        hot_summaries = None
        if released is not None and released.num_rows:
            released = sort_and_dedup(released, self.states)
        else:
            released = None
        # arm/match/expire the stream patterns on the full released slice
        # BEFORE hot carving — they only need (conv, ts, stateless masks),
        # and the whole conversation routes to this shard (AbsenceAlert +
        # hot_convs sub-key routing is rejected at job construction)
        self.armed, pair_tbl, alert_tbl = track(self.armed, released, self.patterns, watermark_us)
        if released is not None:
            if self.hot_convs:
                # hold this shard's routed hot blocks until the driver's
                # scan seeds them (eval_held_blocks)
                released, held, hot_summaries = carve_hot_blocks(
                    released, self.spec, self.hot_convs, self.hot_block_turns
                )
                if held is not None:
                    self._held_blocks[epoch] = held
            out, muts = eval_released(
                released, self.spec, self.rule_plans, self.states, self.labels, self.label_events
            )
            if self.state_ttl_us is not None and released.num_rows:
                self._evict_idle(watermark_us)
            self.open_windows = merge_windows(self.open_windows, window_partials(out, self.spec))
            if muts:
                # externalized label-mutation stream (the Label output sink,
                # output_sink.py:156-350 → FIXTURES.md F4 manifest contract);
                # reason is the CSV of the fired rules (plus dependent_rule
                # when set) — the reference's mutation reason_name
                # (output_sink.py:107-118)
                labels_tbl = pa.table(
                    [pa.array([m[i] for m in muts], f.type) for i, f in enumerate(LABEL_SCHEMA)],
                    schema=LABEL_SCHEMA,
                )
        if late_parts:
            late_tbl = pa.concat_tables(late_parts).sort_by(
                [("conv_id", "ascending"), ("turn_idx", "ascending"),
                 ("ts", "ascending")]
            )
        win_tbl, self.open_windows = emit_closed_windows(self.open_windows, self.spec, watermark_us)
        streams = {"results": out, "labels": labels_tbl, "late": late_tbl,
                   "pairs": pair_tbl, "windows": win_tbl, "absence": alert_tbl}
        files: dict[str, str | None] = {}
        failures: dict[str, str] = {}
        for kind, tbl in streams.items():
            files[kind] = None
            if write and tbl is not None and tbl.num_rows:
                prefix = "part" if kind == "results" else kind
                files[kind] = self._guarded_write(
                    kind, functools.partial(self._write_atomic, epoch, tbl, prefix=prefix),
                    failures,
                )
        if failures:
            # every healthy stream has written its (invisible) file; the
            # driver sees this error, skips the manifest, and the epoch
            # fails cleanly — resume re-runs it from the last checkpoint
            raise StreamWriteError(failures)
        return {
            "part": self.part,
            "epoch": epoch,
            "released": out.num_rows if out is not None else 0,
            "fired": _fired(out),
            "late_dropped": late_dropped,
            "pending": sum(t.num_rows for t in self.pending)
            + sum(f["rows"] for f in self.spilled),
            "pending_spilled_rows": sum(f["rows"] for f in self.spilled),
            "files": files,
            "open_windows": self.open_windows.num_rows,
            "open_absences": self.armed.filter(pc.equal(self.armed["kind"], "ab")).num_rows,
            "open_pairs": self.armed.filter(pc.equal(self.armed["kind"], "fb")).num_rows,
            "hot_summaries": hot_summaries,
        }

    def eval_held_blocks(self, epoch: int, seeds: pa.Table, write: bool = True) -> dict:
        """Seeded eval of the routed hot-conversation exchange: evaluate the
        rows :meth:`process` held for ``epoch`` in one call, each block
        seeded with its row of the driver's seed table.  Returns the
        output file plus the slice's open-window partials table (the driver
        owns hot conversations' open windows — a hot window spans shards,
        so per-shard accumulation would emit partial duplicates)."""
        out = eval_seeded_blocks(
            self._held_blocks.pop(epoch, None), seeds, self.spec, self.rule_plans,
            self.hot_block_turns,
        )
        if out is None:
            return {"part": self.part, "file": None, "released": 0, "fired": 0,
                    "win_partials": NO_OPEN_WINDOWS}
        path = self._write_atomic(epoch, out, prefix="hot") if write else None
        return {
            "part": self.part,
            "file": path,
            "released": out.num_rows,
            "fired": _fired(out),
            "win_partials": window_partials(out, self.spec),
        }

    def _spill_pending(self) -> None:
        tbl = pa.concat_tables(self.pending, promote_options="default")
        ts = tbl["ts"].cast(pa.int64())
        spill_dir = os.path.join(self.out_dir, "spill")
        os.makedirs(spill_dir, exist_ok=True)
        path = os.path.join(
            spill_dir, f"spill-p{self.part:04d}-{self._spill_seq:06d}.parquet"
        )
        self._spill_seq += 1
        write_parquet_atomic(tbl, path)
        self.spilled.append(
            {"path": path, "min_ts": pc.min(ts).as_py(), "rows": tbl.num_rows}
        )
        self.pending = []

    def _write_atomic(self, epoch: int, out: pa.Table, prefix: str = "part") -> str:
        if self.fault_injection:
            # chaos hook (tests only): per-stream sleep schedule, one entry
            # consumed per attempt — simulates a wedged filesystem on ONE
            # output stream (ref output_sink.py per-sink timeout rationale)
            sched = self.fault_injection.get(prefix)
            if sched:
                time.sleep(sched.pop(0))
        name = f"{prefix}-e{epoch:05d}-p{self.part:04d}.parquet"
        write_parquet_atomic(out, os.path.join(self.out_dir, name))
        return name

    def _guarded_write(self, stream: str, fn, failures: dict):
        """Per-stream write isolation (reference MultiOutputSink,
        output_sink.py:46-89: each sink push bounded by its own timeout so
        one slow sink can't stall the rest).  Runs ``fn`` in a worker
        thread with a timeout and one retry round; on persistent failure
        the error is RECORDED (not raised), so the remaining streams still
        write their files — the caller raises after all streams have had
        their chance, the driver then skips the manifest commit, and the
        epoch fails cleanly/resumably (data files are invisible until the
        manifest names them)."""
        import concurrent.futures

        last: Exception | None = None
        for attempt in range(self.stream_write_retries + 1):
            ex = concurrent.futures.ThreadPoolExecutor(max_workers=1)
            fut = ex.submit(fn)
            try:
                return fut.result(timeout=self.stream_write_timeout_s)
            except concurrent.futures.TimeoutError:
                last = TimeoutError(
                    f"{stream} stream write exceeded "
                    f"{self.stream_write_timeout_s}s (attempt {attempt + 1})"
                )
            except Exception as e:  # noqa: BLE001 — isolate any sink error
                last = e
            finally:
                ex.shutdown(wait=False)
        failures[stream] = repr(last)
        return None

    # -- checkpointing -----------------------------------------------------

    def _evict_idle(self, watermark_us: int) -> None:
        """Drop the carry rows of conversations idle past the TTL horizon:
        one mask over ``last_seen``.  Safe because the job validated the
        spec is time-bounded and ttl >= lateness: any future row of an
        evicted conversation either arrives with ts > watermark - lateness
        (all window/bucket/session state it could observe has necessarily
        expired, and by the per-conv ts monotonicity assumption its
        turn_idx exceeds the evicted last_turn) or is dropped as late
        before touching state."""
        tbl = self.states.table
        self.states.table = tbl.filter(
            pc.greater(tbl["last_seen"], watermark_us - self.state_ttl_us)
        )

    def state_size(self) -> int:
        """Carried-conversation count (observability / eviction tests)."""
        return len(self.states)

    def snapshot(self, ckpt_dir: str, epoch: int) -> dict:
        """Write this shard's full state as ``state-e{epoch}-p{part}.pkl``:
        the carry, open-window, armed-pattern and pending tables as Arrow
        IPC under their own schemas, inside a pickled envelope with the
        small members (labels, watermark, spill list).  Returns
        the path, the spill files this snapshot no longer references, and
        the snapshot's bytes and seconds."""
        t0 = time.perf_counter()
        os.makedirs(ckpt_dir, exist_ok=True)
        path = os.path.join(ckpt_dir, f"state-e{epoch:05d}-p{self.part:04d}.pkl")
        size = write_checkpoint(path, {
            "carry": to_ipc(self.states.table),
            "pending": [to_ipc(t) for t in self.pending],
            "labels": self.labels.snapshot(),
            "watermark": self.watermark,
            "open_windows": to_ipc(self.open_windows),
            "armed": to_ipc(self.armed),
            "spilled": self.spilled,
            "spill_seq": self._spill_seq,
        })
        # Spill files consumed before this snapshot are unreferenced by it,
        # but they MAY still be referenced by the previous snapshot, which
        # stays authoritative until the manifest naming THIS snapshot
        # commits.  Deleting here opened a crash window (snapshot-e written,
        # manifest-e not yet): resume would restore the older snapshot and
        # read back now-missing spill files.  So GC is deferred — the
        # consumed paths ride back to the driver, which deletes them only
        # after the manifest referencing this snapshot is atomically
        # committed (streaming/job.py _commit).
        consumed, self._consumed_spills = self._consumed_spills, []
        return {"path": path, "consumed_spills": consumed, "bytes": size,
                "s": time.perf_counter() - t0}

    def restore_resharded(self, paths: list[str], new_P: int) -> bool:
        """Rebuild this shard's slice of the state from a checkpoint taken
        with a DIFFERENT shard count — cluster rescale on resume (the
        reference rescales workers through its coordinator ring,
        worker/lib/etcd/ring.py; here the ring is ``stateful.route_keys``,
        crc32(conv_id) % P, so a new P just re-deals the keys).

        Every new shard reads EVERY old snapshot and keeps the
        conversations that route here under ``new_P``: one route mask over
        each carry, open-window, armed-pattern and pending table's unique
        conv_ids, and the label store's own re-deal.  Spilled pending rows
        are absorbed inline (they re-spill past the threshold on the next
        process call).  The watermark is the MIN across old shards —
        conservative: rows the faster old shards already released are in
        their carried state, and the merged watermark only delays future
        releases until new data advances it."""
        self.states = Carry()
        dealt = {"open_windows": [NO_OPEN_WINDOWS], "armed": [NO_ARMED]}
        lab_snaps: list = []
        pend: list[pa.Table] = []
        wm = None
        for path in paths:
            payload = read_checkpoint(path)
            carry = from_ipc(payload["carry"])
            if carry.num_rows:
                self.states.update(carry.filter(_owned(carry, new_P, self.part)))
            for key, parts in dealt.items():
                tbl = from_ipc(payload[key])
                parts.append(tbl.filter(_owned(tbl, new_P, self.part)))
            lab_snaps.append(payload["labels"])
            tables = [from_ipc(b) for b in payload["pending"]]
            # old spill files are absorbed here and intentionally NOT
            # referenced by the new shard (the old manifests still name
            # them; they become garbage once the first rescaled manifest
            # commits)
            tables += [pq.read_table(f["path"]) for f in payload["spilled"]]
            for t in tables:
                kept = t.filter(_owned(t, new_P, self.part))
                if kept.num_rows:
                    pend.append(kept)
            w = payload["watermark"]
            wm = w if wm is None else min(wm, w)
        # each old shard's open windows and armed A's are its own
        # conversations': no merge
        self.open_windows, self.armed = (pa.concat_tables(t).combine_chunks() for t in dealt.values())
        self.labels = LabelStore.restore(*lab_snaps, num_parts=new_P, part=self.part)
        self.pending = pend
        self.watermark = wm if wm is not None else I64_MIN
        self.spilled = []
        # Seed the spill sequence PAST any file already on disk for this
        # part number: starting at 0 would reuse spill-pNNNN-000000.parquet
        # and os.replace would overwrite a spill file still referenced by
        # the prior committed manifest's snapshot — a crash before the
        # first post-rescale manifest commit would then resume from
        # corrupted spill data (ADVICE r3, medium).
        self._spill_seq = self._next_free_spill_seq()
        self._consumed_spills = []
        return True

    def _next_free_spill_seq(self) -> int:
        """Max sequence of any on-disk spill file for this part, plus one
        (0 when the spill dir is empty/absent)."""
        import glob
        import re

        pat = os.path.join(
            self.out_dir, "spill", f"spill-p{self.part:04d}-*.parquet"
        )
        seqs = []
        for p in glob.glob(pat):
            m = re.search(r"-(\d{6})\.parquet$", p)
            if m:
                seqs.append(int(m.group(1)))
        return (max(seqs) + 1) if seqs else 0

    def restore(self, path: str) -> bool:
        """Restore the state a same-shard-count :meth:`snapshot` wrote; a
        snapshot in any other format fails with a ``ValueError`` naming
        it."""
        payload = read_checkpoint(path)
        self.states = Carry(from_ipc(payload["carry"]))
        self.pending = [from_ipc(b) for b in payload["pending"]]
        self.labels = LabelStore.restore(payload["labels"])
        self.watermark = payload["watermark"]
        self.open_windows = from_ipc(payload["open_windows"])
        self.armed = from_ipc(payload["armed"])
        self.spilled = payload["spilled"]
        self._spill_seq = payload["spill_seq"]
        self._consumed_spills = []
        return True
