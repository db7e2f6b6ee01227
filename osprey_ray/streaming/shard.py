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
- run :func:`osprey_ray.stages.stateful.eval_released` over each released
  slice with carried per-conversation state + the shard's LabelStore;
- carve routed hot-conversation blocks off the released slice and hold
  them until the driver's scan seeds their evaluation
  (:meth:`StateShard.eval_held_blocks`; protocol in stages/salted.py);
- write its own output partition ``part-e{epoch}-p{part}.parquet`` via
  tmp+atomic-rename (idempotent: deterministic bytes, safe to re-run);
- snapshot/restore its full state for checkpoints.

Partitioning assumption (documented per SURVEY §2.9): within a
conversation, event-time ``ts`` is non-decreasing in ``turn_idx`` (turn
k+1 happens after turn k) — the cross-epoch dedup guard relies on it.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray

from osprey_ray.rules import RuleSpec
from osprey_ray.stages.salted import carve_hot_blocks, eval_seeded_blocks
from osprey_ray.stages.stateful import _conv_codes, eval_released, sort_and_dedup
from osprey_ray.stages.stateless import split_rules
from osprey_ray.state.labels import LabelStore

I64_MIN = np.iinfo(np.int64).min


def emit_closed_windows(
    open_windows: dict, tumbling: list, sessions: list, watermark_us: int
) -> pa.Table | None:
    """Emit and EVICT windows the watermark has passed: tumbling when
    bucket_end <= watermark; session when last_ts + gap <= watermark (no
    non-late row can extend it).  This is the engine's state-eviction
    path — ``open_windows`` shrinks as the watermark advances.  Shared by
    the per-shard accumulators and the driver's hot-conversation
    accumulator (routed whales span shards, so their windows close
    driver-side)."""
    tumb_gap = {sf.name: np.int64(sf.bucket_seconds * 1e6) for sf in tumbling}
    sess_gap = {sf.name: np.int64(sf.gap_seconds * 1e6) for sf in sessions}
    rows = []
    for key in list(open_windows):
        kind, name, cid, k2 = key
        if kind == "t":
            if k2 + int(tumb_gap[name]) <= watermark_us:
                rows.append((name, cid, k2, k2 + int(tumb_gap[name]), open_windows.pop(key)))
        else:
            st, en, cnt = open_windows[key]
            if en + int(sess_gap[name]) <= watermark_us:
                rows.append((name, cid, st, en, cnt))
                open_windows.pop(key)
    if not rows:
        return None
    rows.sort()
    return pa.table(
        {
            "window": pa.array([r[0] for r in rows], pa.string()),
            "conv_id": pa.array([r[1] for r in rows], pa.string()),
            "start": pa.array([r[2] for r in rows], pa.timestamp("us")),
            "end": pa.array([r[3] for r in rows], pa.timestamp("us")),
            "agg_count": pa.array([r[4] for r in rows], pa.int64()),
        }
    )


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
        hot_block_turns: int = 512,
        stream_write_timeout_s: float = 30.0,
        stream_write_retries: int = 1,
        fault_injection: dict[str, list[float]] | None = None,
        late_output: bool = False,
        state_ttl_us: int | None = None,
    ):
        from osprey_ray.rules import SessionWindow, TumblingCount, TumblingDistinct, TumblingMax, TumblingSum

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
        self._held_blocks: dict[int, list] = {}  # epoch -> [(cid, blk, tbl)]
        self.states: dict = {}
        # conv -> newest event ts (µs) for TTL eviction — kept OUT of the
        # per-conversation state dicts so a user feature named
        # '_last_seen_us' can never collide with engine bookkeeping
        # (ADVICE r4); snapshots/restores ride alongside states
        self.last_seen: dict = {}
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
        self.tumbling = [s for s in spec.stateful if isinstance(s, (TumblingCount, TumblingSum, TumblingMax, TumblingDistinct))]
        self.sessions = [s for s in spec.stateful if isinstance(s, SessionWindow)]
        # open window accumulators, evicted when the watermark passes:
        #   ("t", feature, conv_id, bucket_start_us) -> count
        #   ("s", feature, conv_id, session_id) -> [start_us, end_us, count]
        self.open_windows: dict[tuple, list | int] = {}
        # armed absence timers (rules.AbsenceAlert), fired when the
        # watermark passes their deadline:
        #   (pattern, conv_id) -> sorted int64 array of armed first-ts
        self.absences = list(getattr(spec, "absences", []))
        self.pending_absences: dict[tuple, np.ndarray] = {}
        self.follows = list(getattr(spec, "follows", []))
        self.pending_pairs: dict[tuple, np.ndarray] = {}
        self.late_output = late_output
        # idle-conversation state eviction horizon (validated job-side:
        # only time-bounded specs, ttl >= lateness and >= every feature
        # span, so eviction is semantically invisible)
        self.state_ttl_us = state_ttl_us

    def update_spec(self, spec: RuleSpec) -> bool:
        """Hot-swap the compiled ruleset at an epoch boundary (the etcd-watch
        hot reload of the reference, worker/lib/osprey_engine.py:127-149,
        re-expressed as a driver-coordinated boundary swap — actor FIFO
        ordering guarantees the swap lands between ``process`` calls).
        Per-conversation carry state survives the swap; open window
        accumulators whose feature left the spec are dropped (their gap
        config is gone, so they could never close)."""
        from osprey_ray.rules import SessionWindow, TumblingCount, TumblingDistinct, TumblingMax, TumblingSum

        self.spec = spec
        self.rule_plans = split_rules(spec)
        self.tumbling = [s for s in spec.stateful if isinstance(s, (TumblingCount, TumblingSum, TumblingMax, TumblingDistinct))]
        self.sessions = [s for s in spec.stateful if isinstance(s, SessionWindow)]
        live = {s.name for s in self.tumbling} | {s.name for s in self.sessions}
        self.open_windows = {
            k: v for k, v in self.open_windows.items() if k[1] in live
        }
        self.absences = list(getattr(spec, "absences", []))
        live_ab = {a.name for a in self.absences}
        self.pending_absences = {
            k: v for k, v in self.pending_absences.items() if k[0] in live_ab
        }
        self.follows = list(getattr(spec, "follows", []))
        live_fb = {f.name for f in self.follows}
        self.pending_pairs = {
            k: v for k, v in self.pending_pairs.items() if k[0] in live_fb
        }
        return True

    def process(
        self,
        epoch: int,
        tables: list[pa.Table],
        watermark_us: int,
        write: bool = True,
    ) -> dict:
        """Ingest this epoch's routed rows, release everything ≤ watermark,
        evaluate, write the output partition.  Returns stats."""
        # tables arrive as a list of ObjectRefs (nested refs are not
        # auto-resolved by Ray) — batch-fetch them shard-side (one ray.get
        # for the whole list; per-ref gets serialize on the object store)
        refs = [t for t in tables if isinstance(t, ray.ObjectRef)]
        if refs:
            fetched = iter(ray.get(refs))
            tables = [next(fetched) if isinstance(t, ray.ObjectRef) else t for t in tables]
        incoming = [t for t in tables if t is not None and t.num_rows]
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
                lt = t.filter(pc.invert(mask)).select(
                    ["conv_id", "turn_idx", "ts"]
                )
                # routed conv_id arrives dictionary-encoded; decode for a
                # sortable, schema-stable side-output file
                late_parts.append(
                    lt.set_column(
                        0, "conv_id", pc.cast(lt["conv_id"], pa.string())
                    )
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

        out_rows = 0
        fired = 0
        out_path = None
        labels_path = None
        pair_tbl = None
        hot_summaries: list = []
        failures: dict[str, str] = {}
        if released is not None and released.num_rows:
            released = sort_and_dedup(released, self.states)
            if self.absences:
                # arm/disarm timers on the full released slice BEFORE hot
                # carving — absence tracking only needs (conv, ts,
                # stateless masks), and the whole conversation routes to
                # this shard (AbsenceAlert + hot_convs sub-key routing is
                # rejected at job construction)
                from osprey_ray.streaming.absence import track_slice

                track_slice(self.pending_absences, released, self.absences)
            if self.follows:
                from osprey_ray.streaming.follow import track_slice_pairs

                pair_tbl = track_slice_pairs(
                    self.pending_pairs, released, self.follows, watermark_us
                )
            if self.hot_convs:
                # hold this shard's routed hot blocks until the driver's
                # scan seeds them (eval_held_blocks)
                released, held, hot_summaries = carve_hot_blocks(
                    released, self.spec, self.hot_convs, self.hot_block_turns
                )
                if held:
                    self._held_blocks[epoch] = held
            out, muts = eval_released(
                released, self.spec, self.rule_plans, self.states, self.labels, self.label_events
            )
            out_rows = out.num_rows
            if self.state_ttl_us is not None and released.num_rows:
                self._touch_and_evict(released, watermark_us)
            if "__verdicts" in out.column_names:
                fired = int(
                    pc.sum(
                        pc.cast(pc.greater(pc.list_value_length(out["__verdicts"]), 0), pa.int64())
                    ).as_py()
                    or 0
                )
            if write and out_rows:
                out_path = self._guarded_write(
                    "results", lambda: self._write_atomic(epoch, out), failures
                )
            self._accumulate_windows(out)
            if write and muts:
                # externalized label-mutation stream (the Label output sink,
                # output_sink.py:156-350 → FIXTURES.md F4 manifest contract)
                mt = pa.table(
                    {
                        "conv_id": pa.array([m[0] for m in muts], pa.string()),
                        "ts": pa.array([m[1] for m in muts], pa.timestamp("us")),
                        "label": pa.array([m[2] for m in muts], pa.string()),
                        "status": pa.array([m[3] for m in muts], pa.string()),
                        # CSV of the fired rules (plus dependent_rule when
                        # set) — the reference's mutation reason_name
                        # (output_sink.py:107-118)
                        "reason": pa.array([m[4] for m in muts], pa.string()),
                    }
                )
                labels_path = self._guarded_write(
                    "labels",
                    lambda: self._write_atomic(epoch, mt, prefix="labels"),
                    failures,
                )
        if self.follows and pair_tbl is None and (released is None or not released.num_rows):
            from osprey_ray.streaming.follow import track_slice_pairs

            pair_tbl = track_slice_pairs(
                self.pending_pairs, pa.table({}), self.follows, watermark_us
            )
        late_path = None
        if late_parts and write:
            late_tbl = pa.concat_tables(late_parts).sort_by(
                [("conv_id", "ascending"), ("turn_idx", "ascending"),
                 ("ts", "ascending")]
            )
            late_path = self._guarded_write(
                "late",
                lambda: self._write_atomic(epoch, late_tbl, prefix="late"),
                failures,
            )
        pairs_path = None
        if pair_tbl is not None and write:
            pairs_path = self._guarded_write(
                "pairs",
                lambda: self._write_atomic(epoch, pair_tbl, prefix="pairs"),
                failures,
            )
        windows_path = None
        if self.tumbling or self.sessions:
            win_tbl = self._emit_closed_windows(watermark_us)
            if write and win_tbl is not None:
                windows_path = self._guarded_write(
                    "windows",
                    lambda: self._write_atomic(epoch, win_tbl, prefix="windows"),
                    failures,
                )
        absence_path = None
        if self.absences:
            from osprey_ray.streaming.absence import emit_due_specs

            ab_tbl = emit_due_specs(
                self.pending_absences, self.absences, watermark_us
            )
            if write and ab_tbl is not None:
                absence_path = self._guarded_write(
                    "absence",
                    lambda: self._write_atomic(epoch, ab_tbl, prefix="absence"),
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
            "released": out_rows,
            "fired": fired,
            "late_dropped": late_dropped,
            "pending": sum(t.num_rows for t in self.pending)
            + sum(f["rows"] for f in self.spilled),
            "pending_spilled_rows": sum(f["rows"] for f in self.spilled),
            "file": out_path,
            "labels_file": labels_path,
            "windows_file": windows_path,
            "pairs_file": pairs_path,
            "late_file": late_path,
            "absence_file": absence_path,
            "open_windows": len(self.open_windows),
            "open_absences": int(
                sum(len(v) for v in self.pending_absences.values())
            ),
            "open_pairs": int(
                sum(len(v) for v in self.pending_pairs.values())
            ),
            "hot_summaries": hot_summaries,
        }

    def eval_held_blocks(self, epoch: int, seeds: dict, write: bool = True) -> dict:
        """Seeded eval of the routed hot-conversation exchange: evaluate the
        blocks :meth:`process` held for ``epoch``, each seeded
        with the driver's scan-merged incoming carry state.  Returns the
        output file plus compact window partials (the driver owns hot
        conversations' open-window accumulators — a hot window spans
        shards, so per-shard accumulation would emit partial duplicates)."""
        out = eval_seeded_blocks(
            self._held_blocks.pop(epoch, []), seeds, self.spec, self.rule_plans
        )
        if out is None:
            return {"part": self.part, "file": None, "released": 0, "fired": 0,
                    "win_partials": []}
        partials: dict = {}
        self._accumulate_windows(out, into=partials)
        fired = 0
        if "__verdicts" in out.column_names:
            fired = int(
                pc.sum(
                    pc.cast(pc.greater(pc.list_value_length(out["__verdicts"]), 0), pa.int64())
                ).as_py()
                or 0
            )
        path = self._write_atomic(epoch, out, prefix="hot") if write else None
        return {
            "part": self.part,
            "file": path,
            "released": out.num_rows,
            "fired": fired,
            "win_partials": list(partials.items()),
        }

    # -- watermark-driven window aggregate emission + state eviction -------

    def _accumulate_windows(self, out: pa.Table, into: dict | None = None) -> None:
        """Merge this slice's per-window partials into the open-window
        accumulators (``into`` overrides the target dict — used to return
        hot-block partials to the driver instead of accumulating locally).
        Per-turn running counts are monotone within a window,
        so the window aggregate is the max of the running count — partials
        merge associatively across epochs.

        Vectorized: group reduction (lexsort + reduceat) first, then Python
        touches one entry per OPEN WINDOW, never per row — the per-row loop
        here used to be the whale-shard's dominant per-epoch serial cost."""
        if out.num_rows == 0 or not (self.tumbling or self.sessions):
            return
        acc = self.open_windows if into is None else into
        codes, dictionary = _conv_codes(out)
        names = dictionary.to_pylist()
        ts = out["ts"].cast(pa.int64()).to_numpy()

        def _group_reduce(sub_key: np.ndarray):
            order = np.lexsort((sub_key, codes))
            ck, sk = codes[order], sub_key[order]
            new = np.empty(len(ck), dtype=bool)
            new[0] = True
            new[1:] = (ck[1:] != ck[:-1]) | (sk[1:] != sk[:-1])
            starts = np.flatnonzero(new)
            return order, ck[starts], sk[starts], starts

        for sf in self.tumbling:
            b_us = np.int64(sf.bucket_seconds * 1e6)
            bucket = (ts // b_us) * b_us
            cnt = out[sf.name].to_numpy()
            order, g_conv, g_bucket, starts = _group_reduce(bucket)
            gmax = np.maximum.reduceat(cnt[order], starts)
            for c, b, k in zip(g_conv, g_bucket, gmax):
                key = ("t", sf.name, names[c], int(b))
                if int(k) > acc.get(key, 0):
                    acc[key] = int(k)
        for sf in self.sessions:
            sid = out[f"{sf.name}__id"].to_numpy()
            cnt = out[f"{sf.name}__count"].to_numpy()
            order, g_conv, g_sid, starts = _group_reduce(sid)
            t_o = ts[order]
            tmin = np.minimum.reduceat(t_o, starts)
            tmax = np.maximum.reduceat(t_o, starts)
            cmax = np.maximum.reduceat(cnt[order], starts)
            for c, s_, lo, hi, k in zip(g_conv, g_sid, tmin, tmax, cmax):
                key = ("s", sf.name, names[c], int(s_))
                cur = acc.get(key)
                if cur is None:
                    acc[key] = [int(lo), int(hi), int(k)]
                else:
                    cur[0] = min(cur[0], int(lo))
                    cur[1] = max(cur[1], int(hi))
                    cur[2] = max(cur[2], int(k))

    def _emit_closed_windows(self, watermark_us: int) -> pa.Table | None:
        return emit_closed_windows(
            self.open_windows, self.tumbling, self.sessions, watermark_us
        )

    def _spill_pending(self) -> None:
        tbl = pa.concat_tables(self.pending, promote_options="default")
        ts = tbl["ts"].cast(pa.int64())
        spill_dir = os.path.join(self.out_dir, "spill")
        os.makedirs(spill_dir, exist_ok=True)
        path = os.path.join(
            spill_dir, f"spill-p{self.part:04d}-{self._spill_seq:06d}.parquet"
        )
        self._spill_seq += 1
        tmp = path + f".tmp.{os.getpid()}"
        pq.write_table(tbl, tmp)
        os.replace(tmp, path)
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
                import time as _time

                _time.sleep(sched.pop(0))
        import uuid

        name = f"{prefix}-e{epoch:05d}-p{self.part:04d}.parquet"
        final = os.path.join(self.out_dir, name)
        # tmp unique per ATTEMPT (not just per pid): a timed-out first write
        # may still be running in its abandoned thread when the retry
        # starts; both os.replace the same deterministic content, so last
        # writer wins harmlessly, but they must not share a tmp file
        tmp = final + f".tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}"
        pq.write_table(out, tmp)
        os.replace(tmp, final)  # atomic on POSIX
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

    def _touch_and_evict(self, released: pa.Table, watermark_us: int) -> None:
        """Record each conversation's newest event ts, then drop carry
        state for conversations idle past the TTL horizon.  Safe because
        the job validated the spec is time-bounded and ttl >= lateness:
        any future row of an evicted conversation either arrives with
        ts > watermark - lateness (all window/bucket/session state it
        could observe has necessarily expired, and by the per-conv ts
        monotonicity assumption its turn_idx exceeds the evicted
        last_turn) or is dropped as late before touching state."""
        codes, dictionary = _conv_codes(released)
        names = dictionary.to_pylist()
        ts = released["ts"].cast(pa.int64()).to_numpy()
        change = np.empty(len(codes), dtype=bool)
        change[0] = True
        change[1:] = codes[1:] != codes[:-1]
        starts = np.flatnonzero(change)
        ends = np.append(starts[1:], len(codes))
        for s, e in zip(starts, ends):
            cid = names[codes[s]]
            if cid in self.states:
                self.last_seen[cid] = max(
                    int(ts[s:e].max()), self.last_seen.get(cid, I64_MIN)
                )
        horizon = watermark_us - self.state_ttl_us
        for cid in [c for c, t in self.last_seen.items() if t <= horizon]:
            self.states.pop(cid, None)
            del self.last_seen[cid]

    def state_size(self) -> int:
        """Carried-conversation count (observability / eviction tests)."""
        return len(self.states)

    def snapshot(self, ckpt_dir: str, epoch: int) -> dict:
        os.makedirs(ckpt_dir, exist_ok=True)
        path = os.path.join(ckpt_dir, f"state-e{epoch:05d}-p{self.part:04d}.pkl")
        tmp = path + f".tmp.{os.getpid()}"
        payload = {
            "states": self.states,
            "last_seen": self.last_seen,
            "labels": self.labels.snapshot(),
            "pending": [t.to_pydict() for t in self.pending],
            "pending_schema": self.pending[0].schema if self.pending else None,
            "watermark": self.watermark,
            "open_windows": self.open_windows,
            "pending_absences": self.pending_absences,
            "pending_pairs": self.pending_pairs,
            "spilled": self.spilled,
            "spill_seq": self._spill_seq,
        }
        with open(tmp, "wb") as f:
            pickle.dump(payload, f)
        os.replace(tmp, path)
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
        return {"path": path, "consumed_spills": consumed}

    def restore_resharded(self, paths: list[str], new_P: int) -> bool:
        """Rebuild this shard's slice of the state from a checkpoint taken
        with a DIFFERENT shard count — cluster rescale on resume (the
        reference rescales workers through its coordinator ring,
        worker/lib/etcd/ring.py; here the ring is crc32(conv_id) % P, so a
        new P just re-deals the keys).

        Every new shard reads EVERY old snapshot and keeps the
        conversations whose crc32 routes here under ``new_P``; spilled
        pending rows are absorbed inline (they re-spill past the threshold
        on the next process call).  The watermark is the MIN across old
        shards — conservative: rows the faster old shards already released
        are in their carried state, and the merged watermark only delays
        future releases until new data advances it."""
        import zlib

        self.states, self.open_windows = {}, {}
        self.last_seen = {}
        self.pending_absences = {}
        self.pending_pairs = {}
        lab_entries: list = []
        pend: list[pa.Table] = []
        wm = None
        for path in paths:
            with open(path, "rb") as f:
                payload = pickle.load(f)

            def mine(key: str) -> bool:
                return zlib.crc32(key.encode()) % new_P == self.part

            self.states.update(
                {c: s for c, s in payload["states"].items() if mine(c)}
            )
            self.last_seen.update(
                {c: v for c, v in payload.get("last_seen", {}).items() if mine(c)}
            )
            # open_windows keys are (window_name, conv_id, ...) tuples
            self.open_windows.update(
                {k: w for k, w in payload.get("open_windows", {}).items() if mine(k[1])}
            )
            # armed absence timers re-deal by conv like windows; keys are
            # (pattern, conv_id) and unique across old shards
            self.pending_absences.update(
                {k: v for k, v in payload.get("pending_absences", {}).items()
                 if mine(k[1])}
            )
            # armed pair state re-deals identically; keys (pattern, conv)
            self.pending_pairs.update(
                {k: v for k, v in payload.get("pending_pairs", {}).items()
                 if mine(k[1])}
            )
            lab_entries.extend(e for e in payload["labels"] if mine(e[0]))
            schema = payload["pending_schema"]
            tables = [
                pa.Table.from_pydict(d, schema=schema) for d in payload["pending"]
            ]
            # old spill files are absorbed here and intentionally NOT
            # referenced by the new shard (the old manifests still name
            # them; they become garbage once the first rescaled manifest
            # commits)
            tables += [pq.read_table(f["path"]) for f in payload.get("spilled", [])]
            for t in tables:
                if t.num_rows == 0:
                    continue
                col = t["conv_id"]
                if isinstance(col, pa.ChunkedArray):
                    col = col.combine_chunks()
                enc = col.dictionary_encode()
                keep_dict = np.array(
                    [mine(c) for c in enc.dictionary.to_pylist()], dtype=bool
                )
                kept = t.filter(
                    pa.array(keep_dict[enc.indices.to_numpy(zero_copy_only=False)])
                )
                if kept.num_rows:
                    pend.append(kept)
            w = payload["watermark"]
            wm = w if wm is None else min(wm, w)
        self.labels = LabelStore.restore(lab_entries)
        self.pending = pend
        self.watermark = wm if wm is not None else np.iinfo(np.int64).min
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
        with open(path, "rb") as f:
            payload = pickle.load(f)
        self.states = payload["states"]
        self.last_seen = payload.get("last_seen", {})
        self.labels = LabelStore.restore(payload["labels"])
        schema = payload["pending_schema"]
        self.pending = [
            pa.Table.from_pydict(d, schema=schema) for d in payload["pending"]
        ]
        self.watermark = payload["watermark"]
        self.open_windows = payload.get("open_windows", {})
        self.pending_absences = payload.get("pending_absences", {})
        self.pending_pairs = payload.get("pending_pairs", {})
        self.spilled = payload.get("spilled", [])
        self._spill_seq = payload.get("spill_seq", 0)
        self._consumed_spills = []
        return True
