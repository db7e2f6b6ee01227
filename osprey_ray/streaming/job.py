"""StreamingJob — micro-batch epoch driver with exactly-once sink + resume.

The streaming analogue of the reference's Kafka → coordinator → worker loop
(/root/reference SURVEY §3.1), re-expressed for replayable inputs:

- the input is an :class:`osprey_ray.streaming.source.InputStream` — a
  pre-listed segment log (``segment_files``, wrapped in a
  :class:`SegmentLogStream`; offsets = file / row-group positions), a
  Kafka-, PubSub- or any other poll-based connector.  One loop drives them
  all: poll → process → commit manifest → ack, so consumer commits never
  run ahead of the sink (kafka.rs:112-116 manual-commit semantics become
  manifest commits);
- per epoch: read+stateless-eval+route tasks fan the rows out to P
  persistent :class:`StateShard` actors (the hash-ring analogue,
  worker/lib/etcd/ring.py, with crc32(conv_id) % P); epoch e+1 is polled
  and read while e is processed;
- hot conversations (``hot_convs``) route by the sub-key
  ``conv_id#(turn_idx // hot_block_turns)``; shards carve and hold their
  blocks, and the driver scans the block summaries from its carry table,
  seeds their evaluation (the salting protocol, stages/salted.py) and
  merges and emits their windows in its own open-window table;
- the event-time watermark advances as ``max(seen ts) - allowed_lateness``
  (or the source's own per-partition basis), monotonically; shards release
  and evaluate rows ≤ watermark in order;
- after all shards finish an epoch, the driver atomically commits
  ``manifest/epoch-{e}.json`` — {epoch, consumed offset range, source
  state, watermark, per-partition output files, state snapshot paths,
  metrics}.  An epoch is *visible* iff its manifest exists: readers that
  honor manifests get exactly-once output even though shard writes are
  merely idempotent;
- checkpoint = per-shard state snapshot (plus the driver's hot carry and
  open-window tables) referenced by the manifest; resume finds the last
  committed manifest, restores shard snapshots, and continues from the
  next uncommitted epoch (replaying the recorded offset ranges of epochs
  since the last snapshot in no-write recovery mode when snapshots are
  sparser than manifests).

Determinism: outputs depend only on (input records, epoch boundaries,
allowed_lateness) — never wall clock — so a killed+resumed run produces
bit-identical verdict rows (tested in tests/test_streaming.py).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from osprey_ray.io import parse_transcripts_json, write_parquet_atomic
from osprey_ray.rules import RuleSpec
from osprey_ray.stages.salted import HOT_BLOCK_TURNS, check_hot_routing, scan_seeds
from osprey_ray.stages.stateful import route_keys
from osprey_ray.stages.stateless import StatelessStage, compile_stateless
from osprey_ray.state.carry import (
    Carry, from_ipc, ipc_schema, read_checkpoint, to_ipc, write_checkpoint,
)
from osprey_ray.streaming.patterns import (
    ALERT_SCHEMA, LABEL_SCHEMA, LATE_SCHEMA, PAIR_SCHEMA, WINDOW_SCHEMA,
)
from osprey_ray.streaming.shard import (
    NO_OPEN_WINDOWS, StateShard, emit_closed_windows, merge_windows, prune_windows,
)
from osprey_ray.streaming.source import SegmentLogStream

I64_MIN = np.iinfo(np.int64).min


def _read_segment_chunk(path: str, rgs) -> pa.Table:
    """Read one segment chunk.  Parquet segments support sub-file
    row-group offsets (the Kafka per-message-offset analogue); JSONL
    segments — the reference's queue payloads are JSON action events
    (osprey_coordinator/src/consumer/kafka.rs) — are whole-file
    commit units, parsed by Arrow's native JSON reader straight into
    the transcript schema (extra fields like ``_arrival_us`` ignored,
    the stage drops them from Parquet reads too)."""
    import pyarrow.parquet as pq

    if path.endswith((".jsonl", ".json")):
        assert rgs is None, "JSONL segments have no sub-file offsets"
        return parse_transcripts_json(path)
    if rgs is None:
        return pq.read_table(path)
    return pq.ParquetFile(path).read_row_groups(list(rgs))


def _read_groups(chunks: list, num_parts: int) -> list[list]:
    """Split read chunks into min(len(chunks), num_parts) contiguous groups
    in order, sizes differing by at most one: one ``_read_route`` task per
    group.  Each partition still receives its rows in chunk order."""
    m = min(len(chunks), num_parts)
    cut = [len(chunks) * i // m for i in range(m + 1)] if m else []
    return [chunks[a:b] for a, b in zip(cut, cut[1:])]


@ray.remote
def _read_route(
    chunks: list,
    stage1: StatelessStage,
    num_parts: int,
    hot_convs: frozenset | None = None,
    hot_block_turns: int = HOT_BLOCK_TURNS,
):
    """Read segment chunks — each a plain path or a ``(path, row_groups)``
    pair (sub-file offsets: the reference commits per-message Kafka offsets,
    kafka.rs:112-116; row-group ranges are the Parquet-native equivalent) —
    run the stateless stage, split by the conversation route
    (``stateful.route_keys``).  Conversations in ``hot_convs`` route by the
    key "conv#blk" with blk = turn_idx // hot_block_turns — the sub-key
    exchange that spreads a whale's bytes across shards instead of
    serializing them onto one.
    Chunks may also be inline Arrow tables (already-decoded micro-batches
    from a poll-based :class:`osprey_ray.streaming.source.InputStream`,
    e.g. the Kafka connector) — those ship via the object store and skip
    the read.  Returns [table_p0, ..., table_p{P-1}, max_ts]."""
    tables = []
    for c in chunks:
        if isinstance(c, pa.Table):
            tables.append(c)
            continue
        path, rgs = c if isinstance(c, (tuple, list)) else (c, None)
        tables.append(_read_segment_chunk(path, rgs))
    tbl = pa.concat_tables(tables, promote_options="default")
    if "_arrival_us" in tbl.column_names:
        tbl = tbl.drop_columns(["_arrival_us"])
    t1 = stage1(tbl)
    # dictionary-encode conv_id once: the route runs only over unique ids,
    # and the encoded column ships through the exchange (~25% fewer
    # object-store bytes — the key dominates the narrow post-stage-1 rows)
    col = t1["conv_id"]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    enc = col if pa.types.is_dictionary(col.type) else col.dictionary_encode()
    uniq = enc.dictionary.to_pylist()
    idx = enc.indices.to_numpy(zero_copy_only=False)
    parts = route_keys(uniq, num_parts)[idx]
    if hot_convs:
        hot_code = np.array([c in hot_convs for c in uniq], dtype=bool)
        row_hot = hot_code[idx]
        if row_hot.any():
            turn = t1["turn_idx"].to_numpy().astype(np.int64)
            blk = turn[row_hot] // np.int64(hot_block_turns)
            pair = idx[row_hot].astype(np.int64) << np.int64(32) | blk
            upair, inv = np.unique(pair, return_inverse=True)
            keys = [f"{uniq[int(p) >> 32]}#{int(p) & 0xFFFFFFFF}" for p in upair]
            parts[row_hot] = route_keys(keys, num_parts)[inv]
    max_ts = pc.max(t1["ts"].cast(pa.int64())).as_py() if t1.num_rows else I64_MIN
    ci = t1.schema.get_field_index("conv_id")
    t1 = t1.set_column(ci, "conv_id", enc)
    # one stable argsort + contiguous slices: O(n log n), not O(P·n), and
    # each partition keeps its rows in input order
    order = np.argsort(parts, kind="stable")
    t1 = t1.take(pa.array(order))
    bounds = np.searchsorted(parts[order], np.arange(num_parts + 1))
    return [
        t1.slice(int(bounds[p]), int(bounds[p + 1] - bounds[p]))
        for p in range(num_parts)
    ] + [max_ts]


def _deal_labels(label_events: dict[str, list], num_parts: int) -> list[dict]:
    """Pre-partition the label-event side input by the conversation route,
    the same way as the turns: one ``{conv_id: events}`` dict per shard."""
    per_shard: list[dict] = [{} for _ in range(num_parts)]
    owners = route_keys(list(label_events), num_parts).tolist()
    for (cid, evs), p in zip(label_events.items(), owners):
        per_shard[p][cid] = evs
    return per_shard


def _atomic_write_json(path: str, obj) -> None:
    tmp = path + f".tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=1, default=str)
    os.replace(tmp, path)


def _validate_state_ttl(spec, ttl_us: int, lateness_us: int) -> None:
    """Idle-conversation eviction is only semantically invisible when the
    spec's cross-turn reach is TIME-bounded and the TTL covers both the
    allowed lateness and every feature's span.  Reject anything else
    loudly: SequenceMatch reaches back by TURN COUNT (a conversation can
    resume after a year and still need its old matches), labels and
    TTL-less KvCache persist indefinitely."""
    from osprey_ray.rules import (
        IncrementWindow, KvCache, SequenceMatch, SessionWindow,
        TumblingCount, TumblingDistinct, TumblingMax, TumblingSum,
        WindowCount,
    )

    if spec.uses_labels():
        raise ValueError(
            "state_ttl_s: label state persists indefinitely; eviction would "
            "change HasLabel answers — not supported with label rulesets"
        )
    spans: list[float] = []
    for s in spec.stateful:
        if isinstance(s, SequenceMatch):
            raise ValueError(
                f"state_ttl_s: SequenceMatch {s.name!r} reaches back by turn "
                "count, not time — eviction would drop live match state"
            )
        if isinstance(s, SessionWindow):
            raise ValueError(
                f"state_ttl_s: SessionWindow {s.name!r} numbers sessions "
                "with a lifetime per-conversation counter; eviction would "
                "reset __id for conversations resuming after the TTL"
            )
        if isinstance(s, KvCache):
            if s.ttl_seconds is None:
                raise ValueError(
                    f"state_ttl_s: KvCache {s.name!r} has no ttl_seconds; "
                    "its entries persist indefinitely"
                )
            spans.append(s.ttl_seconds)
        elif isinstance(s, (IncrementWindow, WindowCount)):
            spans.append(s.window_seconds)
        elif isinstance(s, (TumblingCount, TumblingSum, TumblingMax, TumblingDistinct)):
            spans.append(s.bucket_seconds)
    need_us = max([lateness_us] + [int(sp * 1e6) for sp in spans])
    if ttl_us < need_us:
        raise ValueError(
            f"state_ttl_s too small: must be >= max(allowed lateness, every "
            f"feature span) = {need_us / 1e6:.0f}s, got {ttl_us / 1e6:.0f}s"
        )


class StreamingJob:
    def __init__(
        self,
        spec: RuleSpec,
        segment_files: list[str] | None,
        out_dir: str,
        label_events: dict[str, list] | None = None,
        num_shards: int = 8,
        files_per_epoch: int = 2,
        allowed_lateness_s: float = 1000.0,
        checkpoint_interval: int = 1,
        pending_spill_rows: int = 500_000,
        rows_per_epoch: int | None = None,
        spec_updates: dict[int, RuleSpec] | None = None,
        hot_convs: set | None = None,
        hot_block_turns: int = HOT_BLOCK_TURNS,
        stream_write_timeout_s: float = 30.0,
        stream_write_retries: int = 1,
        fault_injection: dict[str, list[float]] | None = None,
        late_output: bool = False,
        state_ttl_s: float | None = None,
        source=None,
    ):
        # one input seam (VERDICT r4 item 3; reference poll/ack loop
        # input_stream.py:413-444): pass EITHER a pre-listed segment log
        # (segment_files — planned by a SegmentLogStream into epochs of
        # files_per_epoch files, or of ~rows_per_epoch rows cut at Parquet
        # row-group boundaries so a crash mid-segment replays only the
        # committed row groups) OR any poll-based
        # osprey_ray.streaming.source.InputStream; run() drives both alike
        if (source is None) == (segment_files is None):
            raise ValueError(
                "pass exactly one of segment_files or source"
            )
        if source is None:
            source = SegmentLogStream(segment_files, files_per_epoch, rows_per_epoch)
        self.source = source
        self.spec = spec
        self.late_output = late_output
        self.state_ttl_us = (
            int(state_ttl_s * 1e6) if state_ttl_s is not None else None
        )
        if self.state_ttl_us is not None:
            _validate_state_ttl(spec, self.state_ttl_us, int(allowed_lateness_s * 1e6))
        self.out_dir = out_dir
        self.manifest_dir = os.path.join(out_dir, "manifest")
        self.ckpt_dir = os.path.join(out_dir, "checkpoint")
        self.data_dir = os.path.join(out_dir, "data")
        for d in (self.manifest_dir, self.ckpt_dir, self.data_dir):
            os.makedirs(d, exist_ok=True)
        self.label_events = label_events or {}
        self.P = num_shards
        # hot-conversation salting (the sub-key exchange, stages/salted.py):
        # conversations in hot_convs route by (conv, turn-block) so their
        # BYTES spread across shards; the driver holds their carry state,
        # scans per-block boundary summaries each epoch, and seeds
        # distributed block evaluation.  Specs that need a conversation's
        # whole stream in one place are rejected (check_hot_routing).  The
        # hot set is static per run — pick it with
        # stages.salted.detect_hot_convs — and is recorded in every manifest.
        self.hot_convs = frozenset(hot_convs or ())
        if self.hot_convs:
            check_hot_routing(spec)
        self.hot_block_turns = hot_block_turns
        self.hot_states = Carry()           # hot conversations' carry table
        self.hot_open_windows = NO_OPEN_WINDOWS  # their open-window table
        self.lateness_us = int(allowed_lateness_s * 1e6)
        self.checkpoint_interval = checkpoint_interval
        self.pending_spill_rows = pending_spill_rows
        self.stream_write_timeout_s = stream_write_timeout_s
        self.stream_write_retries = stream_write_retries
        self.fault_injection = fault_injection  # chaos hook, tests only
        self.stage1 = compile_stateless(spec)
        # ruleset hot-reload schedule (the reference's etcd-watch live swap,
        # worker/lib/osprey_engine.py:127-149, made deterministic/replayable:
        # epoch → new RuleSpec, applied at that epoch's boundary BEFORE its
        # rows are read).  Every manifest records the content hash of the
        # spec that produced it (engine/ast/sources.py:99-118 identity), and
        # resume validates the hash of the effective spec against the last
        # committed manifest.
        self.spec_updates = dict(spec_updates or {})
        self._cur_hash = spec.content_hash()
        self.shards: list | None = None
        self.metrics: list[dict] = []
        self._snap_epoch = -1  # last committed epoch that took a snapshot
        self._newest_ts = I64_MIN  # newest event ts read so far (µs)
        self._run_active = False  # guards gc_checkpoints (ADVICE r4)

    # -- epoch planning ----------------------------------------------------

    def epochs(self) -> list[list]:
        """Epoch plan of a segment-log job: a list of chunks per epoch,
        each chunk ``(path, row_group_ids | None)``."""
        return [chunks for chunks, _start, _end in self.source.plan]

    def _manifest_path(self, epoch: int) -> str:
        return os.path.join(self.manifest_dir, f"epoch-{epoch:05d}.json")

    def _manifest(self, epoch: int) -> dict:
        with open(self._manifest_path(epoch)) as f:
            return json.load(f)

    @staticmethod
    def _offsets(manifest: dict) -> dict:
        """The consumed ``{start, end}`` range a committed manifest records
        — what resume replays and seeks by; never re-planned."""
        offs = manifest.get("offsets")
        if offs is None:
            raise ValueError(
                f"manifest epoch {manifest['epoch']} has no offsets — was "
                "this run committed by an older segment-log job? resume "
                "with the same version it was written with"
            )
        return offs

    def last_committed_epoch(self) -> int:
        last = -1
        for name in os.listdir(self.manifest_dir):
            if name.startswith("epoch-") and name.endswith(".json"):
                last = max(last, int(name[6:-5]))
        return last

    # -- shard lifecycle ---------------------------------------------------

    def warm(self) -> None:
        """Start the shard actor pool and block until every actor is up.

        Pool spin-up is a one-time cost amortized over the job's lifetime
        (hours of epochs at scale); calling this before timing ``run()``
        separates it from per-epoch processing. ``run()`` works without it —
        the first epoch's calls simply queue until the actors come up.
        """
        if self.shards is None:
            self._start_shards()
        ray.get([s.__ray_ready__.remote() for s in self.shards])

    def _start_shards(self) -> None:
        per_shard = _deal_labels(self.label_events, self.P)
        self.shards = [
            StateShard.remote(
                self.spec, p, self.data_dir, per_shard[p],
                pending_spill_rows=self.pending_spill_rows,
                hot_convs=self.hot_convs or None,
                hot_block_turns=self.hot_block_turns,
                stream_write_timeout_s=self.stream_write_timeout_s,
                stream_write_retries=self.stream_write_retries,
                fault_injection=self.fault_injection,
                late_output=self.late_output,
                state_ttl_us=self.state_ttl_us,
            )
            for p in range(self.P)
        ]

    # -- main loop ---------------------------------------------------------

    def run(self, stop_after_epoch: int | None = None, resume: bool = False) -> list[dict]:
        """Process epochs until the source runs dry (optionally stopping
        after ``stop_after_epoch`` to simulate a crash); with
        ``resume=True`` continue a previous run from its checkpoint.
        Returns per-epoch metrics.

        Per epoch: poll → read/route tasks → shard process → commit the
        manifest → ``source.commit(end)``.  The ack strictly follows the
        durable manifest, so the upstream committed position never runs
        ahead of the exactly-once sink (kafka.rs:112-116).

        Resume replays the committed-but-post-snapshot epochs by re-reading
        the offset ranges their manifests recorded, with each manifest's
        watermark verbatim, so replay is bit-identical regardless of how
        the source batches its polls; live polling resumes at the last
        committed end offsets."""
        if self.shards is None:
            self._start_shards()
        e, watermark, recover_until = self._resume_point(resume)
        self._run_active = True
        hot_ref = ray.put(self.hot_convs) if self.hot_convs else None

        def _poll(e: int):
            """-> (batch, read refs, source state, committed watermark), or
            None when the source is dry.  The state is taken right after
            this epoch's own poll, before any lookahead poll."""
            wm = None
            if e <= recover_until:
                m = self._manifest(e)
                offs = self._offsets(m)
                eb = self.source.replay(offs["start"], offs["end"])
                wm = int(m["watermark"])
            else:
                eb = self.source.poll_epoch()
                if eb is None:
                    return None
            read_refs = [
                _read_route.options(num_returns=self.P + 1).remote(
                    group, self.stage1, self.P, hot_ref, self.hot_block_turns,
                )
                for group in _read_groups(eb.chunks, self.P)
            ]
            return eb, read_refs, self.source.state(), wm

        # Pipelined epoch loop: epoch e+1 is polled and its reads launch
        # before e's watermark is known, and e's shard calls are SUBMITTED
        # before e-1's results are gathered — Ray actors execute queued
        # calls FIFO, so per-shard ordering (process e → snapshot e →
        # process e+1) is preserved while fast shards run ahead of slow
        # ones.  Manifests still commit, and acks follow, strictly in epoch
        # order (the exactly-once gate is unchanged).
        in_flight: list[tuple] = []  # (e, batch, state, watermark, max-ts refs, stats_refs, snap_refs, recovery, hash, spec, t0)

        def _drain_one() -> None:
            e_, eb_, state_, wm_, ts_refs, stats_refs, snap_refs, recovery_, rhash_, spec_, t0_ = in_flight.pop(0)
            self._newest_ts = max([self._newest_ts, *ray.get(ts_refs)])
            stats = ray.get(stats_refs)
            hot = self._hot_phase(e_, stats, wm_, spec_, write=not recovery_)
            snapshots = ray.get(snap_refs) if snap_refs is not None else None
            self.metrics.append(
                self._commit(
                    e_, eb_.lineage, wm_, stats, snapshots, recovery_, t0_, rhash_, hot,
                    {"start": eb_.start, "end": eb_.end}, state_,
                )
            )
            if not recovery_:
                self.source.commit(eb_.end)

        ahead = None
        while stop_after_epoch is None or e <= stop_after_epoch:
            t0 = time.perf_counter()
            cur, ahead = ahead, None
            if cur is None:
                # nothing looked ahead (first epoch, a swap epoch, or a dry
                # lookahead poll): commit and ack what is in flight first —
                # a source may hold records back until earlier ones are acked
                while in_flight:
                    _drain_one()
                if e in self.spec_updates:
                    self._apply_spec(self.spec_updates[e])
                cur = _poll(e)
                if cur is None:
                    break
            eb, read_refs, state, wm = cur
            if (
                (stop_after_epoch is None or e < stop_after_epoch)
                # a scheduled swap at e+1 must recompile stage1 before that
                # epoch's reads launch — no lookahead into it
                and e + 1 not in self.spec_updates
            ):
                ahead = _poll(e + 1)
            recovery = e <= recover_until
            if wm is not None:
                watermark = wm
            else:
                # the source's own basis (per-partition minima) when it has
                # one; otherwise the epoch's max event ts
                basis = eb.wm_ts
                if basis is None:
                    basis = max(ray.get([r[self.P] for r in read_refs]), default=I64_MIN)
                watermark = max(watermark, basis - self.lateness_us)
            stats_refs = [
                self.shards[p].process.remote(
                    e, watermark, *[r[p] for r in read_refs], write=not recovery
                )
                for p in range(self.P)
            ]
            do_snap = (e % self.checkpoint_interval) == (self.checkpoint_interval - 1)
            snap_refs = (
                [s.snapshot.remote(self.ckpt_dir, e) for s in self.shards]
                if do_snap and not recovery
                else None
            )
            ts_refs = [r[self.P] for r in read_refs]
            in_flight.append((e, eb, state, watermark, ts_refs, stats_refs, snap_refs, recovery, self._cur_hash, self.spec, t0))
            while len(in_flight) > 1:  # one epoch of lookahead
                _drain_one()
            e += 1
        while in_flight:
            _drain_one()
        self._run_active = False
        return self.metrics

    def _resume_point(self, resume: bool):
        """Locate the committed recovery point and restore to it: hand the
        source its committed state (a segment log rejects a changed plan
        here, before anything replays) and seek it past the last committed
        epoch, validate the ruleset hash of the last committed manifest,
        restore shard snapshots (re-dealing the crc32 ring on rescale) and
        driver-held hot state, re-apply any pre-snapshot spec swap.
        Returns ``(start_epoch, watermark, recover_until)`` — epochs in
        ``[start_epoch, recover_until]`` replay in no-write recovery
        mode."""
        start_epoch = 0
        watermark = I64_MIN
        recover_until = -1
        self._snap_epoch = -1
        self._newest_ts = I64_MIN
        if resume:
            last = self.last_committed_epoch()
            if last >= 0:
                manifest = self._manifest(last)
                self.source.restore_state(manifest.get("source_state"))
                # a lone finalize() flush at epoch 0 consumed nothing: the
                # source starts from its beginning
                if last or manifest["input_files"]:
                    self.source.seek(self._offsets(manifest)["end"])
                # the committed lineage names the ruleset that produced it;
                # continuing under a different one would silently mix outputs
                want_hash = manifest.get("ruleset_hash")
                eff = self.spec
                for ue in sorted(self.spec_updates):
                    if ue <= last:
                        eff = self.spec_updates[ue]
                if want_hash is not None and eff.content_hash() != want_hash:
                    raise ValueError(
                        f"resume ruleset mismatch: manifest epoch {last} was "
                        f"committed under ruleset {want_hash}, but the "
                        f"effective spec hashes to {eff.content_hash()}"
                    )
                watermark = int(manifest["watermark"])
                snap_epoch = manifest.get("last_snapshot_epoch", -1)
                self._snap_epoch = snap_epoch
                if snap_epoch >= 0:
                    snap_manifest = self._manifest(snap_epoch)
                    snap_paths = snap_manifest["snapshots"]
                    old_P = snap_manifest.get("num_shards", len(snap_paths))
                    if old_P == self.P:
                        ray.get(
                            [s.restore.remote(p) for s, p in zip(self.shards, snap_paths)]
                        )
                    else:
                        # cluster rescale: re-deal the crc32 ring — every new
                        # shard reads every old snapshot and keeps its keys
                        ray.get(
                            [
                                s.restore_resharded.remote(snap_paths, self.P)
                                for s in self.shards
                            ]
                        )
                    watermark = int(snap_manifest["watermark"])
                    # replay re-reads only the epochs after the snapshot
                    lag = snap_manifest.get("watermark_lag_s")
                    if lag is not None:
                        self._newest_ts = watermark + round(lag * 1e6)
                    hs = snap_manifest.get("hot_state")
                    if hs:
                        payload = read_checkpoint(hs)
                        self.hot_states = Carry(from_ipc(payload["carry"]))
                        self.hot_open_windows = from_ipc(payload["hot_open_windows"])
                    elif self.hot_convs:
                        self.hot_states, self.hot_open_windows = Carry(), NO_OPEN_WINDOWS
                recover_until = last
                start_epoch = snap_epoch + 1
                # shards were constructed with the base spec; re-apply the
                # latest swap at or before the restored snapshot (later
                # swaps re-apply in-loop during replay, as they did live)
                pre = [ue for ue in sorted(self.spec_updates) if ue <= snap_epoch]
                if pre:
                    self._apply_spec(self.spec_updates[pre[-1]])
        return start_epoch, watermark, recover_until

    def _apply_spec(self, spec: RuleSpec) -> None:
        """Swap the compiled ruleset at an epoch boundary: recompile the
        stateless stage for subsequent read tasks, push the new spec to
        every shard (actor FIFO ordering lands the swap between epochs) and
        prune the driver's hot open windows as the shards prune theirs."""
        spec.validate()
        if self.hot_convs:
            check_hot_routing(spec)
        if self.state_ttl_us is not None:
            _validate_state_ttl(spec, self.state_ttl_us, self.lateness_us)
        self.spec = spec
        self.stage1 = compile_stateless(spec)
        self._cur_hash = spec.content_hash()
        self.hot_open_windows = prune_windows(self.hot_open_windows, spec)
        if self.shards is not None:
            ray.get([s.update_spec.remote(spec) for s in self.shards])

    def finalize(self) -> dict:
        """Flush all pending rows (watermark → +inf) as a final epoch —
        the bounded-stream end-of-input barrier."""
        # the flush epoch follows the last committed one, consumes the empty
        # range at its end offsets and carries its source state forward
        e = self.last_committed_epoch() + 1
        prev = self._manifest(e - 1) if e else {}
        end = (prev.get("offsets") or {}).get("end")
        offsets = None if end is None else {"start": end, "end": end}
        t0 = time.perf_counter()
        wm = int(np.iinfo(np.int64).max)
        stats = ray.get([s.process.remote(e, wm) for s in self.shards])
        hot = self._hot_phase(e, stats, wm, self.spec, write=True)
        snapshots = ray.get([s.snapshot.remote(self.ckpt_dir, e) for s in self.shards])
        m = self._commit(
            e, [], wm, stats, snapshots, False, t0, self._cur_hash, hot,
            offsets, prev.get("source_state"),
        )
        self.metrics.append(m)
        return m

    def _hot_phase(self, e, stats, watermark, spec, write: bool) -> dict | None:
        """Per-epoch driver side of the routed hot-conversation exchange:
        gather every shard's block boundary summaries, scan them from the
        driver-held carry table (stages/salted.py ``scan_seeds``), seed the
        shards' held-block evaluation with the seed table, merge the returned
        window partials into the driver's hot open-window table and emit
        the hot windows the watermark closed, as the shards do.  Work here
        is O(hot convs × blocks) — never rows."""
        if not self.hot_convs:
            return None
        out = {"files": [], "released": 0, "fired": 0, "windows_file": None}
        holders = [i for i, s in enumerate(stats) if s.get("hot_summaries") is not None]
        if holders:
            summaries = pa.concat_tables([stats[i]["hot_summaries"] for i in holders])
            seeds = ray.put(scan_seeds(summaries, self.hot_states, spec))
            hres = ray.get(
                [self.shards[i].eval_held_blocks.remote(e, seeds, write) for i in holders]
            )
            for h in hres:
                out["released"] += h["released"]
                out["fired"] += h["fired"]
                if h["file"]:
                    out["files"].append(h["file"])
            self.hot_open_windows = merge_windows(
                self.hot_open_windows, *(h["win_partials"] for h in hres)
            )
        win_tbl, self.hot_open_windows = emit_closed_windows(self.hot_open_windows, spec, watermark)
        if write and win_tbl is not None:
            name = f"windows-e{e:05d}-hot.parquet"
            write_parquet_atomic(win_tbl, os.path.join(self.data_dir, name))
            out["windows_file"] = name
        return out

    def _commit(self, e, files, watermark, stats, snapshots, recovery, t0, ruleset_hash, hot, offsets, source_state) -> dict:
        released = sum(s["released"] for s in stats) + (hot["released"] if hot else 0)
        # event-time watermark lag: the newest event ts read through this
        # epoch minus the frontier up to which results are final (null on
        # the flush epoch, whose watermark is +inf)
        lag_s = None
        if I64_MIN < watermark < np.iinfo(np.int64).max and self._newest_ts > I64_MIN:
            lag_s = (self._newest_ts - watermark) / 1e6
        metrics = {
            "epoch": e,
            "input_files": files,
            "watermark": int(watermark),
            "watermark_lag_s": lag_s,
            "released_rows": released,
            "fired_rows": sum(s["fired"] for s in stats) + (hot["fired"] if hot else 0),
            "late_dropped": sum(s["late_dropped"] for s in stats),
            "pending_rows": sum(s["pending"] for s in stats),
            "pending_spilled_rows": sum(s.get("pending_spilled_rows", 0) for s in stats),
            "wall_s": round(time.perf_counter() - t0, 4),
            "recovery": recovery,
            # checkpoint cost of the epochs that snapshot: bytes summed and
            # seconds maxed over shards (the slowest shard gates the epoch)
            "snapshot_bytes": sum(s["bytes"] for s in snapshots) if snapshots else None,
            "snapshot_s": round(max(s["s"] for s in snapshots), 4) if snapshots else None,
        }
        if not recovery:
            if snapshots:
                self._snap_epoch = e
            snap_paths = [s["path"] for s in snapshots] if snapshots else None
            consumed = [
                p for s in (snapshots or []) for p in s.get("consumed_spills", [])
            ]
            hot_state_path = None
            if snapshots and self.hot_convs:
                # driver-held hot carry state checkpoints alongside the
                # shard snapshots; the manifest naming both is the commit
                hot_state_path = os.path.join(
                    self.ckpt_dir, f"hot-e{e:05d}.pkl"
                )
                write_checkpoint(hot_state_path, {
                    "carry": to_ipc(self.hot_states.table),
                    "hot_open_windows": to_ipc(self.hot_open_windows),
                })
            streams = {
                key: [s["files"][kind] for s in stats]
                for kind, key in self._STREAM_KEYS.items()
            }
            if hot:
                streams["outputs"] += hot["files"]
                streams["window_outputs"].append(hot["windows_file"])
            manifest = dict(
                metrics,
                **streams,
                open_absences=sum(s.get("open_absences", 0) for s in stats),
                open_pairs=sum(s.get("open_pairs", 0) for s in stats),
                open_windows=sum(s.get("open_windows", 0) for s in stats)
                + self.hot_open_windows.num_rows,
                snapshots=snap_paths,
                hot_state=hot_state_path,
                hot_routing=(
                    {"n": len(self.hot_convs), "block_turns": self.hot_block_turns}
                    if self.hot_convs
                    else None
                ),
                gc_spills=consumed,
                last_snapshot_epoch=self._snap_epoch,
                ruleset_hash=ruleset_hash,
                num_shards=self.P,
                # the consumed offset range — resume replays exactly this
                # range and seeks past "end"; the source ack mirrors "end".
                # The source state was taken right after this epoch's poll
                offsets=offsets,
                source_state=source_state,
            )
            _atomic_write_json(self._manifest_path(e), manifest)
            # the manifest naming these snapshots is now the committed
            # recovery point — spill files consumed before them are
            # unreachable from any future resume; GC them here (post-commit),
            # never shard-side (see StateShard.snapshot)
            for p in consumed:
                try:
                    os.remove(p)
                except OSError:
                    pass
        return metrics

    # -- ops utilities ------------------------------------------------------

    def gc_checkpoints(self) -> int:
        """Delete state snapshots a resume can no longer reach: only the
        snapshot set named by the LAST committed manifest's
        ``last_snapshot_epoch`` (plus its hot-state file) is a live
        recovery point — every earlier ``state-e*-p*.pkl`` / ``hot-e*.pkl``
        is unreachable garbage.  At 10^12-turn scale snapshots are the
        dominant retained bytes (O(epochs × shards) files of carried conv
        state), so long-running jobs call this after commits.  Manifests
        are NEVER deleted — they are the output lineage.  Returns the
        number of files removed."""
        if self._run_active:
            raise RuntimeError(
                "gc_checkpoints() while run() is active: an in-flight "
                "epoch's snapshots may not be manifest-referenced yet — "
                "call it between runs or after commits only (ADVICE r4)"
            )
        last = self.last_committed_epoch()
        if last < 0:
            return 0
        live = self._manifest(last).get("last_snapshot_epoch", -1)
        removed = 0
        import re

        for name in os.listdir(self.ckpt_dir):
            mt = re.match(r"(?:state|hot)-e(\d{5})", name)
            # STRICTLY BELOW the live recovery point: an epoch above it is
            # either garbage from a crashed run (harmless to keep) or an
            # in-flight epoch whose manifest hasn't committed — deleting
            # it would break the next commit's lineage (ADVICE r4)
            if mt and int(mt.group(1)) < live:
                try:
                    os.remove(os.path.join(self.ckpt_dir, name))
                    removed += 1
                except OSError:
                    pass
        return removed

    def fsck(self) -> dict:
        """Validate the committed lineage chain: every manifest from epoch
        0 to the last committed must exist (no gaps), reference only
        output files that are present on disk, and carry a ruleset hash;
        the live recovery point's snapshot and hot-state files must be
        present and decode.  Returns ``{"ok": bool, "last_epoch": int,
        "problems": [...]}`` — the pre-resume integrity check an operator
        runs after moving/restoring a checkpoint directory."""
        problems: list[str] = []
        last = self.last_committed_epoch()
        for e in range(last + 1):
            p = self._manifest_path(e)
            if not os.path.exists(p):
                problems.append(f"manifest gap at epoch {e}")
                continue
            m = self._manifest(e)
            if not m.get("ruleset_hash"):
                problems.append(f"epoch {e}: missing ruleset_hash")
            for key in self._STREAM_KEYS.values():
                for f in m.get(key) or []:
                    if f and not os.path.exists(os.path.join(self.data_dir, f)):
                        problems.append(f"epoch {e}: missing {key} file {f}")
            # historical manifests may reference snapshots gc_checkpoints
            # already removed — only the LIVE recovery point (checked
            # below) must be restorable
        # the last manifest's recovery point must be fully restorable: every
        # snapshot and hot-state file present and decodable down to its
        # carry, open-window, armed-pattern and pending table schemas
        if last >= 0:
            snap_e = self._manifest(last).get("last_snapshot_epoch", -1)
            if snap_e >= 0 and os.path.exists(self._manifest_path(snap_e)):
                sm = self._manifest(snap_e)
                hs = sm.get("hot_state")
                files = [("snapshot", s) for s in sm.get("snapshots") or []]
                for kind, path in files + ([("hot_state", hs)] if hs else []):
                    if not os.path.exists(path):
                        problems.append(
                            f"recovery point e{snap_e}: missing {kind} {path}"
                        )
                        continue
                    try:
                        payload = read_checkpoint(path)
                        tables = (("carry", "open_windows", "armed") if kind == "snapshot"
                                  else ("carry", "hot_open_windows"))
                        for buf in [*(payload[t] for t in tables), *payload.get("pending", [])]:
                            ipc_schema(buf)
                    except Exception:  # noqa: BLE001 — any decode failure
                        problems.append(
                            f"recovery point e{snap_e}: unreadable {kind} {path}"
                        )
        return {"ok": not problems, "last_epoch": last, "problems": problems}

    # -- results -----------------------------------------------------------

    _STREAM_KEYS = {
        "results": "outputs",
        "labels": "label_outputs",
        "windows": "window_outputs",
        "absence": "absence_outputs",
        "pairs": "pairs_outputs",
        "late": "late_outputs",
    }

    def committed_files(self, kind: str = "results") -> list[str]:
        """Manifest-referenced files for one output stream, epoch order —
        the exactly-once read contract: orphan files from failed epochs
        sit in data/ but are invisible here."""
        key = self._STREAM_KEYS[kind]
        out = []
        for e in range(self.last_committed_epoch() + 1):
            if os.path.exists(self._manifest_path(e)):
                for f in self._manifest(e).get(key) or []:
                    if f:
                        out.append(os.path.join(self.data_dir, f))
        return out

    def committed_dataset(self, kind: str = "results"):
        """LAZY exactly-once reader: a ``ray.data.Dataset`` over exactly
        the manifest-referenced files of one output stream.  This is the
        downstream-consumption path at scale — the ``*_table()`` accessors
        concatenate on the driver (fine for tests and small epochs); a
        10^12-turn run's verdicts must stream through the object store
        instead, so downstream pipelines chain ``map_batches`` /
        ``write_parquet`` off this without ever materializing.  Returns an
        empty in-memory dataset when the stream has no committed files.

        A ruleset hot-swap that ADDS features mid-run leaves earlier
        epochs' files without the new columns (the dynamic
        ``ALTER ADD COLUMN`` case): files are grouped by footer schema
        and unioned by name, padding pre-swap blocks with typed nulls —
        deterministic, instead of relying on ``read_parquet``'s
        undefined mixed-schema behavior."""
        import ray.data as rd

        import pyarrow.parquet as _pq

        from osprey_ray.io import union_datasets_by_name

        files = self.committed_files(kind)
        if not files:
            # schema-identical empty dataset (ADVICE r4: a zero-column
            # table broke downstream map_batches only in the empty case)
            return rd.from_arrow(self._stream_schema(kind).empty_table())
        by_schema: dict[tuple, tuple[pa.Schema, list[str]]] = {}
        for f in files:
            sch = _pq.read_schema(f).remove_metadata()  # footer-only
            key = tuple((fl.name, str(fl.type)) for fl in sch)
            by_schema.setdefault(key, (sch, []))[1].append(f)
        if len(by_schema) == 1:
            (sch, fs), = by_schema.values()
            return rd.read_parquet(fs, schema=sch)
        return union_datasets_by_name(
            [(rd.read_parquet(fs, schema=sch), sch) for sch, fs in by_schema.values()]
        )

    _FIXED_SCHEMAS = {"windows": WINDOW_SCHEMA, "labels": LABEL_SCHEMA, "late": LATE_SCHEMA,
                      "absence": ALERT_SCHEMA, "pairs": PAIR_SCHEMA}

    def _stream_schema(self, kind: str) -> pa.Schema:
        """The exact Arrow schema a stream's committed files carry —
        declared once for the fixed-layout streams, derived by dry-running
        the eval path on an empty slice for the results."""
        if kind in self._FIXED_SCHEMAS:
            return self._FIXED_SCHEMAS[kind]
        # results: spec-dependent — run the stateless + stateful eval over
        # an EMPTY transcript slice; same code path as a real epoch, so
        # the derived schema matches the committed files exactly
        from osprey_ray.io import TRANSCRIPT_SCHEMA
        from osprey_ray.stages.stateful import eval_released, split_rules
        from osprey_ray.state.labels import LabelStore

        empty = self.stage1(TRANSCRIPT_SCHEMA.empty_table())
        out, _ = eval_released(
            empty, self.spec, split_rules(self.spec), {}, LabelStore(), {}
        )
        return out.schema

    # kind → sort keys of the driver-side ``*_table()`` accessors
    _SORT_KEYS = {
        "results": ["conv_id", "turn_idx"],
        "windows": ["window", "conv_id", "start"],
        "absence": ["pattern", "conv_id", "first_ts"],
        "pairs": ["pattern", "conv_id", "first_ts", "second_ts"],
        "late": ["conv_id", "turn_idx", "ts"],
    }

    def _stream_table(self, kind: str, empty: pa.Table) -> pa.Table:
        """One output stream's committed files concatenated on the driver,
        sorted by the kind's keys; ``empty`` when nothing is committed."""
        import pyarrow.parquet as pq

        files = self.committed_files(kind)
        if not files:
            return empty
        tbl = pa.concat_tables([pq.read_table(f) for f in files], promote_options="default")
        return tbl.sort_by([(k, "ascending") for k in self._SORT_KEYS[kind]])

    def output_files(self) -> list[str]:
        """Committed output files, manifest order (exactly-once read path)."""
        return self.committed_files("results")

    def window_stream_table(self) -> pa.Table:
        """Committed window-aggregate emissions (one row per closed
        tumbling bucket / session), manifest order."""
        return self._stream_table("windows", pa.table({}))

    def absence_stream_table(self) -> pa.Table:
        """Committed absence-alert emissions (one row per fired timer —
        rules.AbsenceAlert), manifest order."""
        return self._stream_table("absence", self._stream_schema("absence").empty_table())

    def pairs_stream_table(self) -> pa.Table:
        """Committed pair emissions (one row per (A, B) interval-join
        match — rules.FollowedBy), manifest order."""
        return self._stream_table("pairs", self._stream_schema("pairs").empty_table())

    def late_stream_table(self) -> pa.Table:
        """Committed late-data side output (rows dropped at arrival because
        the watermark had passed them — the Beam late-side-output pattern),
        manifest order.  Empty unless the job was built with
        ``late_output=True``."""
        return self._stream_table("late", self._stream_schema("late").empty_table())

    def results_table(self) -> pa.Table:
        return self._stream_table("results", pa.table({}))
