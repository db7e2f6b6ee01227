"""Pluggable input streams for :class:`StreamingJob`.

The reference consumes Kafka through a coordinator that polls messages,
hands micro-batches to workers, and manually commits offsets only after
the batch is durably processed (osprey_worker/src/osprey/worker/sinks/
sink/input_stream.py:413-444 — the ``KafkaInputStream`` poll/ack loop;
osprey_coordinator/src/consumer/kafka.rs:112-350 — manual commit after
processing).  This module is that seam re-expressed for the epoch model:

- :class:`InputStream` — the interface the job drives: ``poll_epoch()``
  returns the next micro-batch plus its offset range, ``commit(end)`` is
  the ack (called only AFTER the epoch's manifest is durable, so consumer
  commits never run ahead of the exactly-once sink), ``seek``/``replay``
  give resume the replayable-log property exactly-once depends on.
- :class:`SegmentLogStream` — the built-in implementation over an ordered
  Parquet/JSONL segment log (``StreamingJob(segment_files=...)`` builds
  one); offsets are ``[file_idx, row_group_idx]`` positions.
- :class:`KafkaStream` — a Kafka-shaped connector: drives any consumer
  object speaking the tiny :class:`KafkaLikeConsumer` protocol
  (poll/seek/commit — the subset every real Kafka client exposes),
  batches JSON event messages into Arrow tables, and surfaces
  ``{partition: next_offset}`` dicts as offsets.
- :class:`MockBroker` / :class:`MockConsumer` — an in-memory broker used
  by tests and examples; deterministic, replayable, supports committed
  offsets per group like a real broker.

Scale note: ``poll_epoch`` runs on the driver, but for the file-backed
log it only plans (paths + row-group ids) — bytes are read inside Ray
tasks.  A Kafka epoch's payload does flow through the driver once
(decoded to Arrow, then into the object store); at cluster scale you run
one connector per topic-partition-group and keep ``rows_per_epoch``
bounded, or land segments to shared storage and use SegmentLogStream —
both documented in the class docstrings.
"""

from __future__ import annotations

import hashlib
import io
import json

import pyarrow as pa


class EpochBatch:
    """One micro-batch: ``chunks`` as consumed by the job's read tasks
    (each a path, a ``(path, row_group_ids)`` pair, or an inline
    :class:`pyarrow.Table`), the offset range ``[start, end)`` it covers,
    and ``lineage`` — JSON-safe strings recorded in the epoch manifest.

    ``wm_ts`` (optional, µs): the source's event-time watermark basis for
    this epoch.  When set, the job advances its watermark from this value
    instead of the epoch's global max event ts — how a partitioned source
    exposes per-partition watermarking (min over partition-local maxima,
    the Flink/Kafka idiom) so a lagging partition's backlog is never
    declared late just because a faster partition raced ahead."""

    __slots__ = ("chunks", "start", "end", "lineage", "wm_ts")

    def __init__(self, chunks, start, end, lineage, wm_ts=None):
        self.chunks = chunks
        self.start = start
        self.end = end
        self.lineage = lineage
        self.wm_ts = wm_ts


class InputStream:
    """Poll-based source interface (see module docstring).

    Contract: offsets are JSON-serializable opaque tokens; ``replay(start,
    end)`` must return byte-identical records for any committed range (the
    replayable-log property); ``commit`` is the downstream ack and is only
    invoked after the epoch's manifest is durable.
    """

    def poll_epoch(self) -> EpochBatch | None:
        """Next micro-batch, or None when the stream is (currently) dry."""
        raise NotImplementedError

    def replay(self, start, end) -> EpochBatch:
        """Re-read exactly the records in ``[start, end)`` (resume path)."""
        raise NotImplementedError

    def seek(self, offsets) -> None:
        """Position the live stream so the next ``poll_epoch`` starts at
        ``offsets``."""
        raise NotImplementedError

    def commit(self, offsets) -> None:
        """Ack processed-through ``offsets`` upstream (no-op by default —
        the manifest is the source of truth; brokers that track consumer
        progress override this)."""

    def state(self):
        """JSON-safe connector state the job persists in each manifest
        (e.g. per-partition watermark maxima).  None = stateless."""
        return None

    def restore_state(self, state) -> None:
        """Restore :meth:`state` on resume (called with the last committed
        manifest's value, before any replay or live poll).  A source that
        can tell the committed run was planned differently raises here."""

    def close(self) -> None:
        pass


class SegmentLogStream(InputStream):
    """The built-in replayable log: an ordered list of Parquet/JSONL
    segment files, planned into epochs of ``files_per_epoch`` files or
    (Parquet only) ``rows_per_epoch`` rows at row-group granularity.  An
    offset is a ``[file_idx, row_group_idx]`` position (row_group_idx 0 =
    start of file), mirroring Kafka's (partition, offset) but over one
    ordered log.

    The plan is built on first use, so a bad planning request (JSONL with
    ``rows_per_epoch``) fails at planning time, not at construction.  Its
    state is a digest chained over the epochs polled so far: resuming
    under a different segment list or planning parameters is rejected
    before any replay, instead of replaying mis-aligned slices."""

    def __init__(self, segment_files, files_per_epoch: int = 2,
                 rows_per_epoch: int | None = None):
        self.files = list(segment_files)
        self.files_per_epoch = files_per_epoch
        self.rows_per_epoch = rows_per_epoch
        self._plan = None
        self._digests: list[str] = []
        self._next = 0

    @property
    def plan(self) -> list:
        """[(chunks, start_pos, end_pos)] with pos = [file_idx, rg_idx]."""
        if self._plan is None:
            self._plan = self._build_plan()
            d = ""
            for chunks, start, end in self._plan:
                rec = json.dumps([d, self._lineage(chunks), start, end])
                d = hashlib.sha256(rec.encode()).hexdigest()[:16]
                self._digests.append(d)
        return self._plan

    def _build_plan(self):
        fs, rows_per_epoch = self.files, self.rows_per_epoch
        plan = []
        if rows_per_epoch is None:
            k = self.files_per_epoch
            for i in range(0, len(fs), k):
                chunk_files = fs[i : i + k]
                plan.append((
                    [(f, None) for f in chunk_files],
                    [i, 0],
                    [min(i + k, len(fs)), 0],
                ))
            return plan
        import pyarrow.parquet as pq

        cur, cur_rows = [], 0
        start = [0, 0]
        for fi, f in enumerate(fs):
            if f.endswith((".jsonl", ".json")):
                raise ValueError(
                    "rows_per_epoch needs Parquet row-group metadata for "
                    "sub-file offsets; use files_per_epoch for JSONL segments"
                )
            md = pq.ParquetFile(f).metadata
            groups: list[int] = []
            for g in range(md.num_row_groups):
                groups.append(g)
                cur_rows += md.row_group(g).num_rows
                if cur_rows >= rows_per_epoch:
                    cur.append((f, groups))
                    end = (
                        [fi + 1, 0] if g == md.num_row_groups - 1
                        else [fi, g + 1]
                    )
                    plan.append((cur, start, end))
                    cur, groups, cur_rows, start = [], [], 0, end
            if groups:
                cur.append((f, groups))
        if cur:
            plan.append((cur, start, [len(fs), 0]))
        return plan

    def poll_epoch(self) -> EpochBatch | None:
        if self._next >= len(self.plan):
            return None
        chunks, start, end = self.plan[self._next]
        self._next += 1
        return EpochBatch(chunks, start, end, self._lineage(chunks))

    @staticmethod
    def _lineage(chunks):
        return [
            [p, list(rg)] if rg is not None else p for p, rg in chunks
        ]

    def replay(self, start, end) -> EpochBatch:
        for chunks, s, e in self.plan:
            if list(s) == list(start) and list(e) == list(end):
                return EpochBatch(chunks, s, e, self._lineage(chunks))
        raise ValueError(f"no planned epoch covers [{start}, {end})")

    def seek(self, offsets) -> None:
        if list(offsets) == [len(self.files), 0]:
            self._next = len(self.plan)
            return
        for i, (_, s, _e) in enumerate(self.plan):
            if list(s) == list(offsets):
                self._next = i
                return
        raise ValueError(f"offset {offsets} is not an epoch boundary")

    def state(self):
        n = self._next
        return {"epochs": n, "plan": self._digests[n - 1] if n else ""}

    def restore_state(self, state) -> None:
        if not state:
            return
        n = state["epochs"]
        have = self._digests[n - 1] if 0 < n <= len(self.plan) else ""
        if have != state["plan"]:
            raise ValueError(
                f"resume epoch-plan mismatch through epoch {n - 1}: the committed "
                f"manifests were planned as {state['plan']}, the current "
                f"planning yields {have or 'no such epoch'} — resume with the "
                "same segment list and files_per_epoch/rows_per_epoch the run "
                "was started with"
            )


class KafkaLikeConsumer:
    """The protocol :class:`KafkaStream` drives — the minimal subset every
    real Kafka client exposes (kafka-python / confluent-kafka shapes;
    reference poll loop input_stream.py:413-444).  Not instantiated here:
    implement it over your client, or use :class:`MockConsumer`."""

    def partitions(self) -> list[int]:
        raise NotImplementedError

    def poll(self, max_records: int):
        """-> {partition: [(offset, value_bytes), ...]} — may be empty."""
        raise NotImplementedError

    def position(self, partition: int) -> int:
        """Next offset ``poll`` would return for the partition."""
        raise NotImplementedError

    def seek(self, partition: int, offset: int) -> None:
        raise NotImplementedError

    def commit(self, offsets: dict) -> None:
        """Durably record {partition: next_unprocessed_offset}."""
        raise NotImplementedError


class KafkaStream(InputStream):
    """Kafka-shaped connector: polls JSON event messages (the reference's
    queue payloads are JSON action events — kafka.rs:123-180), decodes
    each epoch's messages into ONE Arrow table with the transcript schema
    (vectorized ``pyarrow.json`` parse — no Python-dict row loop), and
    exposes ``{partition: next_offset}`` offset dicts.

    Exactly-once wiring: the job calls :meth:`commit` only after the
    epoch's manifest is durable, so the broker's committed offsets never
    run ahead of the sink — on a crash the uncommitted tail replays, and
    the idempotent epoch outputs make the replay invisible (same protocol
    as the reference's manual-commit consumer, kafka.rs:112-116).

    ``rows_per_epoch`` bounds an epoch; a poll returning no messages ends
    the stream for this run (a live deployment would loop with backoff —
    the job stays resumable either way).
    """

    def __init__(self, consumer: KafkaLikeConsumer, rows_per_epoch: int = 10_000,
                 max_polls_per_epoch: int = 64):
        self.consumer = consumer
        self.rows_per_epoch = rows_per_epoch
        self.max_polls_per_epoch = max_polls_per_epoch
        # per-partition max event ts seen (µs) — the watermark basis is
        # min() over these, so a partition whose consumer lags (keyed
        # skew, rebalance) holds the watermark back instead of having its
        # backlog declared late.  Persisted via state()/restore_state()
        # so a resumed run watermarks identically to the original.
        self._part_max: dict[int, int] = {}

    # -- decode ------------------------------------------------------------

    @staticmethod
    def _decode(messages: list[bytes]) -> pa.Table:
        """JSON lines -> transcript-schema Arrow table (same explicit-schema
        parse as JSONL segment reads; extra fields ignored)."""
        from pyarrow import json as pajson

        from osprey_ray.io import TRANSCRIPT_SCHEMA

        parse_schema = pa.schema(
            [
                pa.field("text", pa.string()) if f.name == "text" else f
                for f in TRANSCRIPT_SCHEMA
            ]
        )
        buf = io.BytesIO(b"\n".join(messages))
        t = pajson.read_json(
            buf,
            parse_options=pajson.ParseOptions(
                explicit_schema=parse_schema, unexpected_field_behavior="ignore"
            ),
        )
        i = t.schema.get_field_index("text")
        return t.set_column(i, "text", t["text"].cast(pa.large_string()))

    # -- InputStream -------------------------------------------------------

    def _positions(self) -> dict:
        return {p: self.consumer.position(p) for p in self.consumer.partitions()}

    def poll_epoch(self) -> EpochBatch | None:
        start = self._positions()
        per_part: dict[int, list[bytes]] = {}
        total = 0
        polls = 0
        while total < self.rows_per_epoch and polls < self.max_polls_per_epoch:
            got = self.consumer.poll(self.rows_per_epoch - total)
            polls += 1
            n = 0
            for p, recs in got.items():
                bucket = per_part.setdefault(p, [])
                for _off, val in recs:
                    bucket.append(val)
                    n += 1
            if n == 0:
                break
            total += n
        if total == 0:
            return None
        end = self._positions()
        tables = []
        import pyarrow.compute as pc

        for p in sorted(per_part):
            t = self._decode(per_part[p])
            tables.append(t)
            mx = pc.max(t["ts"].cast(pa.int64())).as_py()
            if mx is not None:
                self._part_max[p] = max(self._part_max.get(p, mx), mx)
        wm_ts = min(self._part_max.values()) if self._part_max else None
        return EpochBatch(
            [pa.concat_tables(tables)], start, end,
            self._lineage(start, end), wm_ts=wm_ts,
        )

    @staticmethod
    def _lineage(start, end):
        return [
            f"kafka://p{p}@{start.get(str(p), start.get(p, 0))}:{e}"
            for p, e in sorted(end.items(), key=lambda kv: int(kv[0]))
        ]

    def replay(self, start, end) -> EpochBatch:
        """Re-poll exactly [start, end) per partition, then restore the
        live positions — implementable on any seekable consumer."""
        start = {int(p): o for p, o in start.items()}
        end = {int(p): o for p, o in end.items()}
        saved = self._positions()
        msgs: list[bytes] = []
        try:
            for p in sorted(end):
                want = end[p] - start.get(p, 0)
                if want <= 0:
                    continue
                self.consumer.seek(p, start.get(p, 0))
                got_n = 0
                while got_n < want:
                    got = self.consumer.poll(want - got_n)
                    # a poll may be filled from other partitions first
                    # (fair-share round robin); only a dry poll is an underrun
                    if not any(got.values()):
                        raise ValueError(
                            f"replay underrun: partition {p} has "
                            f"{got_n}/{want} records in [{start.get(p, 0)}, {end[p]})"
                        )
                    for off, val in got.get(p, []):
                        if off >= end[p]:
                            break
                        msgs.append(val)
                        got_n += 1
        finally:
            for p, o in saved.items():
                self.consumer.seek(p, o)
        if not msgs:
            raise ValueError(f"empty replay range [{start}, {end})")
        return EpochBatch([self._decode(msgs)], start, end, self._lineage(start, end))

    def seek(self, offsets) -> None:
        for p, o in offsets.items():
            self.consumer.seek(int(p), o)

    def commit(self, offsets) -> None:
        self.consumer.commit({int(p): o for p, o in offsets.items()})

    def state(self):
        return {"part_max": {str(p): v for p, v in self._part_max.items()}}

    def restore_state(self, state) -> None:
        if state:
            self._part_max = {
                int(p): int(v) for p, v in state.get("part_max", {}).items()
            }


class MockBroker:
    """In-memory single-topic broker for tests/examples: append-only
    partitions of JSON message bytes, per-group committed offsets —
    deterministic and replayable like a real log."""

    def __init__(self, num_partitions: int = 2):
        self.partitions = [[] for _ in range(num_partitions)]
        self.committed: dict[str, dict[int, int]] = {}

    def produce(self, partition: int, value: bytes) -> int:
        self.partitions[partition].append(value)
        return len(self.partitions[partition]) - 1

    def produce_events(self, rows: list[dict], key: str = "conv_id") -> None:
        """Producer-style helper: route each JSON-able event dict to a
        partition by hash(key) — Kafka's default keyed partitioner."""
        import zlib

        n = len(self.partitions)
        for r in rows:
            p = zlib.crc32(str(r[key]).encode()) % n
            self.produce(p, json.dumps(r).encode())

    def consumer(self, group: str = "osprey", max_records_per_poll: int = 500):
        return MockConsumer(self, group, max_records_per_poll)


class MockConsumer(KafkaLikeConsumer):
    """Round-robin-partition poller over a :class:`MockBroker`, starting
    at the group's committed offsets (earliest when none)."""

    def __init__(self, broker: MockBroker, group: str, max_records_per_poll: int):
        self.broker = broker
        self.group = group
        self.max_records_per_poll = max_records_per_poll
        committed = broker.committed.get(group, {})
        self._pos = {
            p: committed.get(p, 0) for p in range(len(broker.partitions))
        }
        self._rr = 0

    def partitions(self) -> list[int]:
        return list(range(len(self.broker.partitions)))

    def poll(self, max_records: int):
        """Fair-share poll: each partition yields at most cap/P records per
        call (the real consumers' per-partition fetch bound), so partition
        read positions advance in near lock-step — cross-partition
        event-time skew stays bounded by one fair-share chunk instead of a
        whole poll, which is what keeps watermark late-drops at zero for a
        lateness covering delivery delay + chunk span."""
        out: dict[int, list] = {}
        n = 0
        parts = self.partitions()
        cap = min(max_records, self.max_records_per_poll)
        share = max(1, cap // len(parts))
        for i in range(len(parts)):
            p = parts[(self._rr + i) % len(parts)]
            log = self.broker.partitions[p]
            taken = 0
            while self._pos[p] < len(log) and n < cap and taken < share:
                out.setdefault(p, []).append((self._pos[p], log[self._pos[p]]))
                self._pos[p] += 1
                n += 1
                taken += 1
            if n >= cap:
                break
        self._rr = (self._rr + 1) % len(parts)
        return out

    def position(self, partition: int) -> int:
        return self._pos[partition]

    def seek(self, partition: int, offset: int) -> None:
        self._pos[partition] = offset

    def committed_offsets(self) -> dict[int, int]:
        return dict(self.broker.committed.get(self.group, {}))

    def commit(self, offsets: dict) -> None:
        self.broker.committed.setdefault(self.group, {}).update(offsets)
