"""InputStream seam tests: the pluggable poll/ack source interface
(reference parity: osprey_worker input_stream.py:413-444 poll loop,
osprey_coordinator kafka.rs:112-350 manual commit after processing).

The headline invariant — the consumer's committed offsets always equal a
committed manifest's ``offsets.end`` (acks never run ahead of the
exactly-once sink) — is what makes a replayed crash invisible."""

import glob
import json
import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from osprey_ray.datagen import ensure_dataset
from osprey_ray.oracle import oracle_results
from osprey_ray.pipelines.flagship import flagship_spec, label_events_map
from osprey_ray.streaming import (
    KafkaStream,
    MockBroker,
    SegmentLogStream,
    StreamingJob,
)


@pytest.fixture(scope="module")
def stream_data(ray_session):
    d = ensure_dataset(6000, seed=42, root="/tmp/osprey_test_stream")
    segs = sorted(glob.glob(os.path.join(d, "stream", "seg-*.parquet")))
    lmap = label_events_map(pq.read_table(os.path.join(d, "label_events.parquet")))
    import pyarrow as pa

    full = pa.concat_tables(
        [pq.read_table(p) for p in sorted(glob.glob(os.path.join(d, "batch", "*.parquet")))]
    )
    return segs, lmap, full


def _norm(v):
    return list(v) if isinstance(v, np.ndarray) else v


def _df(tbl) -> pd.DataFrame:
    return (
        tbl.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    )


def _assert_same(a: pd.DataFrame, b: pd.DataFrame):
    assert len(a) == len(b) > 0
    for k in a.columns:
        assert [_norm(x) for x in a[k]] == [_norm(x) for x in b[k]], f"column {k}"


def _broker(segs, num_partitions=3) -> MockBroker:
    """Produce the arrival-ordered stream rows as keyed JSON messages —
    what the reference's upstream writes to its queue."""
    broker = MockBroker(num_partitions)
    for p in segs:
        df = pq.read_table(p).to_pandas()
        lines = df.to_json(
            orient="records", lines=True, date_format="iso", date_unit="us"
        ).splitlines()
        import zlib

        for row_json, conv in zip(lines, df["conv_id"]):
            broker.produce(
                zlib.crc32(str(conv).encode()) % num_partitions, row_json.encode()
            )
    return broker


def test_segment_log_stream_matches_filelist(stream_data, tmp_path):
    """source=SegmentLogStream is the built-in impl of the seam: output and
    per-epoch offset lineage must match the pre-listed segment_files path."""
    segs, lmap, full = stream_data
    spec = flagship_spec()
    ref = StreamingJob(
        spec, segs, str(tmp_path / "ref"), lmap, num_shards=4, files_per_epoch=3
    )
    ref.run()
    ref.finalize()

    src = SegmentLogStream(segs, files_per_epoch=3)
    job = StreamingJob(
        spec, None, str(tmp_path / "src"), lmap, num_shards=4, files_per_epoch=3,
        source=src,
    )
    job.run()
    job.finalize()
    _assert_same(_df(ref.results_table()), _df(job.results_table()))
    # manifests carry the consumed offset ranges, chained start==prev end
    last = job.last_committed_epoch()
    prev_end = [0, 0]
    saw = 0
    for e in range(last + 1):
        m = json.load(open(job._manifest_path(e)))
        offs = m.get("offsets")
        if offs is None:  # the finalize() flush epoch consumes no input
            continue
        assert offs["start"] == prev_end
        prev_end = offs["end"]
        saw += 1
    assert saw > 1 and prev_end == [len(segs), 0]


def test_segment_log_stream_rows_per_epoch_plan_parity(stream_data, tmp_path):
    """Row-group granular planning in the stream equals StreamingJob.epochs()."""
    segs, lmap, _ = stream_data
    spec = flagship_spec()
    job = StreamingJob(
        spec, segs, str(tmp_path / "plan"), lmap, num_shards=4, rows_per_epoch=700
    )
    want = job.epochs()
    src = SegmentLogStream(segs, rows_per_epoch=700)
    got = []
    while True:
        eb = src.poll_epoch()
        if eb is None:
            break
        got.append(eb.chunks)
    assert got == want
    # seek to any epoch boundary and re-poll the identical tail
    src.seek([0, 0])
    assert src.poll_epoch().chunks == want[0]


def test_kafka_stream_matches_oracle(stream_data, tmp_path):
    """JSON messages through the Kafka-shaped connector produce the same
    verdicts as the batch oracle (lateness covers delivery delay + the
    cross-partition poll skew, so nothing drops)."""
    segs, lmap, full = stream_data
    spec = flagship_spec()
    broker = _broker(segs)
    src = KafkaStream(broker.consumer(), rows_per_epoch=1500)
    job = StreamingJob(
        spec, None, str(tmp_path / "out"), lmap, num_shards=4,
        allowed_lateness_s=4000.0, source=src,
    )
    job.run()
    job.finalize()
    assert sum(m["late_dropped"] for m in job.metrics) == 0
    got = _df(job.results_table())
    want = pd.DataFrame(oracle_results(full, spec, lmap))
    assert len(got) == len(want)
    for k in want.columns:
        assert [_norm(x) for x in got[k]] == [_norm(x) for x in want[k]], f"column {k}"


def test_kafka_commits_track_manifests(stream_data, tmp_path):
    """The ack protocol: after every run — including one killed mid-stream —
    the broker's committed offsets equal the LAST COMMITTED manifest's
    offsets.end, never further (manifest commit strictly precedes ack)."""
    segs, lmap, _ = stream_data
    spec = flagship_spec()
    broker = _broker(segs)
    consumer = broker.consumer()
    src = KafkaStream(consumer, rows_per_epoch=1500)
    job = StreamingJob(
        spec, None, str(tmp_path / "out"), lmap, num_shards=4,
        allowed_lateness_s=4000.0, source=src,
    )
    job.run(stop_after_epoch=1)
    last = job.last_committed_epoch()
    assert last == 1
    m = json.load(open(job._manifest_path(last)))
    committed = {int(p): o for p, o in consumer.committed_offsets().items()}
    assert committed == {int(p): o for p, o in m["offsets"]["end"].items()}
    # total consumed so far is a strict prefix of the log
    assert sum(committed.values()) < sum(len(p) for p in broker.partitions)
    # and nothing was polled past the stop: no lookahead beyond epoch 1
    positions = {p: consumer.position(p) for p in consumer.partitions()}
    assert positions == committed


def test_kafka_kill_resume_bit_identical(stream_data, tmp_path):
    """Crash after epoch 1, resume with a NEW job + NEW consumer: manifests
    drive offset replay, the live stream seeks to the committed end, and
    the final output is bit-identical to an uninterrupted run."""
    segs, lmap, _ = stream_data
    spec = flagship_spec()

    ref_broker = _broker(segs)
    ref = StreamingJob(
        spec, None, str(tmp_path / "ref"), lmap, num_shards=4,
        allowed_lateness_s=4000.0,
        source=KafkaStream(ref_broker.consumer(), rows_per_epoch=1500),
    )
    ref.run()
    ref.finalize()

    broker = _broker(segs)
    crash = StreamingJob(
        spec, None, str(tmp_path / "out"), lmap, num_shards=4,
        allowed_lateness_s=4000.0,
        source=KafkaStream(broker.consumer(), rows_per_epoch=1500),
    )
    crash.run(stop_after_epoch=1)

    # resume: fresh consumer with a DIFFERENT poll granularity — replay
    # must follow the manifests' recorded ranges, not re-planned batches
    resumed = StreamingJob(
        spec, None, str(tmp_path / "out"), lmap, num_shards=4,
        allowed_lateness_s=4000.0,
        source=KafkaStream(
            broker.consumer(), rows_per_epoch=1500, max_polls_per_epoch=128
        ),
    )
    resumed.run(resume=True)
    resumed.finalize()
    _assert_same(_df(ref.results_table()), _df(resumed.results_table()))
    # and the ack caught up to the full log
    committed = resumed.source.consumer._pos
    assert sum(committed.values()) == sum(len(p) for p in broker.partitions)


def test_source_and_files_mutually_exclusive(stream_data, tmp_path):
    segs, lmap, _ = stream_data
    spec = flagship_spec()
    with pytest.raises(ValueError, match="exactly one"):
        StreamingJob(spec, segs, str(tmp_path / "x"), lmap,
                     source=SegmentLogStream(segs))
    with pytest.raises(ValueError, match="exactly one"):
        StreamingJob(spec, None, str(tmp_path / "y"), lmap)


def test_source_mode_ruleset_swap_matches_segment_mode(stream_data, tmp_path):
    """SegmentLogStream plans byte-identical epoch boundaries to the
    pre-listed path, so a ruleset hot-swap mid-stream through the source
    seam must produce bit-identical output — including a kill+resume
    ACROSS the swap (source-mode replay re-applies the swap schedule at
    the recorded epochs)."""
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from test_streaming import _verdict_specs

    segs, lmap, _ = stream_data
    spec_a, spec_b = _verdict_specs()
    K = 3
    kw = dict(num_shards=4, files_per_epoch=2, spec_updates={K: spec_b})

    ref = StreamingJob(spec_a, segs, str(tmp_path / "ref"), {}, **kw)
    ref.run()
    ref.finalize()
    want = _df(ref.results_table())

    src_job = StreamingJob(
        spec_a, None, str(tmp_path / "src"), {}, source=SegmentLogStream(segs, files_per_epoch=2), **kw
    )
    src_job.run()
    src_job.finalize()
    _assert_same(want, _df(src_job.results_table()))

    # kill across the swap, resume with a fresh source object
    out2 = str(tmp_path / "crash")
    j1 = StreamingJob(
        spec_a, None, out2, {}, source=SegmentLogStream(segs, files_per_epoch=2), **kw
    )
    j1.run(stop_after_epoch=K + 1)
    del j1
    j2 = StreamingJob(
        spec_a, None, out2, {}, source=SegmentLogStream(segs, files_per_epoch=2), **kw
    )
    j2.run(resume=True)
    j2.finalize()
    _assert_same(want, _df(j2.results_table()))


# ---------------------------------------------------------------------------
# PubSub-shaped connector (pull/ack, non-replayable broker, journal + dedupe)
# ---------------------------------------------------------------------------

import base64  # noqa: E402

from osprey_ray.streaming import MockPubSub, PubSubStream  # noqa: E402


def _pubsub(segs, attributes=None, transform=None) -> MockPubSub:
    """Publish the arrival-ordered stream rows as JSON messages (topic
    order = arrival order; PubSub has no partitions)."""
    broker = MockPubSub()
    for p in segs:
        df = pq.read_table(p).to_pandas()
        lines = df.to_json(
            orient="records", lines=True, date_format="iso", date_unit="us"
        ).splitlines()
        for row_json in lines:
            data = row_json.encode()
            if transform is not None:
                data = transform(data)
            broker.publish(data, attributes)
    return broker


def _pubsub_job(spec, lmap, out, src):
    return StreamingJob(
        spec, None, out, lmap, num_shards=4, allowed_lateness_s=4000.0,
        source=src,
    )


def test_pubsub_stream_matches_oracle(stream_data, tmp_path):
    """JSON messages through the PubSub-shaped connector produce the same
    verdicts as the batch oracle; the run journals every epoch and acks
    every message."""
    segs, lmap, full = stream_data
    spec = flagship_spec()
    broker = _pubsub(segs)
    src = PubSubStream(broker, str(tmp_path / "journal"), rows_per_epoch=1500)
    job = _pubsub_job(spec, lmap, str(tmp_path / "out"), src)
    job.run()
    job.finalize()
    assert sum(m["late_dropped"] for m in job.metrics) == 0
    got = _df(job.results_table())
    want = pd.DataFrame(oracle_results(full, spec, lmap))
    assert len(got) == len(want)
    for k in want.columns:
        assert [_norm(x) for x in got[k]] == [_norm(x) for x in want[k]], f"column {k}"
    assert broker.unacked_count() == 0
    assert len(glob.glob(str(tmp_path / "journal" / "journal-*.jsonl"))) >= 2


def test_pubsub_acks_track_manifests(stream_data, tmp_path):
    """Acks never run ahead of the sink: after a mid-stream stop, exactly
    the messages journaled by COMMITTED epochs are acked."""
    segs, lmap, _ = stream_data
    spec = flagship_spec()
    broker = _pubsub(segs)
    src = PubSubStream(broker, str(tmp_path / "journal"), rows_per_epoch=1500)
    job = _pubsub_job(spec, lmap, str(tmp_path / "out"), src)
    job.run(stop_after_epoch=1)
    last = job.last_committed_epoch()
    assert last == 1
    committed_rows = 0
    for e in range(last + 1):
        m = json.load(open(job._manifest_path(e)))
        committed_rows += sum(
            int(lin.split("#rows=")[1]) for lin in m["input_files"]
        )
        # the dedupe state was taken at this epoch's own poll, not at the
        # lookahead poll of the next one
        end = m["offsets"]["end"][0]
        assert all(seq < end for seq in m["source_state"]["seen"].values())
    assert len(broker.acked) == committed_rows
    assert broker.unacked_count() > 0  # backlog remains


def test_pubsub_kill_resume_bit_identical(stream_data, tmp_path):
    """Crash after epoch 1, resume with a NEW stream object over the same
    subscription: manifests drive journal replay, the dedupe window
    (restored from the manifest) filters the broker's redeliveries —
    including duplicates of already-ACKED messages — and the final output
    is bit-identical to an uninterrupted run."""
    segs, lmap, _ = stream_data
    spec = flagship_spec()

    ref = _pubsub_job(
        spec, lmap, str(tmp_path / "ref"),
        PubSubStream(_pubsub(segs), str(tmp_path / "jref"), rows_per_epoch=1500),
    )
    ref.run()
    ref.finalize()

    broker = _pubsub(segs)
    jdir = str(tmp_path / "journal")
    crash = _pubsub_job(
        spec, lmap, str(tmp_path / "out"),
        PubSubStream(broker, jdir, rows_per_epoch=1500),
    )
    crash.run(stop_after_epoch=1)
    # at-least-once strikes: the broker re-delivers some ACKED messages
    acked_ids = [broker.messages[i][0] for i in sorted(broker.acked)[:40]]
    broker.redeliver_acked(acked_ids)

    resumed = _pubsub_job(
        spec, lmap, str(tmp_path / "out"),
        PubSubStream(broker, jdir, rows_per_epoch=1500),
    )
    resumed.run(resume=True)
    resumed.finalize()
    _assert_same(_df(ref.results_table()), _df(resumed.results_table()))
    assert broker.unacked_count() == 0


def test_pubsub_ack_loss_crash(stream_data, tmp_path):
    """Crash BETWEEN manifest commit and ack (the window exactly-once
    exists for): the broker redelivers the unacked messages, the resumed
    run recognizes them via the manifest-persisted dedupe state, acks
    them, and emits nothing twice."""
    segs, lmap, _ = stream_data
    spec = flagship_spec()

    ref = _pubsub_job(
        spec, lmap, str(tmp_path / "ref"),
        PubSubStream(_pubsub(segs), str(tmp_path / "jref"), rows_per_epoch=1500),
    )
    ref.run()
    ref.finalize()

    broker = MockPubSub(ack_deadline_pulls=1)  # expire fast
    for p in segs:
        df = pq.read_table(p).to_pandas()
        for row_json in df.to_json(
            orient="records", lines=True, date_format="iso", date_unit="us"
        ).splitlines():
            broker.publish(row_json.encode())
    jdir = str(tmp_path / "journal")
    src = PubSubStream(broker, jdir, rows_per_epoch=1500)
    real_commit = src.commit
    src.commit = lambda offsets: (
        None if int(offsets[0]) == 2 else real_commit(offsets)
    )  # epoch 1's ack is lost; its manifest is already durable
    crash = _pubsub_job(spec, lmap, str(tmp_path / "out"), src)
    crash.run(stop_after_epoch=1)
    lost = broker.unacked_count()
    assert lost > 0

    resumed = _pubsub_job(
        spec, lmap, str(tmp_path / "out"),
        PubSubStream(broker, jdir, rows_per_epoch=1500),
    )
    resumed.run(resume=True)
    resumed.finalize()
    _assert_same(_df(ref.results_table()), _df(resumed.results_table()))
    assert broker.unacked_count() == 0


def test_pubsub_encrypted_payloads(stream_data, tmp_path):
    """The KMS-envelope seam (reference input_stream.py:152-160): messages
    marked encrypted are decrypted by the hook on the journal's READ side
    — the journal itself stores ciphertext — and the output matches the
    plaintext run."""
    segs, lmap, full = stream_data
    spec = flagship_spec()
    KEY = 0x5A

    def xor(data: bytes) -> bytes:
        return bytes(b ^ KEY for b in data)

    broker = _pubsub(segs, attributes={"encrypted": "true"}, transform=xor)
    jdir = str(tmp_path / "journal")
    src = PubSubStream(
        broker, jdir, rows_per_epoch=1500,
        decrypt=lambda data, attrs: xor(data),
    )
    job = _pubsub_job(spec, lmap, str(tmp_path / "out"), src)
    job.run()
    job.finalize()
    got = _df(job.results_table())
    want = pd.DataFrame(oracle_results(full, spec, lmap))
    assert len(got) == len(want)
    for k in want.columns:
        assert [_norm(x) for x in got[k]] == [_norm(x) for x in want[k]], f"column {k}"
    # ciphertext at rest: the journal stores the XOR-ed payload verbatim
    blob = open(sorted(glob.glob(f"{jdir}/journal-*.jsonl"))[0], "rb").read()
    first = json.loads(blob.splitlines()[0].decode())
    raw = base64.b64decode(first["d"])
    assert b"conv" not in raw and b"conv" in xor(raw)


def test_pubsub_journal_gc(stream_data, tmp_path):
    """gc_journal removes only files below the given seq; replay of a
    GC-ed committed epoch fails loudly with the recovery hint."""
    segs, lmap, _ = stream_data
    spec = flagship_spec()
    broker = _pubsub(segs)
    jdir = str(tmp_path / "journal")
    src = PubSubStream(broker, jdir, rows_per_epoch=1500)
    job = _pubsub_job(spec, lmap, str(tmp_path / "out"), src)
    job.run()
    job.finalize()
    n = len(glob.glob(f"{jdir}/journal-*.jsonl"))
    assert n >= 3
    removed = src.gc_journal(2)
    assert len(removed) == 2
    assert len(glob.glob(f"{jdir}/journal-*.jsonl")) == n - 2
    with pytest.raises(FileNotFoundError, match="gc_journal"):
        src.replay([0], [1])


def test_pubsub_crash_during_journal_write(stream_data, tmp_path):
    """A crash mid-journal-write leaves a .tmp orphan (the atomic rename
    never happened): those messages were never leased-committed, the
    broker redelivers them, and the resumed run overwrites the orphan —
    output bit-identical to an uninterrupted run."""
    segs, lmap, _ = stream_data
    spec = flagship_spec()

    ref = _pubsub_job(
        spec, lmap, str(tmp_path / "ref"),
        PubSubStream(_pubsub(segs), str(tmp_path / "jref"), rows_per_epoch=1500),
    )
    ref.run()
    ref.finalize()

    # deadline of ONE pull so the crashed epoch's un-journaled leases
    # expire (and redeliver) before the resumed run's backlog runs dry
    broker = MockPubSub(ack_deadline_pulls=1)
    for p in segs:
        df = pq.read_table(p).to_pandas()
        for row_json in df.to_json(
            orient="records", lines=True, date_format="iso", date_unit="us"
        ).splitlines():
            broker.publish(row_json.encode())
    jdir = str(tmp_path / "journal")
    src = PubSubStream(broker, jdir, rows_per_epoch=1500)
    real_write = src._write_journal
    calls = {"n": 0}

    def crashy(seq, msgs):
        calls["n"] += 1
        if calls["n"] == 3:  # die INSIDE the third epoch's journal write
            with open(src._journal_path(seq) + ".tmp", "w") as f:
                f.write("torn half-written journal")
            raise OSError("disk died mid-write")
        return real_write(seq, msgs)

    src._write_journal = crashy
    crash = _pubsub_job(spec, lmap, str(tmp_path / "out"), src)
    with pytest.raises(OSError, match="disk died"):
        crash.run()
    assert os.path.exists(os.path.join(jdir, "journal-000002.jsonl.tmp"))

    resumed = _pubsub_job(
        spec, lmap, str(tmp_path / "out"),
        PubSubStream(broker, jdir, rows_per_epoch=1500),
    )
    resumed.run(resume=True)
    resumed.finalize()
    _assert_same(_df(ref.results_table()), _df(resumed.results_table()))
    assert broker.unacked_count() == 0


# ---------------------------------------------------------------------------
# recovery replay (checkpoint_interval > 1) across every source
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["files", "rows", "kafka", "pubsub"])
def test_sparse_checkpoint_kill_resume(stream_data, tmp_path, kind):
    """Snapshots every 3rd epoch and a stop BETWEEN snapshots: resume
    restores epoch 2's snapshot and replays epochs 3-4 from the offset
    ranges their manifests recorded (no writes), then continues live.
    Output is bit-identical to an uninterrupted run, every manifest's
    last_snapshot_epoch names the latest snapshot at or before it, and a
    broker's acks equal exactly the committed messages."""
    segs, lmap, _ = stream_data
    spec = flagship_spec()

    def job(out, broker=None):
        kw = dict(num_shards=4, allowed_lateness_s=4000.0, checkpoint_interval=3)
        if kind == "files":
            return StreamingJob(spec, segs, out, lmap, files_per_epoch=2, **kw)
        if kind == "rows":
            return StreamingJob(spec, segs, out, lmap, rows_per_epoch=700, **kw)
        if kind == "kafka":
            src = KafkaStream(broker.consumer(), rows_per_epoch=800)
        else:
            src = PubSubStream(broker, out + "-journal", rows_per_epoch=800)
        return StreamingJob(spec, None, out, lmap, source=src, **kw)

    def new_broker():
        return {"kafka": _broker, "pubsub": _pubsub}.get(kind, lambda s: None)(segs)

    def acks_match_commits(j, broker):
        manifests = [j._manifest(e) for e in range(j.last_committed_epoch() + 1)]
        fed = [m for m in manifests if m["input_files"]]
        if kind == "kafka":
            committed = {int(p): o for p, o in broker.committed["osprey"].items()}
            assert committed == {int(p): o for p, o in fed[-1]["offsets"]["end"].items()}
        elif kind == "pubsub":
            rows = sum(int(lin.split("#rows=")[1]) for m in fed for lin in m["input_files"])
            assert len(broker.acked) == rows

    ref = job(str(tmp_path / "ref"), new_broker())
    ref.run()
    ref.finalize()
    assert ref.last_committed_epoch() >= 6

    out = str(tmp_path / "out")
    broker = new_broker()
    crash = job(out, broker)
    crash.run(stop_after_epoch=4)
    assert crash.last_committed_epoch() == 4
    acks_match_commits(crash, broker)
    del crash

    resumed = job(out, broker)
    resumed.run(resume=True)
    resumed.finalize()
    assert [m["epoch"] for m in resumed.metrics if m["recovery"]] == [3, 4]
    _assert_same(_df(ref.results_table()), _df(resumed.results_table()))
    acks_match_commits(resumed, broker)
    if kind == "pubsub":
        assert broker.unacked_count() == 0

    want = -1
    last = resumed.last_committed_epoch()
    for e in range(last + 1):
        m = resumed._manifest(e)
        assert bool(m["snapshots"]) == (e % 3 == 2 or e == last), e
        if m["snapshots"]:
            want = e
        assert m["last_snapshot_epoch"] == want, e
