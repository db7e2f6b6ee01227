"""Streaming engine tests: watermark-ordered evaluation equals the batch
oracle; kill+resume from checkpoint reproduces bit-identical output
(BASELINE.json north_rule: exactly-once + per-partition lineage)."""

import glob
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from osprey_ray.datagen import ensure_dataset
from osprey_ray.oracle import oracle_results
from osprey_ray.pipelines.flagship import flagship_spec, label_events_map
from osprey_ray.streaming import StreamingJob


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
    if isinstance(v, np.ndarray):
        return list(v)
    return v


def _df(tbl) -> pd.DataFrame:
    return (
        tbl.to_pandas()
        .sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)
    )


def test_streaming_matches_oracle(stream_data, tmp_path):
    segs, lmap, full = stream_data
    spec = flagship_spec()
    job = StreamingJob(
        spec, segs, str(tmp_path / "out"), lmap, num_shards=4, files_per_epoch=3,
        allowed_lateness_s=1000.0,
    )
    job.run()
    job.finalize()
    got = _df(job.results_table())
    # lateness (1000s) exceeds max delivery delay (900s) → nothing dropped,
    # streaming output must equal the full batch oracle
    assert sum(m["late_dropped"] for m in job.metrics) == 0
    want = pd.DataFrame(oracle_results(full, spec, lmap))
    assert len(got) == len(want)
    for k in want.columns:
        g = [_norm(x) for x in got[k]]
        w = [_norm(x) for x in want[k]]
        assert g == w, f"column {k} differs"


def test_kill_and_resume_bit_identical(stream_data, tmp_path):
    segs, lmap, full = stream_data
    spec = flagship_spec()

    # full uninterrupted run
    ref_job = StreamingJob(
        spec, segs, str(tmp_path / "ref"), lmap, num_shards=4, files_per_epoch=2
    )
    ref_job.run()
    ref_job.finalize()
    ref = _df(ref_job.results_table())

    # killed run: stop after epoch 3, then a NEW job object resumes
    out = str(tmp_path / "crash")
    j1 = StreamingJob(spec, segs, out, lmap, num_shards=4, files_per_epoch=2)
    j1.run(stop_after_epoch=3)
    assert j1.last_committed_epoch() == 3
    del j1  # "crash" — actors die with the driver state in real life

    j2 = StreamingJob(spec, segs, out, lmap, num_shards=4, files_per_epoch=2)
    j2.run(resume=True)
    j2.finalize()
    got = _df(j2.results_table())

    assert len(got) == len(ref)
    for k in ref.columns:
        assert [_norm(x) for x in got[k]] == [_norm(x) for x in ref[k]], f"column {k} differs"


def test_late_rows_dropped_with_tight_lateness(stream_data, tmp_path):
    segs, lmap, full = stream_data
    spec = flagship_spec()
    job = StreamingJob(
        spec, segs, str(tmp_path / "tight"), lmap, num_shards=4, files_per_epoch=3,
        allowed_lateness_s=10.0,  # below the planted 120-900s delivery delays
    )
    job.run()
    job.finalize()
    dropped = sum(m["late_dropped"] for m in job.metrics)
    assert dropped > 0
    got = job.results_table()
    # released rows are still deduped & ordered
    keys = list(zip(got["conv_id"].to_pylist(), got["turn_idx"].to_pylist()))
    assert len(keys) == len(set(keys))
    assert got.num_rows + dropped >= full.num_rows - (full.num_rows // 50)


def test_streaming_kitchen_sink_state_carry(stream_data, tmp_path):
    """KvCache / WindowCount / IncrementWindow state carried across epochs
    equals the batch oracle (exercises the carry paths the flagship spec
    doesn't)."""
    from osprey_ray.pipelines.flagship import kitchen_sink_spec

    segs, lmap, full = stream_data
    spec = kitchen_sink_spec()
    job = StreamingJob(
        spec, segs, str(tmp_path / "ks"), lmap, num_shards=3, files_per_epoch=2,
        allowed_lateness_s=1000.0,
    )
    job.run()
    job.finalize()
    got = _df(job.results_table())
    want = pd.DataFrame(oracle_results(full, spec, lmap))
    assert len(got) == len(want)
    for k in want.columns:
        g = [_norm(x) for x in got[k]]
        w = [_norm(x) for x in want[k]]
        assert g == w, f"column {k} differs"


def test_window_aggregate_emission(stream_data, tmp_path):
    """Watermark-driven window emission: the streaming window stream equals
    the window aggregates derived from the batch oracle, and open-window
    state is evicted (empty after finalize)."""
    import json

    segs, lmap, full = stream_data
    spec = flagship_spec()
    job = StreamingJob(
        spec, segs, str(tmp_path / "win"), lmap, num_shards=4, files_per_epoch=3
    )
    job.run()
    m = job.finalize()
    wins = job.window_stream_table().to_pandas()
    assert {"window", "conv_id", "start", "end", "agg_count"} <= set(wins.columns)
    # every window type emitted
    assert set(wins["window"].unique()) == {"TurnsThisHour", "sess"}
    # eviction: nothing left open after the final +inf watermark
    final = json.load(open(job._manifest_path(job.last_committed_epoch())))
    assert final["open_windows"] == 0

    # equality vs batch-derived aggregates
    want = pd.DataFrame(oracle_results(full, spec, lmap))
    # pandas datetimes are int64 *nanoseconds*; engine buckets are µs
    ts_us = want["ts"].astype("int64") // 1000
    want["bucket"] = (ts_us // 3_600_000_000) * 3_600_000_000
    tumb = (
        want.groupby(["conv_id", "bucket"])["TurnsThisHour"].max().reset_index()
    )
    got_t = wins[wins["window"] == "TurnsThisHour"].copy()
    got_t["bucket"] = got_t["start"].astype("int64") // 1000
    got_t = got_t.sort_values(["conv_id", "bucket"]).reset_index(drop=True)
    tumb = tumb.sort_values(["conv_id", "bucket"]).reset_index(drop=True)
    assert len(got_t) == len(tumb)
    assert got_t["agg_count"].tolist() == tumb["TurnsThisHour"].tolist()

    sess = (
        want.groupby(["conv_id", "sess__id"])
        .agg(n=("sess__count", "max"))
        .reset_index()
        .sort_values(["conv_id", "sess__id"])
        .reset_index(drop=True)
    )
    got_s = wins[wins["window"] == "sess"].sort_values(["conv_id", "start"]).reset_index(drop=True)
    assert len(got_s) == len(sess)
    assert got_s["agg_count"].tolist() == sess["n"].tolist()


def test_manifest_is_commit_point(stream_data, tmp_path):
    segs, lmap, _ = stream_data
    spec = flagship_spec()
    out = str(tmp_path / "mf")
    job = StreamingJob(spec, segs, out, lmap, num_shards=2, files_per_epoch=4)
    job.run(stop_after_epoch=1)
    # uncommitted shard output beyond the manifest must be invisible
    visible = set(os.path.basename(f) for f in job.output_files())
    on_disk = set(os.listdir(os.path.join(out, "data")))
    assert visible <= on_disk
    for e in range(job.last_committed_epoch() + 1):
        assert os.path.exists(os.path.join(out, "manifest", f"epoch-{e:05d}.json"))


def test_pending_spill_bounded_and_exact(stream_data, tmp_path):
    """A stalled watermark must not grow shard memory without bound: with a
    tiny spill threshold and a huge allowed lateness (watermark pinned at
    the stream start), pending rows spill to Parquet, stay off the heap,
    and the final flush still produces exactly the batch-oracle output."""
    segs, lmap, full = stream_data
    spec = flagship_spec()
    job = StreamingJob(
        spec, segs, str(tmp_path / "spill"), lmap, num_shards=4,
        files_per_epoch=2, allowed_lateness_s=1e9, pending_spill_rows=200,
    )
    job.run()
    # the watermark never advanced → everything pended; spill engaged
    spilled_peak = max(m["pending_spilled_rows"] for m in job.metrics)
    assert spilled_peak > 0, "spill never engaged"
    # spill files exist on disk while pending
    spill_files = glob.glob(str(tmp_path / "spill" / "data" / "spill" / "*.parquet"))
    assert spill_files, "no spill files on disk"
    job.finalize()
    got = _df(job.results_table())
    want = pd.DataFrame(oracle_results(full, spec, lmap))
    assert len(got) == len(want)
    for k in want.columns:
        assert [_norm(x) for x in got[k]] == [_norm(x) for x in want[k]], f"column {k} differs"


def test_pending_spill_survives_kill_resume(stream_data, tmp_path):
    """Kill mid-run with rows spilled; a new job resumes from checkpoint
    (snapshot references the spill files) and output is bit-identical."""
    segs, lmap, full = stream_data
    spec = flagship_spec()
    ref = StreamingJob(
        spec, segs, str(tmp_path / "ref2"), lmap, num_shards=4, files_per_epoch=2,
        allowed_lateness_s=1e9, pending_spill_rows=200,
    )
    ref.run()
    ref.finalize()
    want = _df(ref.results_table())

    out = str(tmp_path / "crash2")
    j1 = StreamingJob(
        spec, segs, out, lmap, num_shards=4, files_per_epoch=2,
        allowed_lateness_s=1e9, pending_spill_rows=200,
    )
    j1.run(stop_after_epoch=2)
    del j1
    j2 = StreamingJob(
        spec, segs, out, lmap, num_shards=4, files_per_epoch=2,
        allowed_lateness_s=1e9, pending_spill_rows=200,
    )
    j2.run(resume=True)
    j2.finalize()
    got = _df(j2.results_table())
    assert len(got) == len(want)
    for k in want.columns:
        assert [_norm(x) for x in got[k]] == [_norm(x) for x in want[k]], f"column {k} differs"


def _verdict_specs():
    """Spec A fires 'greet' on RuleHello; spec B additionally fires
    'flag_spam' on RuleSpam — a pure trigger-level hot-reload delta."""
    from osprey_ray.pipelines.flagship import flagship_sql_spec
    from osprey_ray.rules import DeclareVerdict, WhenRules

    a = flagship_sql_spec()
    a.triggers = [WhenRules(["RuleHello"], [DeclareVerdict("greet")])]
    a.validate()
    b = flagship_sql_spec()
    b.triggers = [
        WhenRules(["RuleHello"], [DeclareVerdict("greet")]),
        WhenRules(["RuleSpam"], [DeclareVerdict("flag_spam")]),
    ]
    b.validate()
    return a, b


def test_streaming_ruleset_swap(stream_data, tmp_path):
    """Ruleset hot-reload at an epoch boundary (round-2 verdict item #4):
    epochs before the swap carry only spec-A verdicts, epochs at/after it
    carry spec-B's; every manifest records the producing spec's content
    hash; kill+resume across the swap is bit-identical; and resuming under
    the WRONG ruleset is rejected by the hash check."""
    import json

    import pyarrow as pa

    segs, lmap, full = stream_data
    spec_a, spec_b = _verdict_specs()
    assert spec_a.content_hash() != spec_b.content_hash()
    K = 3
    kw = dict(num_shards=4, files_per_epoch=2, spec_updates={K: spec_b})

    job = StreamingJob(spec_a, segs, str(tmp_path / "swap"), {}, **kw)
    job.run()
    job.finalize()

    def epoch_tables(j):
        out = {}
        for e in range(j.last_committed_epoch() + 1):
            m = json.load(open(j._manifest_path(e)))
            fs = [os.path.join(j.data_dir, f) for f in m["outputs"] if f]
            if fs:
                out[e] = pa.concat_tables([pq.read_table(f) for f in fs])
            yield e, m, out.get(e)

    saw_pre = saw_post = False
    for e, m, tbl in epoch_tables(job):
        want = (spec_b if e >= K else spec_a).content_hash()
        assert m["ruleset_hash"] == want, f"epoch {e} hash"
        if tbl is None:
            continue
        verdicts = [set(v) for v in tbl["__verdicts"].to_pylist()]
        spam = tbl["RuleSpam"].to_pylist()
        if e < K:
            assert not any("flag_spam" in v for v in verdicts)
            saw_pre = saw_pre or any(spam)
        else:
            assert all(("flag_spam" in v) == bool(s) for v, s in zip(verdicts, spam))
            saw_post = saw_post or any(spam)
    assert saw_pre and saw_post, "swap delta never exercised — weak fixture"
    want_df = _df(job.results_table())

    # kill across the swap, resume with the same schedule → bit-identical
    out2 = str(tmp_path / "swapcrash")
    j1 = StreamingJob(spec_a, segs, out2, {}, **kw)
    j1.run(stop_after_epoch=K + 1)
    del j1
    j2 = StreamingJob(spec_a, segs, out2, {}, **kw)
    j2.run(resume=True)
    j2.finalize()
    got_df = _df(j2.results_table())
    assert len(got_df) == len(want_df)
    for k in want_df.columns:
        assert [_norm(x) for x in got_df[k]] == [_norm(x) for x in want_df[k]], f"column {k}"

    # resuming WITHOUT the swap schedule = wrong effective ruleset → rejected
    j3 = StreamingJob(spec_a, segs, out2, {}, num_shards=4, files_per_epoch=2)
    with pytest.raises(ValueError, match="ruleset mismatch"):
        j3.run(resume=True)


def test_spill_gc_deferred_to_manifest_commit(stream_data, tmp_path):
    """Crash-window regression (round-3 advice): spill files consumed by a
    shard must survive until the manifest referencing the NEW snapshot
    commits.  Simulate the exact window — shards consume their spills and
    write snapshot-(k+1), then the driver dies BEFORE manifest-(k+1) — and
    require that resume from manifest-k still finds every spill file the
    old snapshot references."""
    import ray

    segs, lmap, full = stream_data
    spec = flagship_spec()
    kw = dict(num_shards=4, files_per_epoch=2, allowed_lateness_s=1e9,
              pending_spill_rows=200)

    ref = StreamingJob(spec, segs, str(tmp_path / "gcref"), lmap, **kw)
    ref.run()
    ref.finalize()
    want = _df(ref.results_table())

    out = str(tmp_path / "gccrash")
    j1 = StreamingJob(spec, segs, out, lmap, **kw)
    j1.run(stop_after_epoch=2)
    assert j1.last_committed_epoch() == 2
    spill_glob = os.path.join(out, "data", "spill", "*.parquet")
    before = set(glob.glob(spill_glob))
    assert before, "precondition: spills referenced by snapshot-2"

    # the crash window: epoch 3 processes (consuming every spill via a
    # jumped watermark), snapshot-3 is written, manifest-3 is NOT
    wm = int(np.iinfo(np.int64).max)
    ray.get([s.process.remote(3, wm, write=False) for s in j1.shards])
    ray.get([s.snapshot.remote(j1.ckpt_dir, 3) for s in j1.shards])
    after = set(glob.glob(spill_glob))
    assert after == before, (
        "snapshot deleted consumed spill files before the manifest commit — "
        "resume from the last committed manifest would FileNotFoundError"
    )
    del j1  # crash

    j2 = StreamingJob(spec, segs, out, lmap, **kw)
    j2.run(resume=True)
    j2.finalize()
    got = _df(j2.results_table())
    assert len(got) == len(want)
    for k in want.columns:
        assert [_norm(x) for x in got[k]] == [_norm(x) for x in want[k]], f"column {k} differs"
    # and post-commit GC does run: the stream is drained, manifests
    # committed, so no consumed spill file lingers
    assert not glob.glob(spill_glob), "committed spills were never GC'd"


def test_subfile_epoch_offsets(stream_data, tmp_path):
    """rows_per_epoch plans epochs at Parquet row-group boundaries inside a
    segment (the reference's per-message-offset analogue): manifests carry
    (file, row-group) lineage, output equals the batch oracle, and
    kill+resume replays only committed row groups — bit-identical."""
    import json as _json

    import pyarrow as pa
    import pyarrow.parquet as pq_

    segs, lmap, full = stream_data
    spec = flagship_spec()
    # rebuild the stream as TWO large segments with small row groups so
    # epoch boundaries must fall mid-file
    ordered = pa.concat_tables([pq_.read_table(s) for s in segs]).sort_by(
        [("_arrival_us", "ascending")]
    )
    big = tmp_path / "bigsegs"
    big.mkdir()
    half = ordered.num_rows // 2
    paths = []
    for i, sl in enumerate([ordered.slice(0, half), ordered.slice(half)]):
        p = str(big / f"seg-{i:05d}.parquet")
        pq_.write_table(sl, p, row_group_size=400)
        paths.append(p)

    job = StreamingJob(
        spec, paths, str(tmp_path / "sub"), lmap, num_shards=4, rows_per_epoch=1000
    )
    eps = job.epochs()
    assert len(eps) > 2
    assert any(len(chunk[1]) < 8 for ep in eps for chunk in ep), "no sub-file epochs"
    job.run()
    job.finalize()
    got = _df(job.results_table())
    want = pd.DataFrame(oracle_results(full, spec, lmap))
    assert len(got) == len(want)
    for k in want.columns:
        assert [_norm(x) for x in got[k]] == [_norm(x) for x in want[k]], f"column {k} differs"
    # manifest lineage records row-group ranges
    m = _json.load(open(str(tmp_path / "sub" / "manifest" / "epoch-00000.json")))
    assert m["input_files"] and isinstance(m["input_files"][0], list)
    assert m["input_files"][0][1], "row-group list missing from lineage"

    # kill + resume with sub-file epochs
    out = str(tmp_path / "subcrash")
    j1 = StreamingJob(spec, paths, out, lmap, num_shards=4, rows_per_epoch=1000)
    j1.run(stop_after_epoch=2)
    del j1
    j2 = StreamingJob(spec, paths, out, lmap, num_shards=4, rows_per_epoch=1000)
    j2.run(resume=True)
    j2.finalize()
    got2 = _df(j2.results_table())
    assert len(got2) == len(got)
    for k in want.columns:
        assert [_norm(x) for x in got2[k]] == [_norm(x) for x in got[k]], f"column {k} differs"


def _hot_set(full, which: str) -> set:
    """The 3 biggest conversations, or every conversation (each one salts,
    and with an 8-turn block its blocks split mid-epoch)."""
    counts = pd.Series(full["conv_id"].to_pylist()).value_counts()
    return set(counts.index[:3] if which == "top3" else counts.index)


@pytest.mark.parametrize("which", ["top3", "every"])
def test_hot_routing_matches_unrouted(stream_data, tmp_path, which):
    """Routed hot-conversation exchange (sub-key routing + driver-seeded
    block evaluation): byte-identical to whole-key routing, including the
    window-aggregate stream (hot windows close driver-side)."""
    from osprey_ray.pipelines.flagship import flagship_sql_spec

    segs, _, full = stream_data
    spec = flagship_sql_spec()
    ref = StreamingJob(spec, segs, str(tmp_path / "uns"), {}, num_shards=4, files_per_epoch=3)
    ref.run(); ref.finalize()
    want = _df(ref.results_table())
    want_w = ref.window_stream_table()

    # a tiny block size so blocks split across shards and epochs
    hot = _hot_set(full, which)
    job = StreamingJob(
        spec, segs, str(tmp_path / "hot"), {}, num_shards=4, files_per_epoch=3,
        hot_convs=hot, hot_block_turns=8,
    )
    job.run(); job.finalize()
    got = _df(job.results_table())
    assert len(got) == len(want)
    for k in want.columns:
        assert [_norm(x) for x in got[k]] == [_norm(x) for x in want[k]], f"column {k} differs"
    assert job.window_stream_table().equals(want_w)


def _same_rows(got, want) -> None:
    """Results tables equal row for row (sorted by conv and turn; the null
    padding of a swap's missing columns compares as None)."""
    got, want = _df(got), _df(want)
    assert list(got.columns) == list(want.columns) and len(got) == len(want)
    for k in want.columns:
        a = [x if x == x else None for x in map(_norm, got[k])]
        b = [x if x == x else None for x in map(_norm, want[k])]
        assert a == b, f"column {k} differs"


def test_hot_routing_swap_removing_window_feature(stream_data, tmp_path):
    """A swap that removes a window feature prunes the driver's hot open
    windows as it prunes the shards': the salted job finishes, and its
    results and window stream equal the unsalted job's."""
    import dataclasses

    from osprey_ray.pipelines.flagship import flagship_sql_spec

    segs, _, full = stream_data
    spec = flagship_sql_spec()
    without = dataclasses.replace(
        spec,
        stateful=[s for s in spec.stateful if s.name != "sess"],
        rules=[r for r in spec.rules if r.name != "RuleLongSession"],
    )
    without.validate()
    kw = dict(num_shards=2, files_per_epoch=2, spec_updates={2: without})
    ref = StreamingJob(spec, segs, str(tmp_path / "uns"), {}, **kw)
    ref.run(); ref.finalize()
    job = StreamingJob(spec, segs, str(tmp_path / "hot"), {}, hot_convs=_hot_set(full, "top3"),
                       hot_block_turns=8, **kw)
    job.run(); job.finalize()
    _same_rows(job.results_table(), ref.results_table())
    wins = job.window_stream_table()
    assert wins.equals(ref.window_stream_table())
    assert set(wins["window"].to_pylist()) == {"TurnsThisHour", "sess"}


def test_hot_routing_spreads_bytes(stream_data, tmp_path):
    """The point of the sub-key exchange: a whale's rows no longer all land
    on one shard.  With every conversation hot and an 8-turn block size,
    each shard's output rows must be well under the whale's total."""
    from osprey_ray.pipelines.flagship import flagship_sql_spec
    import json

    segs, _, full = stream_data
    spec = flagship_sql_spec()
    counts = pd.Series(full["conv_id"].to_pylist()).value_counts()
    whale = counts.index[0]

    def shard_rows(out_dir, **kw):
        job = StreamingJob(spec, segs, str(out_dir), {}, num_shards=4,
                           files_per_epoch=3, **kw)
        job.run(); job.finalize()
        per_shard = [0, 0, 0, 0]
        for f in glob.glob(os.path.join(job.data_dir, "*.parquet")):
            name = os.path.basename(f)
            if name.startswith(("part-", "hot-")):
                t = pq.read_table(f, columns=["conv_id"])
                p = int(name.split("-p")[1][:4])
                per_shard[p] += sum(1 for c in t["conv_id"].to_pylist() if c == whale)
        return per_shard

    base = shard_rows(tmp_path / "b")
    routed = shard_rows(tmp_path / "r", hot_convs={whale}, hot_block_turns=8)
    # unrouted: all evaluated whale rows on one shard (late-drops excluded);
    # routed: same total, but no shard holds them all
    total = sum(base)
    assert max(base) == total > 0
    assert sum(routed) == total and max(routed) < total


@pytest.mark.parametrize("which", ["top3", "every"])
def test_hot_routing_kill_resume(stream_data, tmp_path, which):
    """Driver-held hot carry state checkpoints with the manifests: a crash
    between epochs resumes bit-identically, including hot windows."""
    from osprey_ray.pipelines.flagship import flagship_sql_spec

    segs, _, full = stream_data
    spec = flagship_sql_spec()
    hot = _hot_set(full, which)
    kw = dict(num_shards=4, files_per_epoch=2, hot_convs=hot, hot_block_turns=8)

    ref = StreamingJob(spec, segs, str(tmp_path / "ref"), {}, **kw)
    ref.run(); ref.finalize()
    want = _df(ref.results_table())
    want_w = ref.window_stream_table()

    out = str(tmp_path / "crash")
    j1 = StreamingJob(spec, segs, out, {}, **kw)
    j1.run(stop_after_epoch=2)
    del j1
    j2 = StreamingJob(spec, segs, out, {}, **kw)
    j2.run(resume=True)
    j2.finalize()
    got = _df(j2.results_table())
    assert len(got) == len(want)
    for k in want.columns:
        assert [_norm(x) for x in got[k]] == [_norm(x) for x in want[k]], f"column {k} differs"
    assert j2.window_stream_table().equals(want_w)


def test_resume_with_different_shard_count(stream_data, tmp_path):
    """Cluster rescale on resume: a run checkpointed at 4 shards resumes at
    8 (scale up) and at 2 (scale down) and produces bit-identical results
    and window stream — the crc32 ring is just re-dealt across the new
    shard set (restore_resharded merges every old snapshot's carry, open
    windows, pending rows and labels)."""
    segs, lmap, full = stream_data
    spec = flagship_spec()

    ref_job = StreamingJob(
        spec, segs, str(tmp_path / "ref"), lmap, num_shards=4, files_per_epoch=2
    )
    ref_job.run()
    ref_job.finalize()
    ref = _df(ref_job.results_table())
    ref_w = ref_job.window_stream_table()
    assert ref_w.num_rows

    for new_p, tag in [(8, "up"), (2, "down")]:
        out = str(tmp_path / f"rescale_{tag}")
        j1 = StreamingJob(spec, segs, out, lmap, num_shards=4, files_per_epoch=2)
        j1.run(stop_after_epoch=3)
        assert j1.last_committed_epoch() == 3
        del j1

        j2 = StreamingJob(spec, segs, out, lmap, num_shards=new_p, files_per_epoch=2)
        j2.run(resume=True)
        j2.finalize()
        got = _df(j2.results_table())
        assert len(got) == len(ref), f"rescale {tag}: row count differs"
        for k in ref.columns:
            assert [_norm(x) for x in got[k]] == [_norm(x) for x in ref[k]], (
                f"rescale {tag}: column {k} differs"
            )
        assert j2.window_stream_table().equals(ref_w), f"rescale {tag}: window stream differs"


def test_rescale_spill_seq_seeded_past_existing_files(tmp_path):
    """After restore_resharded the spill sequence must start PAST any
    spill file already on disk for this part: starting at 0 would
    os.replace a file still referenced by the prior committed manifest's
    snapshot, corrupting a resume that crashes before the first
    post-rescale manifest commit (ADVICE r3, medium)."""
    import os

    from osprey_ray.streaming.shard import StateShard

    out = tmp_path / "out"
    spill = out / "spill"
    spill.mkdir(parents=True)
    for seq in (0, 3, 17):
        (spill / f"spill-p0002-{seq:06d}.parquet").write_bytes(b"x")
    (spill / "spill-p0001-000099.parquet").write_bytes(b"x")  # other part

    cls = StateShard.__ray_metadata__.modified_class  # undecorated class
    sh = cls.__new__(cls)
    sh.out_dir = str(out)
    sh.part = 2
    assert sh._next_free_spill_seq() == 18
    sh.part = 1
    assert sh._next_free_spill_seq() == 100
    sh.part = 0  # no files for this part
    assert sh._next_free_spill_seq() == 0
    sh.out_dir = str(tmp_path / "absent")  # no spill dir at all
    assert sh._next_free_spill_seq() == 0


def test_delayed_label_streaming_kill_resume(stream_data, tmp_path):
    """delay_action_by across epoch boundaries: delayed mutations queued in
    per-conversation state must be carried by checkpoints — a crash between
    epochs resumes bit-identically (results AND the label-mutation stream),
    and the streaming output matches the batch oracle."""
    from osprey_ray.expr import col, fn
    from osprey_ray.oracle import oracle_results
    from osprey_ray.rules import (
        DeclareVerdict,
        Feature,
        HasLabel,
        LabelAdd,
        Rule,
        RuleSpec,
        WhenRules,
    )

    spec = RuleSpec(
        features=[
            Feature("IsSpamText", fn("CheckCensorized", target=col("text"), words=("free money",))),
        ],
        stateful=[HasLabel("HasDelayed", label="delayed_mark", status="added")],
        rules=[
            Rule("RuleSeed", [col("IsSpamText")]),
            Rule("RuleSaw", [col("HasDelayed")]),
        ],
        triggers=[
            # long delay so ts_eff routinely lands in a later epoch
            WhenRules(["RuleSeed"], [LabelAdd("delayed_mark", delay_action_by=1800.0)]),
            WhenRules(["RuleSaw"], [DeclareVerdict("saw_delayed")]),
        ],
    )
    spec.validate()
    segs, _, full = stream_data

    ref = StreamingJob(spec, segs, str(tmp_path / "ref"), {}, num_shards=4, files_per_epoch=2)
    ref.run(); ref.finalize()
    want = _df(ref.results_table())
    assert want["HasDelayed"].any(), "fixture never crossed the delay boundary"

    out = str(tmp_path / "crash")
    j1 = StreamingJob(spec, segs, out, {}, num_shards=4, files_per_epoch=2)
    j1.run(stop_after_epoch=2)
    del j1
    j2 = StreamingJob(spec, segs, out, {}, num_shards=4, files_per_epoch=2)
    j2.run(resume=True)
    j2.finalize()
    got = _df(j2.results_table())
    assert len(got) == len(want)
    for k in want.columns:
        assert [_norm(x) for x in got[k]] == [_norm(x) for x in want[k]], f"column {k} differs"

    # label-mutation streams byte-equal too (ts = effective instant);
    # committed files only, via the manifests (exactly-once read path)
    def lab_df(root):
        import json

        import pyarrow as pa

        files = []
        for p in sorted(glob.glob(os.path.join(root, "manifest", "epoch-*.json"))):
            for f in json.load(open(p)).get("label_outputs", []):
                if f:
                    files.append(os.path.join(root, "data", f))
        if not files:
            return pd.DataFrame()
        t = pa.concat_tables([pq.read_table(f) for f in files])
        return t.to_pandas().sort_values(["conv_id", "ts", "label"]).reset_index(drop=True)

    lw, lg = lab_df(str(tmp_path / "ref")), lab_df(out)
    assert len(lw) > 0 and lw.equals(lg)
    assert set(lw["reason"]) == {"RuleSeed"}

    # and the whole streaming run matches the batch oracle
    clean = full
    want_o = pd.DataFrame(oracle_results(clean, spec, {}))
    got_s = got[list(want_o.columns)]
    for k in want_o.columns:
        assert [_norm(x) for x in got_s[k]] == [_norm(x) for x in want_o[k]], f"oracle column {k} differs"


def test_slow_stream_retry_transparent(stream_data, tmp_path):
    """Per-stream write isolation (ref output_sink.py:46-89): a transiently
    wedged labels stream times out, the retry succeeds, and the run
    completes with output identical to a fault-free run."""
    segs, lmap, _ = stream_data
    spec = flagship_spec()
    ref = StreamingJob(spec, segs, str(tmp_path / "ref"), lmap, num_shards=2, files_per_epoch=3)
    ref.run(); ref.finalize()
    want = _df(ref.results_table())

    job = StreamingJob(
        spec, segs, str(tmp_path / "slow"), lmap, num_shards=2, files_per_epoch=3,
        stream_write_timeout_s=0.3, stream_write_retries=1,
        fault_injection={"labels": [2.0]},  # first labels write per shard hangs once
    )
    job.run(); job.finalize()
    got = _df(job.results_table())
    assert len(got) == len(want)
    for k in want.columns:
        assert [_norm(x) for x in got[k]] == [_norm(x) for x in want[k]], f"column {k} differs"


def test_wedged_stream_fails_epoch_cleanly(stream_data, tmp_path):
    """A persistently wedged labels stream must NOT stall or corrupt the
    epoch: the other streams' files still land (invisible), no manifest is
    written for the failed epoch, and a fault-free resume completes with
    bit-identical output."""
    import json

    from osprey_ray.streaming.shard import StreamWriteError  # noqa: F401

    segs, lmap, _ = stream_data
    spec = flagship_spec()
    ref = StreamingJob(spec, segs, str(tmp_path / "ref"), lmap, num_shards=2, files_per_epoch=3)
    ref.run(); ref.finalize()
    want = _df(ref.results_table())

    out = str(tmp_path / "wedge")
    j1 = StreamingJob(
        spec, segs, out, lmap, num_shards=2, files_per_epoch=3,
        stream_write_timeout_s=0.2, stream_write_retries=1,
        fault_injection={"labels": [3.0] * 50},  # every attempt hangs
    )
    with pytest.raises(Exception) as exc:
        j1.run()
    assert "StreamWriteError" in str(exc.value) or "labels" in str(exc.value)
    failed_epoch = j1.last_committed_epoch() + 1
    del j1
    # no partial manifest for the failed epoch…
    assert not os.path.exists(os.path.join(out, "manifest", f"epoch-{failed_epoch:05d}.json"))
    # …but the healthy results stream already wrote its (invisible) files
    part_files = glob.glob(os.path.join(out, "data", f"part-e{failed_epoch:05d}-*.parquet"))
    assert part_files, "healthy stream should have written despite the wedged one"

    j2 = StreamingJob(spec, segs, out, lmap, num_shards=2, files_per_epoch=3)
    j2.run(resume=True)
    j2.finalize()
    got = _df(j2.results_table())
    assert len(got) == len(want)
    for k in want.columns:
        assert [_norm(x) for x in got[k]] == [_norm(x) for x in want[k]], f"column {k} differs"


def test_warm_prestart_does_not_change_output(stream_data, tmp_path):
    # perfbench spins the shard pool up untimed via warm(); the pre-started
    # pool must be a pure latency optimization — identical results/metrics.
    segs, lmap, full = stream_data
    spec = flagship_spec()
    job = StreamingJob(
        spec, segs, str(tmp_path / "warm"), lmap, num_shards=4, files_per_epoch=3,
        allowed_lateness_s=1000.0,
    )
    job.warm()
    job.warm()  # idempotent
    job.run()
    job.finalize()
    got = _df(job.results_table())
    want = pd.DataFrame(oracle_results(full, spec, lmap))
    assert len(got) == len(want)
    for k in want.columns:
        assert [_norm(x) for x in got[k]] == [_norm(x) for x in want[k]], k


def test_streaming_jsonl_segments_match_parquet(stream_data, tmp_path):
    """The JSONL ingest path (reference parity: queue payloads are JSON
    action events) produces identical verdict output to the Parquet
    segment path, epoch for epoch."""
    segs, lmap, full = stream_data
    spec = flagship_spec()

    jdir = tmp_path / "jsegs"
    jdir.mkdir()
    jsegs = []
    for p in segs:
        df = pq.read_table(p).to_pandas()
        out = jdir / (os.path.basename(p).replace(".parquet", ".jsonl"))
        df.to_json(out, orient="records", lines=True, date_format="iso", date_unit="us")
        jsegs.append(str(out))

    ref = StreamingJob(
        spec, segs, str(tmp_path / "ref"), lmap, num_shards=4, files_per_epoch=3
    )
    ref.run()
    ref.finalize()
    jj = StreamingJob(
        spec, jsegs, str(tmp_path / "json"), lmap, num_shards=4, files_per_epoch=3
    )
    jj.run()
    jj.finalize()
    a, b = _df(ref.results_table()), _df(jj.results_table())
    assert len(a) == len(b) > 0
    for k in a.columns:
        assert [_norm(x) for x in a[k]] == [_norm(x) for x in b[k]], f"column {k}"

    # sub-file offsets are a Parquet row-group concept: JSONL segments in
    # rows_per_epoch mode must refuse loudly, not mis-plan lineage
    bad = StreamingJob(
        spec, jsegs, str(tmp_path / "bad"), lmap, num_shards=4, rows_per_epoch=500
    )
    with pytest.raises(ValueError, match="files_per_epoch"):
        bad.epochs()


# ---------------------------------------------------------------------------
# absence timers (rules.AbsenceAlert)
# ---------------------------------------------------------------------------


def _absence_spec(window_s: float = 600.0):
    from osprey_ray.expr import col
    from osprey_ray.rules import AbsenceAlert, Feature, RuleSpec

    return RuleSpec(
        features=[Feature("is_exec", col("tool") == "exec")],
        absences=[
            AbsenceAlert(
                "exec_unanswered",
                first=col("tool") == "exec",
                second=col("tool") == "mail",
                window_seconds=window_s,
            )
        ],
    )


def _absence_bruteforce(full, window_s: float = 600.0) -> set:
    """Row-at-a-time reference: (conv, a_ts_us) of every exec turn with no
    mail turn of the same conversation in (a, a+W]."""
    import pyarrow as pa

    from osprey_ray.stages.stateful import sort_and_dedup

    t = sort_and_dedup(full, {}).to_pandas()
    t["tus"] = t["ts"].astype("int64")
    W = int(window_s * 1e6)
    out = set()
    for cid, g in t.groupby("conv_id"):
        mails = sorted(g.loc[g["tool"] == "mail", "tus"].tolist())
        import bisect

        for a in g.loc[g["tool"] == "exec", "tus"]:
            a = int(a)
            i = bisect.bisect_right(mails, a)
            j = bisect.bisect_right(mails, a + W)
            if i == j:
                out.add((cid, a))
    return out


def test_absence_stream_matches_bruteforce(stream_data, tmp_path):
    """Multi-epoch streaming absence alerts == row-at-a-time recompute ==
    the batch twin."""
    import pyarrow as pa

    from osprey_ray.streaming.patterns import absence_stream_batch

    segs, lmap, full = stream_data
    spec = _absence_spec()
    job = StreamingJob(
        spec, segs, str(tmp_path / "ab"), lmap, num_shards=4, files_per_epoch=3
    )
    job.run()
    job.finalize()
    got = job.absence_stream_table()
    got_set = set(
        zip(
            got["conv_id"].to_pylist(),
            got["first_ts"].cast(pa.int64()).to_pylist(),
        )
    )
    want = _absence_bruteforce(full)
    assert got_set == want and got.num_rows == len(want)
    assert (got["pattern"].to_pylist() or ["exec_unanswered"])[0] == "exec_unanswered"
    # deadline column = first_ts + W everywhere
    f = got["first_ts"].cast(pa.int64()).to_numpy()
    d = got["deadline"].cast(pa.int64()).to_numpy()
    assert (d - f == 600_000_000).all()
    # batch twin agrees bit-for-bit on the same keys
    bt = absence_stream_batch(full, spec.absences)
    bt_set = set(
        zip(bt["conv_id"].to_pylist(), bt["first_ts"].cast(pa.int64()).to_pylist())
    )
    assert bt_set == want


def test_absence_cross_epoch_cancellation_and_boundaries(ray_session, tmp_path):
    """A disarming B released in a later epoch cancels; B at exactly a+W
    cancels; B at a+W+1us does not; emission only after the watermark
    passes the deadline."""
    import pyarrow as pa
    import pyarrow.parquet as pq_

    from osprey_ray.streaming.patterns import absence_stream_batch

    W = 600.0
    US = 1_000_000
    base = 1_700_000_000 * US

    def turn(cid, idx, ts_us, tool):
        return {
            "conv_id": cid, "turn_idx": idx, "ts": ts_us, "tool": tool,
            "text": "x", "role": "tool",
        }

    rows = [
        # c1: exec at t0, mail at exactly t0+W (same epoch) -> disarmed
        turn("c1", 0, base, "exec"),
        turn("c1", 1, base + int(W * US), "mail"),
        # c2: exec at t0, mail at t0+W+1us -> fires
        turn("c2", 0, base, "exec"),
        turn("c2", 1, base + int(W * US) + 1, "mail"),
        # c3: exec at t0 (epoch 1), mail at t0+300s lands in epoch 2 -> disarmed
        turn("c3", 0, base, "exec"),
        turn("c3", 1, base + 300 * US, "mail"),
        # c4: exec with no mail at all -> fires
        turn("c4", 0, base + 50 * US, "exec"),
    ]
    t = pa.table(
        {
            "conv_id": pa.array([r["conv_id"] for r in rows], pa.string()),
            "turn_idx": pa.array([r["turn_idx"] for r in rows], pa.int32()),
            "ts": pa.array([r["ts"] for r in rows], pa.int64()).cast(pa.timestamp("us")),
            "role": pa.array([r["role"] for r in rows], pa.string()),
            "tool": pa.array([r["tool"] for r in rows], pa.string()),
            "text": pa.array([r["text"] for r in rows], pa.string()),
        }
    )
    # epoch 1 = everything at/below base+100s; epoch 2 = the rest
    cut = base + 100 * US
    seg_dir = tmp_path / "segs"
    seg_dir.mkdir()
    import pyarrow.compute as pc_

    e1 = t.filter(pc_.less_equal(t["ts"].cast(pa.int64()), cut))
    e2 = t.filter(pc_.greater(t["ts"].cast(pa.int64()), cut))
    pq_.write_table(e1, str(seg_dir / "seg-000.parquet"))
    pq_.write_table(e2, str(seg_dir / "seg-001.parquet"))

    spec = _absence_spec(W)
    job = StreamingJob(
        spec,
        [str(seg_dir / "seg-000.parquet"), str(seg_dir / "seg-001.parquet")],
        str(tmp_path / "out"),
        {},
        num_shards=2,
        files_per_epoch=1,
        allowed_lateness_s=0.0,
    )
    m = job.run()
    # before finalize: watermark = max seen ts - lateness; c4's deadline
    # (base+650s) and c2's (base+600s) have passed by epoch 2's watermark
    mid = job.absence_stream_table()
    job.finalize()
    got = job.absence_stream_table()
    fired = set(got["conv_id"].to_pylist())
    assert fired == {"c2", "c4"}
    assert set(mid["conv_id"].to_pylist()) <= fired
    # batch twin agrees
    bt = absence_stream_batch(t, spec.absences)
    assert set(bt["conv_id"].to_pylist()) == {"c2", "c4"}


def test_absence_kill_resume_bit_identical(stream_data, tmp_path):
    """Armed timers survive checkpoint/restore: a killed+resumed run emits
    the byte-identical absence stream."""
    segs, lmap, _ = stream_data
    spec = _absence_spec()

    ref = StreamingJob(spec, segs, str(tmp_path / "ref"), lmap, num_shards=4, files_per_epoch=2)
    ref.run()
    ref.finalize()
    want = ref.absence_stream_table()

    out = str(tmp_path / "crash")
    j1 = StreamingJob(spec, segs, out, lmap, num_shards=4, files_per_epoch=2)
    j1.run(stop_after_epoch=3)
    del j1
    j2 = StreamingJob(spec, segs, out, lmap, num_shards=4, files_per_epoch=2)
    j2.run(resume=True)
    j2.finalize()
    got = j2.absence_stream_table()
    assert got.equals(want)


def test_absence_reshard_resume(stream_data, tmp_path):
    """Resume under a different shard count re-deals armed timers by conv
    and still emits the identical alert set."""
    segs, lmap, _ = stream_data
    spec = _absence_spec()
    ref = StreamingJob(spec, segs, str(tmp_path / "ref8"), lmap, num_shards=4, files_per_epoch=2)
    ref.run()
    ref.finalize()
    want = ref.absence_stream_table()

    out = str(tmp_path / "reshard")
    j1 = StreamingJob(spec, segs, out, lmap, num_shards=4, files_per_epoch=2)
    j1.run(stop_after_epoch=3)
    del j1
    j2 = StreamingJob(spec, segs, out, lmap, num_shards=8, files_per_epoch=2)
    j2.run(resume=True)
    j2.finalize()
    got = j2.absence_stream_table()
    assert got.equals(want)


def test_absence_hot_convs_rejected(stream_data, tmp_path):
    segs, lmap, _ = stream_data
    with pytest.raises(NotImplementedError, match="hot-conversation"):
        StreamingJob(
            _absence_spec(), segs, str(tmp_path / "x"), lmap,
            num_shards=2, hot_convs={"conv-1"},
        )


def test_label_spec_hot_convs_rejected(stream_data, tmp_path):
    """A label spec with a hot set raises instead of silently routing every
    conversation whole (label feedback is sequential per conversation)."""
    segs, lmap, _ = stream_data
    with pytest.raises(ValueError, match="label"):
        StreamingJob(
            flagship_spec(), segs, str(tmp_path / "x"), lmap,
            num_shards=2, hot_convs={"conv-1"},
        )


# ---------------------------------------------------------------------------
# stream-stream pair emission (rules.FollowedBy)
# ---------------------------------------------------------------------------


def _follow_spec(window_s: float = 600.0):
    from osprey_ray.expr import col
    from osprey_ray.rules import FollowedBy, RuleSpec

    return RuleSpec(
        follows=[
            FollowedBy(
                "exec_then_mail",
                first=col("tool") == "exec",
                second=col("tool") == "mail",
                window_seconds=window_s,
            )
        ],
    )


def _pairs_bruteforce(full, window_s: float = 600.0) -> list:
    """Row-at-a-time reference: every (conv, a_ts, b_ts) with a exec turn,
    b mail turn of the same conversation, b in (a, a+W] — multiset."""
    from osprey_ray.stages.stateful import sort_and_dedup

    t = sort_and_dedup(full, {}).to_pandas()
    t["tus"] = t["ts"].astype("int64")
    W = int(window_s * 1e6)
    out = []
    for cid, g in t.groupby("conv_id"):
        mails = g.loc[g["tool"] == "mail", "tus"].tolist()
        for a in g.loc[g["tool"] == "exec", "tus"]:
            a = int(a)
            for b in mails:
                b = int(b)
                if a < b <= a + W:
                    out.append((cid, a, b))
    return sorted(out)


def test_pairs_stream_matches_bruteforce(stream_data, tmp_path):
    """Multi-epoch streaming pair emissions == row-at-a-time interval
    join (multiset, including duplicate-ts multiplicities)."""
    import pyarrow as pa

    segs, lmap, full = stream_data
    job = StreamingJob(
        _follow_spec(), segs, str(tmp_path / "fb"), lmap,
        num_shards=4, files_per_epoch=3,
    )
    job.run()
    job.finalize()
    got = job.pairs_stream_table()
    got_list = sorted(
        zip(
            got["conv_id"].to_pylist(),
            got["first_ts"].cast(pa.int64()).to_pylist(),
            got["second_ts"].cast(pa.int64()).to_pylist(),
        )
    )
    assert got_list == _pairs_bruteforce(full)
    assert set(got["pattern"].to_pylist()) <= {"exec_then_mail"}


def test_pairs_kill_resume_bit_identical(stream_data, tmp_path):
    """Armed pair state snapshots with the shard state: kill after epoch 2,
    resume, and the committed pairs stream is bit-identical to the
    uninterrupted run."""
    segs, lmap, full = stream_data
    spec = _follow_spec()
    ref_job = StreamingJob(
        spec, segs, str(tmp_path / "ref"), lmap, num_shards=4, files_per_epoch=2
    )
    ref_job.run()
    ref_job.finalize()
    ref = ref_job.pairs_stream_table()

    out = str(tmp_path / "crash")
    j1 = StreamingJob(spec, segs, out, lmap, num_shards=4, files_per_epoch=2)
    j1.run(stop_after_epoch=2)
    del j1

    j2 = StreamingJob(spec, segs, out, lmap, num_shards=4, files_per_epoch=2)
    j2.run(resume=True)
    j2.finalize()
    got = j2.pairs_stream_table()
    assert got.equals(ref)


def test_pairs_rescale_on_resume(stream_data, tmp_path):
    """Resuming a killed FollowedBy run under a DIFFERENT shard count
    re-deals the armed pair state and still reproduces the reference
    pairs stream exactly."""
    segs, lmap, full = stream_data
    spec = _follow_spec()
    ref_job = StreamingJob(
        spec, segs, str(tmp_path / "ref"), lmap, num_shards=4, files_per_epoch=2
    )
    ref_job.run()
    ref_job.finalize()
    ref = ref_job.pairs_stream_table()

    out = str(tmp_path / "crash")
    j1 = StreamingJob(spec, segs, out, lmap, num_shards=4, files_per_epoch=2)
    j1.run(stop_after_epoch=2)
    del j1

    j2 = StreamingJob(spec, segs, out, lmap, num_shards=8, files_per_epoch=2)
    j2.run(resume=True)
    j2.finalize()
    got = j2.pairs_stream_table()
    assert got.equals(ref)


def test_late_side_output_off_by_default(stream_data, tmp_path):
    """Without late_output=True no late files are written and the stream
    accessor returns an empty, correctly-typed table; the late_dropped
    metric is unchanged either way."""
    import glob as _glob

    segs, lmap, full = stream_data
    spec = flagship_spec()
    job = StreamingJob(
        spec, segs, str(tmp_path / "x"), lmap, num_shards=4,
        files_per_epoch=2, allowed_lateness_s=60,
    )
    m_off = job.run()
    job.finalize()
    assert job.late_stream_table().num_rows == 0
    assert not _glob.glob(str(tmp_path / "x" / "data" / "late-*.parquet"))

    job2 = StreamingJob(
        spec, segs, str(tmp_path / "y"), lmap, num_shards=4,
        files_per_epoch=2, allowed_lateness_s=60, late_output=True,
    )
    m_on = job2.run()
    job2.finalize()
    n_dropped = sum(m["late_dropped"] for m in m_on)
    assert job2.late_stream_table().num_rows == n_dropped
    assert [m["late_dropped"] for m in m_on] == [m["late_dropped"] for m in m_off]


def test_gc_checkpoints_and_fsck(stream_data, tmp_path):
    """gc_checkpoints removes every snapshot except the live recovery
    point, fsck stays clean, and resume after GC is still bit-identical;
    deleting a referenced file makes fsck report it."""
    import glob as _glob
    import os as _os

    segs, lmap, full = stream_data
    spec = flagship_spec()
    ref_job = StreamingJob(
        spec, segs, str(tmp_path / "ref"), lmap, num_shards=4, files_per_epoch=2
    )
    ref_job.run()
    ref_job.finalize()
    ref = _df(ref_job.results_table())

    out = str(tmp_path / "gc")
    j1 = StreamingJob(spec, segs, out, lmap, num_shards=4, files_per_epoch=2)
    j1.run(stop_after_epoch=3)
    n_before = len(_glob.glob(str(tmp_path / "gc" / "checkpoint" / "*.pkl")))
    removed = j1.gc_checkpoints()
    assert removed > 0
    kept = _glob.glob(str(tmp_path / "gc" / "checkpoint" / "state-*.pkl"))
    assert len(kept) == 4  # one live snapshot set (4 shards)
    assert n_before == removed + len(kept)
    chk = j1.fsck()
    assert chk["ok"], chk["problems"]
    del j1

    j2 = StreamingJob(spec, segs, out, lmap, num_shards=4, files_per_epoch=2)
    assert j2.fsck()["ok"]
    j2.run(resume=True)
    j2.finalize()
    got = _df(j2.results_table())
    assert len(got) == len(ref)
    for k in ref.columns:
        assert [_norm(x) for x in got[k]] == [_norm(x) for x in ref[k]]
    # corrupt: remove one committed output file -> fsck flags it
    victim = _glob.glob(str(tmp_path / "gc" / "data" / "part-*.parquet"))[0]
    _os.remove(victim)
    bad = j2.fsck()
    assert not bad["ok"] and any("missing outputs file" in p for p in bad["problems"])


def test_state_ttl_eviction_invisible_and_bounded(stream_data, tmp_path):
    """With a time-bounded spec, state_ttl_s eviction produces
    bit-identical output while carrying strictly fewer conversations;
    incompatible specs are rejected loudly."""
    import pytest as _pytest

    import ray as _ray

    from osprey_ray.expr import col, fn
    from osprey_ray.rules import (
        Feature, IncrementWindow, KvCache, RuleSpec, SequenceMatch,
        SessionWindow, TumblingCount,
    )

    segs, lmap, full = stream_data
    spec = RuleSpec(
        features=[Feature("is_tool", col("role") == "tool")],
        stateful=[
            IncrementWindow("vel", when=col("is_tool"), window_seconds=300),
            TumblingCount("hourly", when=col("is_tool"), bucket_seconds=3600),
        ],
    )
    ref = StreamingJob(
        spec, segs, str(tmp_path / "ref"), {}, num_shards=4,
        files_per_epoch=2, allowed_lateness_s=600,
    )
    ref.run()
    ref.finalize()
    ref_out = _df(ref.results_table())
    ref_state = sum(_ray.get([s.state_size.remote() for s in ref.shards]))

    ev = StreamingJob(
        spec, segs, str(tmp_path / "ev"), {}, num_shards=4,
        files_per_epoch=2, allowed_lateness_s=600, state_ttl_s=3600,
    )
    ev.run()
    ev.finalize()
    ev_out = _df(ev.results_table())
    ev_state = sum(_ray.get([s.state_size.remote() for s in ev.shards]))

    assert len(ev_out) == len(ref_out)
    for k in ref_out.columns:
        assert [_norm(x) for x in ev_out[k]] == [_norm(x) for x in ref_out[k]], k
    assert ev_state < ref_state  # idle conversations actually evicted

    # incompatible specs rejected with clear messages
    for bad, msg in [
        (RuleSpec(stateful=[SequenceMatch("sq", col("role") == "tool",
                                          col("role") == "user", 5)]),
         "turn count"),
        (RuleSpec(stateful=[SessionWindow("sess", gap_seconds=1800)]),
         "lifetime"),
        (RuleSpec(stateful=[KvCache("kv", set_when=col("role") == "tool",
                                    value=col("text"))]),
         "ttl_seconds"),
    ]:
        with _pytest.raises(ValueError, match=msg):
            StreamingJob(bad, segs, str(tmp_path / "x"), {}, state_ttl_s=7200)
    # too-small TTL rejected
    with _pytest.raises(ValueError, match="too small"):
        StreamingJob(spec, segs, str(tmp_path / "y"), {},
                     allowed_lateness_s=600, state_ttl_s=60)


def test_committed_dataset_excludes_orphan_files(stream_data, tmp_path):
    """The lazy exactly-once reader sees manifest-referenced files ONLY:
    an orphan parquet dropped into data/ (a failed epoch's leftovers) is
    invisible, and the streamed rows equal the driver-side table path."""
    import pyarrow.parquet as pq_

    segs, lmap, full = stream_data
    spec = flagship_spec()
    job = StreamingJob(
        spec, segs, str(tmp_path / "cd"), lmap, num_shards=4, files_per_epoch=2
    )
    job.run()
    job.finalize()
    ref = job.results_table()
    # drop an orphan file that no manifest references
    orphan = ref.slice(0, 5)
    pq_.write_table(orphan, str(tmp_path / "cd" / "data" / "part-e99999-p0000.parquet"))
    ds = job.committed_dataset("results")
    assert ds.count() == ref.num_rows  # orphan invisible
    got = ds.to_arrow_refs()
    import ray as _ray

    import pyarrow as pa_

    tbl = pa_.concat_tables(
        [t for t in _ray.get(got) if t.num_rows], promote_options="default"
    ).sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    assert tbl.num_rows == ref.num_rows
    assert tbl["conv_id"].to_pylist() == ref["conv_id"].to_pylist()
    # pairs/late streams go through the same contract
    assert job.committed_dataset("pairs").count() == 0  # no FollowedBy in spec
    # empty and non-empty cases are SCHEMA-IDENTICAL (ADVICE r4): an empty
    # stream's dataset carries the stream's real schema, and the
    # spec-dependent results schema matches the committed files exactly
    from osprey_ray.streaming.patterns import PAIR_SCHEMA

    assert job.committed_dataset("pairs").schema().base_schema == PAIR_SCHEMA
    fresh = StreamingJob(
        spec, segs, str(tmp_path / "fresh"), lmap, num_shards=4, files_per_epoch=2
    )
    assert fresh.committed_dataset("results").schema().base_schema == ref.schema
    assert fresh.committed_dataset("late").schema().names == ["conv_id", "turn_idx", "ts"]


def test_follow_and_absence_together_and_hot_swap(stream_data, tmp_path):
    """FollowedBy and AbsenceAlert coexist in one spec (their streams
    partition the B-space: pairs = answered A's, alerts = unanswered A's),
    and a hot-swap that REMOVES the FollowedBy pattern prunes its armed
    state mid-run (the _apply_spec pruning path) — post-swap epochs emit
    no new pairs."""
    import json as _json

    import pyarrow as pa

    from osprey_ray.expr import col
    from osprey_ray.rules import AbsenceAlert, FollowedBy, RuleSpec

    segs, lmap, full = stream_data
    W = 600.0
    both = RuleSpec(
        absences=[AbsenceAlert("un", first=col("tool") == "exec",
                               second=col("tool") == "mail", window_seconds=W)],
        follows=[FollowedBy("pair", first=col("tool") == "exec",
                            second=col("tool") == "mail", window_seconds=W)],
    )
    job = StreamingJob(
        both, segs, str(tmp_path / "both"), {}, num_shards=4, files_per_epoch=3
    )
    job.run()
    job.finalize()
    pairs = job.pairs_stream_table()
    alerts = job.absence_stream_table()
    # every exec turn either pairs with >=1 mail (pairs stream) or fires
    # an absence alert — never both, covering all exec turns exactly
    paired_a = set(zip(pairs["conv_id"].to_pylist(),
                       pairs["first_ts"].cast(pa.int64()).to_pylist()))
    alerted_a = set(zip(alerts["conv_id"].to_pylist(),
                        alerts["first_ts"].cast(pa.int64()).to_pylist()))
    assert paired_a.isdisjoint(alerted_a)
    execs = {(c, a) for (c, a, _b) in _pairs_bruteforce(full, W)}
    assert paired_a == execs
    assert alerted_a == _absence_bruteforce(full, W)

    # hot-swap: drop the FollowedBy pattern at epoch 2 — armed state pruned
    no_follow = RuleSpec(
        absences=[AbsenceAlert("un", first=col("tool") == "exec",
                               second=col("tool") == "mail", window_seconds=W)],
    )
    j2 = StreamingJob(
        both, segs, str(tmp_path / "swap"), {}, num_shards=4,
        files_per_epoch=3, spec_updates={2: no_follow},
    )
    j2.run()
    j2.finalize()
    for e in range(j2.last_committed_epoch() + 1):
        m = _json.load(open(j2._manifest_path(e)))
        if e >= 2:
            assert not any(m.get("pairs_outputs") or []), f"epoch {e} emitted pairs after swap"
    # the absence stream is unaffected by the swap
    assert j2.absence_stream_table().num_rows == alerts.num_rows


# ---------------------------------------------------------------------------
# recovery-matrix red team (r5: crash mid-finalize, changed planning params,
# manually deleted snapshot)
# ---------------------------------------------------------------------------


def test_crash_during_finalize_resume_bit_identical(stream_data, tmp_path):
    """Crash AFTER finalize() flushed the shards but BEFORE its manifest
    committed: the flush epoch's outputs exist on disk but are invisible
    (no manifest), so a resumed job re-runs the flush idempotently and
    the final committed results are bit-identical to an uninterrupted
    run."""
    segs, lmap, full = stream_data
    spec = flagship_spec()

    ref = StreamingJob(
        spec, segs, str(tmp_path / "ref"), lmap, num_shards=4, files_per_epoch=2
    )
    ref.run()
    ref.finalize()
    want = _df(ref.results_table())

    out = str(tmp_path / "crash")
    j1 = StreamingJob(spec, segs, out, lmap, num_shards=4, files_per_epoch=2)
    j1.run()
    # crash point: shards processed the +inf watermark flush and wrote
    # their final files, but the manifest never lands
    j1._commit = lambda *a, **kw: (_ for _ in ()).throw(
        RuntimeError("crash between flush and manifest commit")
    )
    import pytest as _pytest

    with _pytest.raises(RuntimeError, match="crash between flush"):
        j1.finalize()
    last_before = j1.last_committed_epoch()
    del j1

    j2 = StreamingJob(spec, segs, out, lmap, num_shards=4, files_per_epoch=2)
    assert j2.last_committed_epoch() == last_before  # flush stayed invisible
    j2.run(resume=True)
    j2.finalize()
    got = _df(j2.results_table())
    assert len(got) == len(want) > 0
    for k in want.columns:
        assert [_norm(x) for x in got[k]] == [_norm(x) for x in want[k]], f"column {k}"


def test_resume_with_changed_files_per_epoch_rejected(stream_data, tmp_path):
    """The committed manifests pin epoch boundaries; resuming with a
    different files_per_epoch (or a truncated segment list) must be
    rejected loudly, not silently replay mis-aligned slices."""
    import pytest as _pytest

    segs, lmap, _ = stream_data
    spec = flagship_spec()
    out = str(tmp_path / "out")
    j1 = StreamingJob(spec, segs, out, lmap, num_shards=4, files_per_epoch=2)
    j1.run(stop_after_epoch=2)
    del j1

    j2 = StreamingJob(spec, segs, out, lmap, num_shards=4, files_per_epoch=3)
    with _pytest.raises(ValueError, match="epoch-plan mismatch"):
        j2.run(resume=True)

    j3 = StreamingJob(spec, segs[:2], out, lmap, num_shards=4, files_per_epoch=2)
    with _pytest.raises(ValueError, match="epoch-plan mismatch"):
        j3.run(resume=True)

    # unchanged params still resume fine
    j4 = StreamingJob(spec, segs, out, lmap, num_shards=4, files_per_epoch=2)
    j4.run(resume=True)
    j4.finalize()
    assert j4.last_committed_epoch() >= 2


def test_fsck_flags_deleted_snapshot(stream_data, tmp_path):
    """Manually deleting a snapshot file of the LIVE recovery point makes
    fsck report it before a resume would fail on it."""
    import glob as _glob
    import os as _os

    segs, lmap, _ = stream_data
    spec = flagship_spec()
    out = str(tmp_path / "out")
    j = StreamingJob(spec, segs, out, lmap, num_shards=4, files_per_epoch=2)
    j.run(stop_after_epoch=2)
    assert j.fsck()["ok"]
    victim = sorted(_glob.glob(str(tmp_path / "out" / "checkpoint" / "state-*.pkl")))[-1]
    _os.remove(victim)
    bad = j.fsck()
    assert not bad["ok"]
    assert any("missing snapshot" in p for p in bad["problems"]), bad["problems"]


def test_fsck_flags_truncated_snapshot(stream_data, tmp_path):
    """A live snapshot that is present but truncated fails fsck (it would
    fail at resume) instead of passing the existence check."""
    import glob as _glob

    segs, lmap, _ = stream_data
    j = StreamingJob(flagship_spec(), segs, str(tmp_path / "out"), lmap,
                     num_shards=4, files_per_epoch=2)
    j.run(stop_after_epoch=2)
    assert j.fsck()["ok"]
    victim = sorted(_glob.glob(str(tmp_path / "out" / "checkpoint" / "state-*.pkl")))[-1]
    with open(victim, "r+b") as f:
        f.truncate(os.path.getsize(victim) // 2)
    bad = j.fsck()
    assert not bad["ok"]
    assert f"recovery point e2: unreadable snapshot {victim}" in bad["problems"], bad["problems"]


@pytest.mark.parametrize("interval", [1, 3])
def test_manifest_records_snapshot_cost(stream_data, tmp_path, interval):
    """Epochs that snapshot record the snapshot bytes (summed over shards)
    and seconds (slowest shard); the others record null."""
    segs, lmap, _ = stream_data
    j = StreamingJob(flagship_spec(), segs, str(tmp_path / "out"), lmap, num_shards=4,
                     files_per_epoch=2, checkpoint_interval=interval)
    j.run()
    assert len(j.metrics) >= 4
    for m in j.metrics:
        man = j._manifest(m["epoch"])
        assert man["snapshot_bytes"] == m["snapshot_bytes"]
        if m["epoch"] % interval == interval - 1:
            assert man["snapshot_bytes"] == sum(os.path.getsize(p) for p in man["snapshots"])
            assert 0 <= man["snapshot_s"] <= man["wall_s"]
        else:
            assert not man["snapshots"]
            assert man["snapshot_bytes"] is None and man["snapshot_s"] is None


def test_feature_adding_swap_schema_evolution(stream_data, tmp_path):
    """A hot-swap that ADDS features mid-run (the dynamic ALTER ADD COLUMN
    case): epochs before the swap lack the new columns, results_table()
    promotes them to typed nulls, committed_dataset() groups files by
    footer schema and unions by name (deterministic — not read_parquet's
    undefined mixed-schema behavior), and kill+resume ACROSS the swap
    stays bit-identical."""
    from osprey_ray.expr import col, fn
    from osprey_ray.rules import DeclareVerdict, Feature, Rule, RuleSpec, WhenRules

    def spec_a():
        s = RuleSpec(
            features=[Feature("TextLen", fn("StringLength", target=col("text")))],
            rules=[Rule("RuleLong", [col("TextLen")])],
            triggers=[WhenRules(["RuleLong"], [DeclareVerdict("long")])],
        )
        s.validate()
        return s

    def spec_b():
        s = RuleSpec(
            features=[
                Feature("TextLen", fn("StringLength", target=col("text"))),
                Feature("HasHello", fn("StringContains", target=col("text"), substring="hello")),
            ],
            rules=[Rule("RuleLong", [col("TextLen")]), Rule("RuleHello", [col("HasHello")])],
            triggers=[
                WhenRules(["RuleLong"], [DeclareVerdict("long")]),
                WhenRules(["RuleHello"], [DeclareVerdict("greet")]),
            ],
        )
        s.validate()
        return s

    segs, _, _ = stream_data
    K = 3
    kw = dict(num_shards=4, files_per_epoch=2, spec_updates={K: spec_b()})

    ref = StreamingJob(spec_a(), segs, str(tmp_path / "ref"), {}, **kw)
    ref.run()
    ref.finalize()
    t = ref.results_table()
    # union schema with typed nulls exactly on pre-swap rows
    assert {"HasHello", "RuleHello"} <= set(t.column_names)
    assert 0 < t["HasHello"].null_count < t.num_rows
    pre_null = t.to_pandas()
    swap_files = ref.committed_files("results")
    import json

    first_b_epoch_ts = None
    for e in range(ref.last_committed_epoch() + 1):
        m = json.load(open(ref._manifest_path(e)))
        if m.get("ruleset_hash") == spec_b().content_hash() and first_b_epoch_ts is None:
            first_b_epoch_ts = e
    assert first_b_epoch_ts is not None and len(swap_files) > 2

    # committed_dataset: deterministic union-by-name, row-identical to
    # results_table
    df = (
        ref.committed_dataset("results")
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)
    )
    assert sorted(df.columns) == sorted(pre_null.columns)
    assert len(df) == len(pre_null)
    assert int(df["HasHello"].isna().sum()) == t["HasHello"].null_count

    # kill AT the swap boundary, resume with the same schedule
    out = str(tmp_path / "crash")
    j1 = StreamingJob(spec_a(), segs, out, {}, **kw)
    j1.run(stop_after_epoch=K)
    del j1
    j2 = StreamingJob(spec_a(), segs, out, {}, **kw)
    j2.run(resume=True)
    j2.finalize()
    got = j2.results_table().to_pandas()
    want = pre_null
    got = got[want.columns].sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    want = want.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    for k in want.columns:
        a = [list(v) if isinstance(v, np.ndarray) else v for v in got[k]]
        b = [list(v) if isinstance(v, np.ndarray) else v for v in want[k]]
        assert [x if x == x else None for x in a] == [x if x == x else None for x in b], k


def test_manifest_watermark_lag_is_measured(stream_data, tmp_path):
    """Each manifest's ``watermark_lag_s`` is the newest event ts in the
    input files read through its epoch minus its watermark, in seconds;
    the flush epoch's is null."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from osprey_ray.pipelines.flagship import flagship_sql_spec

    segs, _, _ = stream_data
    j = StreamingJob(flagship_sql_spec(), segs, str(tmp_path / "out"), {}, num_shards=2,
                     files_per_epoch=2)
    j.run()
    j.finalize()
    flush = j.last_committed_epoch()
    newest = np.iinfo(np.int64).min
    for e in range(flush):
        m = j._manifest(e)
        assert m["input_files"]
        for f in m["input_files"]:
            newest = max(newest, pc.max(pq.read_table(f, columns=["ts"])["ts"].cast(pa.int64())).as_py())
        assert m["watermark_lag_s"] == (newest - m["watermark"]) / 1e6
    assert j._manifest(flush)["watermark_lag_s"] is None


def test_uncommitted_results_dataset_has_results_schema(ray_session, tmp_path):
    """A kitchen_sink_spec job that has committed nothing reads its results
    stream as an empty dataset with the schema its result files get."""
    import pyarrow as pa

    from osprey_ray.datagen import generate_transcripts
    from osprey_ray.pipelines.flagship import kitchen_sink_spec
    from osprey_ray.stages.stateful import eval_released, split_rules
    from osprey_ray.state.labels import LabelStore

    spec = kitchen_sink_spec()
    j = StreamingJob(spec, [], str(tmp_path / "out"), {}, num_shards=1)
    rows = j.stage1(generate_transcripts(20, seed=1).drop_columns(["_arrival_us"]))
    out, _ = eval_released(rows, spec, split_rules(spec), {}, LabelStore(), {})
    ds = j.committed_dataset("results")
    assert ds.count() == 0
    assert pa.schema(ds.schema().base_schema).equals(out.schema)


def test_stream_schemas_match_committed_files(stream_data, tmp_path):
    """The declared schema of the windows, labels and late streams is the
    footer schema of every committed file of that stream."""
    segs, lmap, _ = stream_data
    job = StreamingJob(flagship_spec(), segs, str(tmp_path / "out"), lmap, num_shards=2,
                       files_per_epoch=3, allowed_lateness_s=60, late_output=True)
    job.run()
    job.finalize()
    for kind in ("windows", "labels", "late"):
        files = job.committed_files(kind)
        assert files, f"no committed {kind} file"
        for f in files:
            assert pq.read_schema(f).equals(job._stream_schema(kind)), f
