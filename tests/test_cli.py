"""CLI runners drive a ruleset over parquet: `python -m osprey_ray` (batch)
and `python -m osprey_ray.streaming.run` (streaming)."""

import glob

import pyarrow.parquet as pq


def test_cli_batch_run(ray_session, tmp_path):
    from osprey_ray.__main__ import main
    from osprey_ray.datagen import ensure_dataset

    d = ensure_dataset(2_000, seed=11, root=str(tmp_path / "data"))
    rc = main(
        [
            "--rules", "examples/rules/main.sml",
            "--input", d + "/batch",
            "--labels", d + "/label_events.parquet",
            "--output", str(tmp_path / "out"),
            "--num-partitions", "8",
        ]
    )
    assert rc == 0
    res_files = glob.glob(str(tmp_path / "out" / "results" / "*.parquet"))
    v_files = glob.glob(str(tmp_path / "out" / "verdicts" / "*.parquet"))
    assert res_files and v_files
    res = pq.read_table(res_files[0])
    assert {"conv_id", "turn_idx", "__verdicts"} <= set(res.schema.names)
    v = pq.ParquetDataset(str(tmp_path / "out" / "verdicts")).read()
    assert {"conv_id", "turn_idx", "__verdicts"} <= set(v.schema.names)
    assert all(len(x) > 0 for x in v["__verdicts"].to_pylist())  # fired only


def test_cli_rejects_bad_ruleset(ray_session, tmp_path, capsys):
    from osprey_ray.__main__ import main

    bad = tmp_path / "bad.sml"
    bad.write_text("X = Rule(when_all=[Unknown], description='x')\n")
    rc = main(
        ["--rules", str(bad), "--input", "/nonexistent", "--output", str(tmp_path / "o")]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err

    from osprey_ray.streaming.run import main as stream_main

    rc = stream_main(["--rules", str(bad), "--input", "/nonexistent", "--out", str(tmp_path / "s")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_streaming_run(ray_session, tmp_path):
    from osprey_ray.datagen import ensure_dataset
    from osprey_ray.streaming.run import main

    d = ensure_dataset(2_000, seed=11, root=str(tmp_path / "data"))
    rc = main(
        [
            "--rules", "examples/rules/main.sml",
            "--input", d + "/stream",
            "--label-events", d + "/label_events.parquet",
            "--out", str(tmp_path / "sout"),
            "--shards", "8",
            "--files-per-epoch", "2",
        ]
    )
    assert rc == 0
    import glob

    assert glob.glob(str(tmp_path / "sout" / "manifest" / "*"))
    assert glob.glob(str(tmp_path / "sout" / "data" / "**" / "*.parquet"), recursive=True)


def test_cli_query_runner(ray_session, capsys):
    from osprey_ray.__main__ import main

    assert main(["--query", "list"]) == 0
    names = capsys.readouterr().out.split()
    assert "lineitem_agg" in names and "line_dedup" in names

    assert main(["--query", "lineitem_agg", "--sf-dir", "/root/testdata/sf0.001"]) == 0
    out = capsys.readouterr().out
    assert "[6 rows]" in out

    assert main(["--query", "nope", "--sf-dir", "x"]) == 1


def test_cli_query_writes_parquet(ray_session, tmp_path, capsys):
    import pyarrow.parquet as pq

    from osprey_ray.__main__ import main

    assert main(
        ["--query", "doc_tokens", "--sf-dir", "/root/testdata/sf0.001",
         "--output", str(tmp_path)]
    ) == 0
    t = pq.read_table(str(tmp_path / "doc_tokens"))
    assert t.num_rows == 500


def test_read_transcripts_jsonl_matches_parquet(ray_session, tmp_path):
    """The JSONL ingest path yields the identical table (schema and
    rows) as the Parquet path, and the flagship pipeline over it is
    byte-identical."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from osprey_ray.datagen import ensure_dataset
    from osprey_ray.io import TRANSCRIPT_SCHEMA, read_parquet_clean, read_transcripts_jsonl
    from osprey_ray.pipelines.flagship import (
        flagship_spec,
        label_events_map,
        run_batch,
    )

    d = ensure_dataset(2_000, seed=7, root=str(tmp_path / "data"))
    src = f"{d}/batch/part-0000.parquet"
    want = pq.read_table(src).cast(TRANSCRIPT_SCHEMA)
    jl = tmp_path / "turns.jsonl"
    want.to_pandas().to_json(
        jl, orient="records", lines=True, date_format="iso", date_unit="us"
    )

    got_ds = read_transcripts_jsonl(str(jl))
    got = got_ds.to_arrow_refs()
    import ray as _ray

    got = pa.concat_tables([t for t in _ray.get(got)]).cast(TRANSCRIPT_SCHEMA)
    key = ["conv_id", "turn_idx", "ts", "text"]
    gp = got.to_pandas().sort_values(key).reset_index(drop=True)
    wp = want.to_pandas().sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(gp, wp)

    lmap = label_events_map(pq.read_table(f"{d}/label_events.parquet"))
    spec = flagship_spec()
    a = run_batch(read_parquet_clean(src), spec, lmap, num_partitions=4).to_pandas()
    b = run_batch(read_transcripts_jsonl(str(jl)), spec, lmap, num_partitions=4).to_pandas()
    srt = ["conv_id", "turn_idx"]
    pd.testing.assert_frame_equal(
        a.sort_values(srt).reset_index(drop=True),
        b.sort_values(srt).reset_index(drop=True),
    )


def test_job_submit_runner_with_sml_stream_patterns(ray_session, tmp_path):
    """The ray-job-submit runner (streaming.run) accepts a root SML file —
    including stream-emission patterns — plus --late-output, and commits
    pairs/absence/late streams through the normal manifests."""
    import glob
    import json

    from osprey_ray.datagen import ensure_dataset
    from osprey_ray.streaming.run import main

    d = ensure_dataset(2_000, seed=11, root=str(tmp_path / "data"))
    rc = main(
        [
            "--input", d + "/stream",
            "--out", str(tmp_path / "out"),
            "--rules", "examples/rules/streams.sml",
            "--shards", "4",
            "--files-per-epoch", "2",
            "--lateness", "60",
            "--late-output",
        ]
    )
    assert rc == 0
    manifests = sorted(glob.glob(str(tmp_path / "out" / "manifest" / "*.json")))
    assert manifests
    last = json.load(open(manifests[-1]))
    assert "pairs_outputs" in last and "late_outputs" in last
    # the dataset's exec->mail cadence produces at least one pair file
    assert glob.glob(str(tmp_path / "out" / "data" / "pairs-*.parquet"))


def test_job_submit_fsck_and_gc_flags(ray_session, tmp_path):
    """--gc-checkpoints prunes superseded snapshots after the run and
    --fsck validates (exit 0 clean, 3 after corruption)."""
    import glob

    from osprey_ray.datagen import ensure_dataset
    from osprey_ray.streaming.run import main

    d = ensure_dataset(2_000, seed=11, root=str(tmp_path / "data"))
    args = [
        "--input", d + "/stream", "--out", str(tmp_path / "out"),
        "--shards", "4", "--files-per-epoch", "2",
    ]
    assert main(args + ["--gc-checkpoints"]) == 0
    snaps = glob.glob(str(tmp_path / "out" / "checkpoint" / "state-*.pkl"))
    assert len(snaps) == 4  # only the live recovery point remains
    assert main(args + ["--fsck"]) == 0
    import os as _os

    _os.remove(glob.glob(str(tmp_path / "out" / "data" / "part-*.parquet"))[0])
    assert main(args + ["--fsck"]) == 3


def test_job_submit_fsck_truncated_snapshot(ray_session, tmp_path):
    """--fsck exits 3 when a live snapshot is present but truncated."""
    import glob
    import os

    from osprey_ray.datagen import ensure_dataset
    from osprey_ray.streaming.run import main

    d = ensure_dataset(2_000, seed=11, root=str(tmp_path / "data"))
    args = [
        "--input", d + "/stream", "--out", str(tmp_path / "out"),
        "--shards", "4", "--files-per-epoch", "2", "--gc-checkpoints",
    ]
    assert main(args) == 0
    assert main(args + ["--fsck"]) == 0
    victim = glob.glob(str(tmp_path / "out" / "checkpoint" / "state-*.pkl"))[0]
    with open(victim, "r+b") as f:
        f.truncate(os.path.getsize(victim) - 1)
    assert main(args + ["--fsck"]) == 3
