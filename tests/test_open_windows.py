"""Watermark-driven window emission on shards without Ray: a tumbling
bucket whose count stays 0 never opens, and a ruleset swap drops the open
windows of a feature it removes."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from osprey_ray.expr import col
from osprey_ray.io import TRANSCRIPT_SCHEMA
from osprey_ray.rules import RuleSpec, SessionWindow, TumblingCount
from osprey_ray.stages.stateless import compile_stateless
from osprey_ray.streaming.shard import StateShard

Shard = StateShard.__ray_metadata__.modified_class  # undecorated class
HOUR_US = 3_600_000_000
BASE_US = 472_222 * HOUR_US  # an hour boundary
FLUSH = int(np.iinfo(np.int64).max)
EXECS = TumblingCount("Execs", col("tool") == "exec", bucket_seconds=3600)


def _turns(conv: str, tools: list, first: int = 0) -> pa.Table:
    """One conversation's turns ``first, first+1, …`` a minute apart."""
    idx = range(first, first + len(tools))
    return pa.table({
        "conv_id": [conv] * len(tools),
        "turn_idx": pa.array(idx, pa.int32()),
        "role": ["tool"] * len(tools),
        "text": pa.array(["x"] * len(tools), pa.large_string()),
        "tool": tools,
        "ts": pa.array([BASE_US + i * 60_000_000 for i in idx], pa.timestamp("us")),
    }, schema=TRANSCRIPT_SCHEMA)


def _windows(tmp_path, stats) -> pa.Table | None:
    name = stats["files"]["windows"]
    return None if name is None else pq.read_table(os.path.join(str(tmp_path), name))


def test_zero_count_bucket_never_opens(tmp_path):
    """A conversation none of whose turns passes the ``when`` holds no
    open bucket and emits none; the other conversation's bucket opens,
    stays open until the watermark passes its end, then emits once."""
    spec = RuleSpec(stateful=[EXECS])
    spec.validate()
    rows = compile_stateless(spec)(pa.concat_tables([
        _turns("busy", ["exec", "mail", "exec"]),
        _turns("quiet", ["mail", "files", "mail"]),
    ]))
    sh = Shard(spec, 0, str(tmp_path), {})
    held = sh.process(0, BASE_US + 10 * 60_000_000, rows)
    assert held["released"] == 6 and held["open_windows"] == 1
    assert _windows(tmp_path, held) is None
    flushed = sh.process(1, FLUSH)
    assert flushed["open_windows"] == 0
    assert _windows(tmp_path, flushed).to_pylist() == [{
        "window": "Execs", "conv_id": "busy",
        "start": pa.scalar(BASE_US, pa.timestamp("us")).as_py(),
        "end": pa.scalar(BASE_US + HOUR_US, pa.timestamp("us")).as_py(),
        "agg_count": 2,
    }]


def test_swap_drops_removed_feature_windows(tmp_path):
    """A swap that removes a session window drops its open windows on the
    shard at the swap; the next epochs hold and emit only the features
    the new spec keeps."""
    full = RuleSpec(stateful=[EXECS, SessionWindow("sess", gap_seconds=1800)])
    without = RuleSpec(stateful=[EXECS])
    sh = Shard(full, 0, str(tmp_path), {})
    before = compile_stateless(full)(pa.concat_tables([
        _turns("a", ["exec", "mail"]), _turns("b", ["mail", "mail"]),
    ]))
    # sess of a and b and a's Execs bucket are open
    assert sh.process(0, BASE_US + 5 * 60_000_000, before)["open_windows"] == 3
    sh.update_spec(without)
    after = compile_stateless(without)(pa.concat_tables([
        _turns("a", ["exec"], first=6), _turns("b", ["exec"], first=6),
    ]))
    assert sh.process(1, BASE_US + 10 * 60_000_000, after)["open_windows"] == 2
    flushed = sh.process(2, FLUSH)
    assert flushed["open_windows"] == 0
    wins = _windows(tmp_path, flushed)
    assert wins["window"].to_pylist() == ["Execs", "Execs"]
    assert wins["agg_count"].to_pylist() == [2, 1]
