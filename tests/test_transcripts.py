"""Unit tests for the transcript-native SFT-prep ops
(osprey_ray/pipelines/transcripts.py): rendering semantics on a
hand-built conversation log, duplicate handling, last-k truncation
boundary, and partition-count invariance of the conv exchange."""

import glob
import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from osprey_ray.pipelines import transcripts as TR


@pytest.fixture()
def tiny_log(tmp_path):
    os.makedirs(tmp_path / "batch")
    ts0 = 1_700_000_000_000_000
    rows = {
        "conv_id": ["a"] * 3 + ["b"] * 10 + ["a"],  # 'a' turn 1 re-delivered
        "turn_idx": pa.array([0, 1, 2] + list(range(10)) + [1], pa.int32()),
        "role": ["user", "assistant", "tool"] + ["user", "assistant"] * 5 + ["assistant"],
        "text": ["hi", "hello there", "ran"] + [f"t{i}" for i in range(10)] + ["hello there"],
        "tool": pa.array([None, None, "exec"] + [None] * 10 + [None], pa.string()),
        "ts": pa.array([ts0, ts0 + 1_000_000, ts0 + 2_000_000]
                       + [ts0 + i * 500_000 for i in range(10)]
                       + [ts0 + 1_000_000], pa.timestamp("us")),
    }
    pq.write_table(pa.table(rows), tmp_path / "batch" / "part-0000.parquet")
    return str(tmp_path)


def test_conv_render_semantics(tiny_log, ray_session):
    out = TR.conv_render(tiny_log, last_k=8).to_pandas().set_index("conv_id")
    # conv a: 3 distinct turns (the dup of turn 1 is dropped), all rendered
    assert out.loc["a", "n_turns"] == 3
    assert out.loc["a", "n_rendered"] == 3
    txt_a = "user: hi\nassistant: hello there\ntool: ran"
    assert out.loc["a", "n_chars"] == len(txt_a)
    assert out.loc["a", "rendered_md5"] == hashlib.md5(txt_a.encode()).hexdigest()
    # conv b: 10 turns, truncated to the LAST 8 (turns 2..9)
    assert out.loc["b", "n_turns"] == 10
    assert out.loc["b", "n_rendered"] == 8
    lines_b = [f"{'user' if i % 2 == 0 else 'assistant'}: t{i}" for i in range(2, 10)]
    txt_b = "\n".join(lines_b)
    assert out.loc["b", "rendered_md5"] == hashlib.md5(txt_b.encode()).hexdigest()


def test_conv_stats_semantics(tiny_log, ray_session):
    out = TR.conv_stats(tiny_log).to_pandas().set_index("conv_id")
    assert out.loc["a", "n_turns"] == 3
    assert out.loc["a", "n_user"] == 1
    assert out.loc["a", "n_assistant"] == 1
    assert out.loc["a", "n_tool_calls"] == 1
    assert out.loc["a", "total_chars"] == len("hi") + len("hello there") + len("ran")
    assert out.loc["a", "duration_s"] == 2
    assert out.loc["b", "n_turns"] == 10
    assert out.loc["b", "n_tool_calls"] == 0
    assert out.loc["b", "duration_s"] == 4  # 9 * 0.5s floored


def test_conv_render_partition_invariance(ray_session):
    """The conv exchange must give identical output at any partition count
    (P only affects parallelism — SURVEY §4)."""
    from unittest import mock

    from osprey_ray.datagen import ensure_dataset
    from osprey_ray.pipelines import analytics as A

    d = ensure_dataset(6_000, seed=42)
    r1 = TR.conv_render(d).to_pandas().sort_values("conv_id").reset_index(drop=True)
    # the keyed exchange sizes P through _key_parts (max(_KEY_PARTS,
    # 2*CPU)); force a small P there
    with mock.patch.object(A, "_key_parts", lambda P=None: 7):
        r2 = (
            TR.conv_render(d)
            .to_pandas()
            .sort_values("conv_id")
            .reset_index(drop=True)
        )
    assert r1.equals(r2)


def test_qa_pairs_semantics(tiny_log, ray_session):
    import hashlib as _h

    out = TR.qa_pairs(tiny_log).to_pandas().set_index("conv_id")
    # conv a: user(0) -> assistant(1) is the only pair (dup row dropped)
    assert out.loc["a", "n_pairs"] == 1
    pa_txt = "Q: hi\nA: hello there"
    assert out.loc["a", "pairs_md5"] == _h.md5(pa_txt.encode()).hexdigest()
    # conv b: user at even turns, assistant at odd -> 5 pairs
    assert out.loc["b", "n_pairs"] == 5
    blk = "\n\n".join(f"Q: t{i}\nA: t{i+1}" for i in range(0, 10, 2))
    assert out.loc["b", "pairs_md5"] == _h.md5(blk.encode()).hexdigest()


def test_conv_sessions_gap_split(tiny_log, ray_session):
    # conv b turns are 0.5 s apart; a 1-second gap threshold keeps one
    # session, a sub-gap threshold splits every turn
    one = TR.conv_sessions(tiny_log, gap_s=3600).to_pandas()
    b = one[one.conv_id == "b"]
    assert len(b) == 1 and b.iloc[0].n_turns == 10
    assert b.iloc[0].session_idx == 0
    assert b.iloc[0].end_us - b.iloc[0].start_us == 4_500_000
    split = TR.conv_sessions(tiny_log, gap_s=0).to_pandas()
    bs = split[split.conv_id == "b"]
    assert len(bs) == 10
    assert sorted(bs.session_idx) == list(range(10))


def test_tool_transitions_counts(tiny_log, ray_session):
    df = TR.tool_transitions(tiny_log).to_pandas()
    # tiny_log has a single tool turn -> no transitions
    assert len(df) == 0 or df.n.sum() == 0


def test_tool_transitions_planted_sequences(ray_session):
    from osprey_ray.datagen import ensure_dataset

    d = ensure_dataset(6_000, seed=42)
    df = TR.tool_transitions(d).to_pandas()
    assert df.n.sum() > 0
    # datagen plants exec->mail follow-ups; the pair must be present
    em = df[(df.from_tool == "exec") & (df.to_tool == "mail")]
    assert len(em) == 1 and em.iloc[0].n > 0
