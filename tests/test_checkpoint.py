"""Columnar shard checkpoints without Ray: a StateShard snapshot restores
into a fresh shard with the carry, the pending tables (schemas included)
and the watermark exact, a rescale re-deals exactly the crc32 split, and a
snapshot in the old pickled-dict format is rejected by name."""

import pickle
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from osprey_ray.datagen import generate_label_events, generate_transcripts
from osprey_ray.pipelines import flagship
from osprey_ray.pipelines.flagship import label_events_map
from osprey_ray.rules import LabelAdd, WhenRules
from osprey_ray.stages.stateless import compile_stateless
from osprey_ray.state.carry import CHECKPOINT_FORMAT, decode_carry, encode_carry
from osprey_ray.streaming.shard import StateShard, _owned
from test_golden import _assert_states_equal

Shard = StateShard.__ray_metadata__.modified_class  # undecorated class
EPOCHS = 6
LATENESS_US = 600_000_000


@pytest.fixture(scope="module")
def transcripts():
    tbl = generate_transcripts(3000, seed=42)
    return tbl, label_events_map(generate_label_events(tbl, 42))


def _spec(name: str):
    spec = getattr(flagship, name)()
    if name == "flagship_spec":
        # delayed self-mutations queue in the carry (delayed, dseq), one
        # with an expiry and one without
        spec.triggers.append(WhenRules(["RuleToolAbuse"], [
            LabelAdd("tool_abuse", delay_action_by=1800.0),
            LabelAdd("tool_abuse_1h", delay_action_by=900.0, expires_after=3600),
        ]))
        spec.validate()
    return spec


def _epochs(tbl: pa.Table, spec) -> list[tuple[pa.Table, int]]:
    """Stage-1 rows in arrival order cut into epochs, conv_id
    dictionary-encoded as the exchange ships it, each with a watermark
    that trails the newest ts so rows stay pending across epochs."""
    arrival = tbl.take(pc.sort_indices(tbl["_arrival_us"])).drop_columns(["_arrival_us"])
    t1 = compile_stateless(spec)(arrival)
    t1 = t1.set_column(
        t1.schema.get_field_index("conv_id"), "conv_id",
        t1["conv_id"].combine_chunks().dictionary_encode(),
    )
    ts = t1["ts"].cast(pa.int64()).to_numpy()
    cuts = np.linspace(0, t1.num_rows, EPOCHS + 1).astype(int)
    return [
        (t1.slice(lo, hi - lo), int(ts[:hi].max()) - LATENESS_US)
        for lo, hi in zip(cuts[:-1], cuts[1:])
    ]


def _assert_restored(fresh, sh):
    _assert_states_equal(fresh.states, sh.states)
    assert len(fresh.pending) == len(sh.pending)
    for got, want in zip(fresh.pending, sh.pending):
        assert got.schema.equals(want.schema, check_metadata=True)
        assert got.equals(want)
    assert fresh.watermark == sh.watermark
    assert fresh.labels.snapshot() == sh.labels.snapshot()
    assert fresh.open_windows == sh.open_windows


@pytest.mark.parametrize("spec_name", ["flagship_spec", "kitchen_sink_spec", "flagship_sql_spec"])
def test_snapshot_roundtrip_no_ray(transcripts, tmp_path, spec_name):
    """Every epoch's snapshot restores into a fresh shard exactly — carry
    values and types, pending tables with their schemas, watermark — and
    the restored shard's next epoch equals the original's."""
    tbl, lmap = transcripts
    spec = _spec(spec_name)
    lev = lmap if spec_name == "flagship_spec" else {}
    sh = Shard(spec, 0, str(tmp_path / "data"), lev)
    keys: set = set()
    for e, (rows, wm) in enumerate(_epochs(tbl, spec)):
        sh.process(e, wm, rows, write=False)
        info = sh.snapshot(str(tmp_path / "ckpt"), e)
        assert info["bytes"] > 0 and info["s"] >= 0
        fresh = Shard(spec, 0, str(tmp_path / "data"), lev)
        fresh.restore(info["path"])
        _assert_restored(fresh, sh)
        keys |= {k for st in sh.states.values() for k in st}
        assert sh.pending, "fixture released everything; nothing pending"
    want = {
        "flagship_spec": {"w:", "t:", "s:", "q:", "last_turn", "lev", "delayed", "dseq"},
        "kitchen_sink_spec": {"w:", "t:", "k:", "last_turn"},
        "flagship_sql_spec": {"w:", "t:", "s:", "q:", "last_turn"},
    }[spec_name]
    assert {k[:2] if k[1] == ":" else k for k in keys} == want
    if spec_name == "flagship_spec":
        exps = {e[4] is None for st in sh.states.values() for e in st.get("delayed", ())}
        assert exps == {True, False}, "delayed queue never held both expiry kinds"
    if spec_name == "kitchen_sink_spec":
        capped = [st["t:ToolsCapped"] for st in sh.states.values() if "t:ToolsCapped" in st]
        assert any(v[2] is None for v in capped), "cap=3 never saturated"
        assert any(isinstance(v[2], frozenset) for v in capped)
    # the restored shard carries on exactly like the original
    flush = np.iinfo(np.int64).max
    a = sh.process(EPOCHS, flush, write=False)
    b = fresh.process(EPOCHS, flush, write=False)
    assert a["released"] == b["released"] and a["fired"] == b["fired"]
    _assert_states_equal(fresh.states, sh.states)


def test_pending_tables_of_two_schemas_roundtrip(tmp_path):
    """Each pending table keeps its own schema: a table carrying a column
    the first one lacks restores with that column."""
    sh = Shard(flagship.flagship_sql_spec(), 0, str(tmp_path / "data"), {})
    ts = pa.array([10, 20], pa.timestamp("us"))
    sh.pending = [
        pa.table({"conv_id": ["a", "b"], "turn_idx": [1, 2], "ts": ts}),
        pa.table({"conv_id": pa.array(["c", "d"]).dictionary_encode(),
                  "turn_idx": pa.array([3, 4], pa.int32()), "ts": ts,
                  "extra": [1.5, None]}),
    ]
    info = sh.snapshot(str(tmp_path / "ckpt"), 0)
    fresh = Shard(flagship.flagship_sql_spec(), 0, str(tmp_path / "data"), {})
    fresh.restore(info["path"])
    _assert_restored(fresh, sh)
    assert fresh.pending[1].column_names[-1] == "extra"


def test_restore_resharded_is_crc32_split_of_union(transcripts, tmp_path):
    """Two shards' snapshots re-dealt over three new shards: each new
    shard holds exactly the crc32(conv_id) % 3 slice of the union of the
    old carries and pending rows."""
    tbl, lmap = transcripts
    spec = flagship.flagship_spec()
    old = [Shard(spec, p, str(tmp_path / "data"), lmap) for p in range(2)]
    epochs = _epochs(tbl, spec)[:3]
    for e, (rows, wm) in enumerate(epochs):
        for p, sh in enumerate(old):
            sh.process(e, wm, rows.filter(_owned(rows, 2, p)), write=False)
    paths = [sh.snapshot(str(tmp_path / "ckpt"), 2)["path"] for sh in old]
    union = {c: st for sh in old for c, st in sh.states.items()}

    def rows(tables):
        return sorted(
            (str(c), int(t))
            for tb in tables
            for c, t in zip(tb["conv_id"].to_pylist(), tb["turn_idx"].to_pylist())
        )

    union_rows = rows(t for sh in old for t in sh.pending)
    assert union_rows, "fixture has no pending rows to re-deal"
    new = [Shard(spec, p, str(tmp_path / "data"), lmap) for p in range(3)]
    for p, sh in enumerate(new):
        sh.restore_resharded(paths, 3)
        _assert_states_equal(
            sh.states, {c: st for c, st in union.items() if zlib.crc32(c.encode()) % 3 == p}
        )
        assert rows(sh.pending) == [r for r in union_rows if zlib.crc32(r[0].encode()) % 3 == p]
        assert sh.watermark == min(o.watermark for o in old)
    assert sum(len(sh.states) for sh in new) == len(union)


def test_carry_codec_empty_and_unknown_key():
    assert decode_carry(encode_carry({})) == {}
    with pytest.raises(ValueError, match="no columnar encoding"):
        encode_carry({"c": {"mystery": 1}})


def test_pre_arrow_snapshot_rejected(tmp_path):
    """A snapshot in an older layout — the pickled-dict one, or the first
    Arrow envelope with its two pattern-state members — fails loudly,
    naming the format it expected."""
    path = tmp_path / "state-e00000-p0000.pkl"
    sh = Shard(flagship.flagship_sql_spec(), 0, str(tmp_path / "data"), {})
    for payload in (
        {"states": {}, "pending": [], "pending_schema": None, "watermark": 0, "labels": []},
        {"format": "osprey-arrow-carry/1", "carry": b"", "pending": [], "last_seen": {},
         "labels": [], "watermark": 0, "open_windows": {}, "pending_absences": {},
         "pending_pairs": {}, "spilled": [], "spill_seq": 0},
    ):
        with open(path, "wb") as f:
            pickle.dump(payload, f)
        with pytest.raises(ValueError, match=CHECKPOINT_FORMAT):
            sh.restore(str(path))
        with pytest.raises(ValueError, match=CHECKPOINT_FORMAT):
            sh.restore_resharded([str(path)], 2)
