"""Columnar shard checkpoints without Ray: a StateShard snapshot restores
into a fresh shard with the carry, the pending tables (schemas included),
the open windows, the armed pattern table and the watermark exact, a
rescale re-deals exactly the crc32 split, and a snapshot in an older
format is rejected by name."""

import pickle
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from osprey_ray.datagen import generate_label_events, generate_transcripts
from osprey_ray.pipelines import flagship
from osprey_ray.pipelines.flagship import label_events_map
from osprey_ray.expr import col
from osprey_ray.rules import AbsenceAlert, FollowedBy, LabelAdd, WhenRules
from osprey_ray.stages.stateless import compile_stateless
from osprey_ray.io import TRANSCRIPT_SCHEMA
from osprey_ray.state.carry import CHECKPOINT_FORMAT, ipc_schema, read_checkpoint
from osprey_ray.streaming.shard import StateShard, _owned
from test_golden import _assert_states_equal

Shard = StateShard.__ray_metadata__.modified_class  # undecorated class
EPOCHS = 6
LATENESS_US = 600_000_000


@pytest.fixture(scope="module")
def transcripts():
    tbl = generate_transcripts(3000, seed=42)
    return tbl, label_events_map(generate_label_events(tbl, 42))


def _with_patterns(spec):
    """``spec`` plus an exec → mail AbsenceAlert and FollowedBy, so shards
    carry armed A's."""
    a, b = col("tool") == "exec", col("tool") == "mail"
    spec.absences.append(AbsenceAlert("unanswered", a, b, 600.0))
    spec.follows.append(FollowedBy("answered", a, b, 600.0))
    spec.validate()
    return spec


def _spec(name: str):
    spec = getattr(flagship, name)()
    if name == "flagship_sql_spec":
        spec = _with_patterns(spec)
    if name == "flagship_spec":
        # delayed self-mutations queue in the label store (delayed, dseq),
        # one with an expiry and one without
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
    assert fresh.open_windows.schema.equals(sh.open_windows.schema)
    assert fresh.open_windows.equals(sh.open_windows)
    assert fresh.armed.schema.equals(sh.armed.schema)
    assert _sorted_armed(fresh.armed).equals(_sorted_armed(sh.armed))


def _sorted_armed(tbl: pa.Table) -> pa.Table:
    return tbl.sort_by([(k, "ascending") for k in ("kind", "pattern", "conv_id", "a_ts")])


@pytest.mark.parametrize("spec_name", ["flagship_spec", "kitchen_sink_spec", "flagship_sql_spec"])
def test_snapshot_roundtrip_no_ray(transcripts, tmp_path, spec_name):
    """Every epoch's snapshot — and one taken before the first epoch, with
    nothing carried — restores into a fresh shard exactly: the carry table
    with its schema, pending tables with theirs, label state, watermark;
    and the restored shard's next epoch equals the original's."""
    tbl, lmap = transcripts
    spec = _spec(spec_name)
    lev = lmap if spec_name == "flagship_spec" else {}
    sh = Shard(spec, 0, str(tmp_path / "data"), lev)
    fresh = Shard(spec, 0, str(tmp_path / "data"), lev)
    fresh.restore(sh.snapshot(str(tmp_path / "ckpt0"), 0)["path"])
    assert not fresh.states.table.num_columns
    _assert_restored(fresh, sh)
    keys: set = set()
    armed_kinds: set = set()
    for e, (rows, wm) in enumerate(_epochs(tbl, spec)):
        sh.process(e, wm, rows, write=False)
        armed_kinds |= set(sh.armed["kind"].to_pylist())
        info = sh.snapshot(str(tmp_path / "ckpt"), e)
        assert info["bytes"] > 0 and info["s"] >= 0
        fresh = Shard(spec, 0, str(tmp_path / "data"), lev)
        fresh.restore(info["path"])
        _assert_restored(fresh, sh)
        carry = sh.states.table
        keys |= {c for c in carry.column_names if carry[c].null_count < carry.num_rows}
        assert sh.pending, "fixture released everything; nothing pending"
    want = {
        "flagship_spec": {"w:", "t:", "s:", "q:"},
        "kitchen_sink_spec": {"w:", "t:", "k:"},
        "flagship_sql_spec": {"w:", "t:", "s:", "q:"},
    }[spec_name] | {"conv_id", "last_turn", "last_seen"}
    assert {k[:2] if k[1] == ":" else k for k in keys} == want
    # only flagship_sql_spec declares patterns; its snapshots carry both kinds
    assert armed_kinds == ({"ab", "fb"} if spec_name == "flagship_sql_spec" else set())
    if spec_name == "flagship_spec":
        labels = sh.labels
        assert labels.lev and labels.dseq
        exps = {e[4] is None for q in labels.delayed.values() for e in q}
        assert exps == {True, False}, "delayed queue never held both expiry kinds"
    if spec_name == "kitchen_sink_spec":
        capped = sh.states.table["t:ToolsCapped"]
        seen = pc.struct_field(capped, "seen")
        assert seen.null_count > capped.null_count, "cap=3 never saturated"
        assert seen.null_count < len(seen)
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
    old carries, open windows, armed A's and pending rows."""
    tbl, lmap = transcripts
    spec = _with_patterns(flagship.flagship_spec())
    old = [Shard(spec, p, str(tmp_path / "data"), lmap) for p in range(2)]
    epochs = _epochs(tbl, spec)[:3]
    for e, (rows, wm) in enumerate(epochs):
        for p, sh in enumerate(old):
            sh.process(e, wm, rows.filter(_owned(rows, 2, p)), write=False)
    paths = [sh.snapshot(str(tmp_path / "ckpt"), 2)["path"] for sh in old]
    union = pa.concat_tables([sh.states.table for sh in old])
    route = np.array([zlib.crc32(c.encode()) % 3 for c in union["conv_id"].to_pylist()])
    wins = pa.concat_tables([sh.open_windows for sh in old])
    assert set(wins["window"].to_pylist()) == {"TurnsThisHour", "sess"}
    wroute = np.array([zlib.crc32(c.encode()) % 3 for c in wins["conv_id"].to_pylist()])
    by_key = [(k, "ascending") for k in ("window", "conv_id", "key")]
    armed = pa.concat_tables([sh.armed for sh in old])
    assert set(armed["kind"].to_pylist()) == {"ab", "fb"}
    aroute = np.array([zlib.crc32(c.encode()) % 3 for c in armed["conv_id"].to_pylist()])

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
        _assert_states_equal(sh.states, union.filter(pa.array(route == p)))
        assert sh.open_windows.sort_by(by_key).equals(
            wins.filter(pa.array(wroute == p)).sort_by(by_key)
        )
        assert _sorted_armed(sh.armed).equals(_sorted_armed(armed.filter(pa.array(aroute == p))))
        assert rows(sh.pending) == [r for r in union_rows if zlib.crc32(r[0].encode()) % 3 == p]
        assert sh.watermark == min(o.watermark for o in old)
    assert sum(len(sh.states) for sh in new) == union.num_rows


def _kitchen_turns(conv: str, tools: list, text: str) -> pa.Table:
    """One conversation's turns a minute apart, one per tool."""
    n = len(tools)
    return pa.table({
        "conv_id": [conv] * n,
        "turn_idx": pa.array(range(n), pa.int32()),
        "role": ["tool"] * n,
        "text": pa.array([text] * n, pa.large_string()),
        "tool": tools,
        "ts": pa.array([1_700_000_000_000_000 + i * 60_000_000 for i in range(n)],
                       pa.timestamp("us")),
    }, schema=TRANSCRIPT_SCHEMA)


def test_carry_schema_depends_only_on_spec(tmp_path):
    """Two shards of one kitchen_sink_spec job whose conversations exercise
    different states — A's KvCache never fires and its ToolsCapped
    saturates, B's KvCache fires and its ToolsCapped stays under the cap —
    snapshot carries of one schema, and a 2 → 3 rescale of the two
    snapshots is the crc32 split of their union."""
    spec = flagship.kitchen_sink_spec()
    stage1 = compile_stateless(spec)
    quiet = "nothing to see here"
    spam = "see https://spam.example/x for a long enough text to be counted"
    feeds = [
        [_kitchen_turns(f"a{i}", ["browser", "exec", "files", "mail"], quiet) for i in range(4)],
        [_kitchen_turns(f"b{i}", ["browser", "exec", "browser"], spam) for i in range(4)],
    ]
    old = [Shard(spec, p, str(tmp_path / "data"), {}) for p in range(2)]
    for sh, feed in zip(old, feeds):
        sh.process(0, np.iinfo(np.int64).max, stage1(pa.concat_tables(feed)), write=False)
    a, b = (sh.states.table for sh in old)
    assert a["k:LastSpamText"].null_count == a.num_rows
    assert b["k:LastSpamText"].null_count == 0
    assert pc.struct_field(a["t:ToolsCapped"], "seen").null_count == a.num_rows
    assert pc.struct_field(b["t:ToolsCapped"], "seen").null_count == 0
    snaps = [sh.snapshot(str(tmp_path / "ckpt"), 0)["path"] for sh in old]
    schemas = [ipc_schema(read_checkpoint(p)["carry"]) for p in snaps]
    assert schemas[0].equals(schemas[1])
    union = pa.concat_tables([a, b])
    route = np.array([zlib.crc32(c.encode()) % 3 for c in union["conv_id"].to_pylist()])
    for p in range(3):
        sh = Shard(spec, p, str(tmp_path / "data"), {})
        sh.restore_resharded(snaps, 3)
        _assert_states_equal(sh.states, union.filter(pa.array(route == p)))


def test_pre_arrow_snapshot_rejected(tmp_path):
    """A snapshot in an older layout — the pickled-dict one, the first
    Arrow envelope with its two pattern-state members, or the second with
    its encoded carry and separate last_seen, or the third with its
    pickled open-window dict, or the fourth with its pickled armed-pattern
    dict — fails loudly, naming the format it expected."""
    path = tmp_path / "state-e00000-p0000.pkl"
    sh = Shard(flagship.flagship_sql_spec(), 0, str(tmp_path / "data"), {})
    for payload in (
        {"states": {}, "pending": [], "pending_schema": None, "watermark": 0, "labels": []},
        {"format": "osprey-arrow-carry/1", "carry": b"", "pending": [], "last_seen": {},
         "labels": [], "watermark": 0, "open_windows": {}, "pending_absences": {},
         "pending_pairs": {}, "spilled": [], "spill_seq": 0},
        {"format": "osprey-arrow-carry/2", "carry": b"", "pending": [], "last_seen": {},
         "labels": [], "watermark": 0, "open_windows": {}, "armed": {},
         "spilled": [], "spill_seq": 0},
        {"format": "osprey-arrow-carry/3", "carry": b"", "pending": [], "labels": [],
         "watermark": 0, "open_windows": {}, "armed": {}, "spilled": [], "spill_seq": 0},
        {"format": "osprey-arrow-carry/4", "carry": b"", "pending": [], "labels": [],
         "watermark": 0, "open_windows": b"", "armed": {("ab", "p", "c0"): np.array([1])},
         "spilled": [], "spill_seq": 0},
    ):
        with open(path, "wb") as f:
            pickle.dump(payload, f)
        with pytest.raises(ValueError, match=CHECKPOINT_FORMAT):
            sh.restore(str(path))
        with pytest.raises(ValueError, match=CHECKPOINT_FORMAT):
            sh.restore_resharded([str(path)], 2)


def test_spec_swap_conforms_carry(transcripts, tmp_path):
    """A ruleset swap that adds a session window keeps the carried state of
    the other features: the carry takes the new spec's schema, the new
    column is null for conversations the next epoch leaves untouched and
    set for the ones it advances."""
    import dataclasses

    tbl, _ = transcripts
    full = flagship.flagship_sql_spec()
    before = dataclasses.replace(full, stateful=[s for s in full.stateful if s.name != "sess"])
    sh = Shard(before, 0, str(tmp_path / "data"), {})
    (rows0, wm0), (rows1, wm1) = _epochs(tbl, full)[:2]
    sh.process(0, wm0, rows0, write=False)
    carried = sh.states.table
    assert "s:sess" not in carried.column_names
    sh.update_spec(full)
    sh.process(1, wm1, rows1, write=False)
    after = sh.states.table
    assert "s:sess" in after.column_names
    old = carried.sort_by("conv_id")
    new = after.filter(pc.is_in(after["conv_id"], carried["conv_id"])).sort_by("conv_id")
    same = pc.equal(old["last_turn"], new["last_turn"])  # released nothing at epoch 1
    assert 0 < pc.sum(same).as_py() < old.num_rows
    untouched = new.filter(same)
    assert untouched["s:sess"].null_count == untouched.num_rows
    _assert_states_equal(untouched.drop_columns(["s:sess"]), old.filter(same))
    touched = new.filter(pc.invert(same))
    assert touched["s:sess"].null_count == 0
