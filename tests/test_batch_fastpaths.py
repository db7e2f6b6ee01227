"""The batch fast paths are exact: verdict list columns built from a
(rows x names) mask, the ordered-input skip in ``sort_and_dedup``, and
``run_batch_exchange``'s contiguous read groups (at most one read task
per partition) all give what the oracle / the plain paths give."""

import glob
import os

import hypothesis.strategies as st
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings

from osprey_ray.datagen import ensure_dataset, generate_label_events, generate_transcripts
from osprey_ray.expr import col, fn
from osprey_ray.oracle import oracle_results
from osprey_ray.pipelines.flagship import flagship_spec, label_events_map
from osprey_ray.rules import (
    DeclareVerdict,
    Feature,
    HasLabel,
    LabelAdd,
    Rule,
    RuleSpec,
    WhenRules,
)
from osprey_ray.stages.stateful import (
    StatefulPartitionEval,
    _conv_codes,
    _in_order,
    sort_and_dedup,
)
from osprey_ray.stages.stateless import compile_stateless
from osprey_ray.state.carry import Carry

LIST_STR = pa.list_(pa.string())


def _fanout_spec(verdicts: bool = True) -> RuleSpec:
    """Triggers that overlap every way the verdict columns can: ``review``
    is declared by two triggers, ``RExec`` sits in two triggers, one
    trigger only adds a label, ``RIdle`` is in no trigger, and ``Zulu``
    sorts before ``alpha``/``review``.  ``verdicts=False`` keeps only the
    label trigger, so ``__verdicts`` has no names at all."""
    label_trigger = WhenRules(["RUser"], [LabelAdd("mark", expires_after=600)])
    triggers = [
        WhenRules(["RExec", "RQuick"], [DeclareVerdict("review"), DeclareVerdict("Zulu")]),
        WhenRules(["RMail", "RExec"], [DeclareVerdict("review")]),
        label_trigger,
        WhenRules(["RMarked"], [DeclareVerdict("alpha")]),
    ]
    return RuleSpec(
        features=[
            Feature("IsExec", col("tool") == "exec"),
            Feature("IsMail", col("tool") == "mail"),
            Feature("IsUser", col("role") == "user"),
            Feature("IsTool", col("role") == "tool"),
            Feature("SaysQuick", fn("StringContains", target=col("text"), substring="quick", word=True)),
        ],
        stateful=[HasLabel("HasMark", label="mark", status="added")],
        rules=[
            Rule("RExec", [col("IsExec")]),
            Rule("RMail", [col("IsMail")]),
            Rule("RQuick", [col("SaysQuick")]),
            Rule("RUser", [col("IsUser")]),
            Rule("RMarked", [col("IsTool"), col("HasMark")]),
            Rule("RIdle", [col("IsTool")]),
        ],
        triggers=triggers if verdicts else [label_trigger],
    )


def _norm(v):
    return list(v) if isinstance(v, np.ndarray) else v


def _assert_matches_oracle(out: pa.Table, want: pd.DataFrame) -> pd.DataFrame:
    assert out.schema.field("__verdicts").type == LIST_STR
    assert out.schema.field("__rules_fired").type == LIST_STR
    got = out.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    assert len(got) == len(want)
    for k in want.columns:
        g = [_norm(x) for x in got[k]]
        w = [_norm(x) for x in want[k]]
        bad = [i for i, (x, y) in enumerate(zip(g, w)) if x != y]
        assert not bad, f"column {k}: first mismatch at {bad[0]}: {g[bad[0]]!r} != {w[bad[0]]!r}"
    return got


@pytest.fixture(scope="module")
def small_data():
    tbl = generate_transcripts(3000, seed=11)
    lab = generate_label_events(tbl, 11)
    return tbl.drop_columns(["_arrival_us"]), label_events_map(lab)


@pytest.mark.parametrize("verdicts", [True, False])
def test_fanout_spec_matches_oracle(small_data, verdicts):
    clean, lmap = small_data
    spec = _fanout_spec(verdicts)
    out = StatefulPartitionEval(spec, lmap)(compile_stateless(spec)(clean))
    want = pd.DataFrame(oracle_results(clean, spec, lmap))
    got = _assert_matches_oracle(out, want)

    rows = list(zip(map(_norm, got["__verdicts"]), map(_norm, got["__rules_fired"])))
    fired = [r for _v, r in rows]
    assert ([], []) in rows  # rows where nothing fires
    assert any(r == ["RUser"] and v == [] for v, r in rows)  # label-only trigger
    assert not any("RIdle" in r for r in fired)
    assert all(r == sorted(set(r)) for r in fired)
    if verdicts:
        assert (["Zulu", "review"], ["RQuick"]) in rows  # first trigger only
        assert (["alpha", "review"], ["RMail", "RMarked"]) in rows  # second only
        # RExec fires both review triggers: each name still appears once
        assert any("RExec" in r and v.count("review") == 1 for v, r in rows)
    else:
        assert all(v == [] for v, _r in rows)


def test_fanout_spec_zero_rows(small_data):
    clean, lmap = small_data
    spec = _fanout_spec()
    out = StatefulPartitionEval(spec, lmap)(compile_stateless(spec)(clean.slice(0, 0)))
    assert out.num_rows == 0
    assert out.schema.field("__verdicts").type == LIST_STR
    assert out.schema.field("__rules_fired").type == LIST_STR


def test_fanout_spec_epoch_split_streaming_matches_oracle(ray_session, tmp_path):
    """Three segments per epoch over two shards: each epoch reads through
    two contiguous read groups, and the carried label state crosses the
    epoch cuts."""
    from osprey_ray.streaming import StreamingJob

    d = ensure_dataset(6000, seed=42, root="/tmp/osprey_test_stream")
    segs = sorted(glob.glob(os.path.join(d, "stream", "seg-*.parquet")))
    lmap = label_events_map(pq.read_table(os.path.join(d, "label_events.parquet")))
    full = pa.concat_tables(
        [pq.read_table(p) for p in sorted(glob.glob(os.path.join(d, "batch", "*.parquet")))]
    )
    spec = _fanout_spec()
    job = StreamingJob(spec, segs, str(tmp_path / "out"), lmap, num_shards=2, files_per_epoch=3)
    assert len(job.epochs()) > 1 and len(job.epochs()[0]) == 3
    job.run()
    job.finalize()
    assert sum(m["late_dropped"] for m in job.metrics) == 0
    _assert_matches_oracle(job.results_table(), pd.DataFrame(oracle_results(full, spec, lmap)))


# ---- sort_and_dedup: ordered-input skip ≡ lexsort-then-dedup --------------


def _reference_sort_and_dedup(tbl: pa.Table, states: dict) -> pa.Table:
    """Stable lexsort by (first-appearance conv code, turn, ts), keep the
    first row of each (conv, turn), drop turns at or below the carried
    ``last_turn``."""
    if tbl.num_rows == 0:
        return tbl
    cids = tbl["conv_id"].to_pylist()
    code_of: dict = {}
    codes = np.array([code_of.setdefault(c, len(code_of)) for c in cids], dtype=np.int64)
    turn = tbl["turn_idx"].to_numpy()
    ts = tbl["ts"].cast(pa.int64()).to_numpy()
    order = np.lexsort((ts, turn, codes))
    keep, seen = [], set()
    for i in order:
        key = (cids[i], int(turn[i]))
        last = (states.get(cids[i]) or {}).get("last_turn")
        if key not in seen and (last is None or turn[i] > last):
            keep.append(int(i))
        seen.add(key)
    return tbl.take(pa.array(keep, pa.int64()))


_ROW = st.tuples(st.sampled_from("abcd"), st.integers(0, 5), st.integers(0, 3))


@st.composite
def _dedup_case(draw):
    rows = sorted(draw(st.lists(_ROW, min_size=0, max_size=30)))
    mode = draw(st.sampled_from(["sorted", "reversed", "shuffled", "split"]))
    if mode == "reversed":
        rows = rows[::-1]
    elif mode == "shuffled":
        rows = draw(st.permutations(rows))
    elif mode == "split":
        # the first conversation's last row moves to the end: its rows form
        # two non-adjacent runs, so the order check must fail
        first = [r for r in rows if r[0] == rows[0][0]] if rows else []
        if len(first) < 2 or len(first) == len(rows):
            rows = [("a", 0, 0), ("a", 1, 0), ("b", 0, 0), ("a", 2, 0)]
        else:
            rows = first[:-1] + [r for r in rows if r[0] != rows[0][0]] + first[-1:]
    carried = draw(st.dictionaries(st.sampled_from("abcd"), st.integers(-1, 4), max_size=3))
    states = {c: {"last_turn": t} for c, t in carried.items()}
    return mode, rows, states


@settings(max_examples=200, deadline=None)
@given(_dedup_case())
def test_sort_and_dedup_matches_lexsort_reference(case):
    mode, rows, states = case
    base_us = 1_600_000_000_000_000
    tbl = pa.table(
        {
            "conv_id": pa.array([r[0] for r in rows], pa.string()),
            "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
            "ts": pa.array([base_us + r[2] for r in rows], pa.timestamp("us")),
            "row": pa.array(range(len(rows)), pa.int64()),  # tells tied rows apart
        }
    )
    if mode == "split":
        codes, _ = _conv_codes(tbl)
        assert not _in_order(codes, tbl["turn_idx"].to_numpy(), tbl["ts"].cast(pa.int64()).to_numpy())
    carry = Carry(pa.table({
        "conv_id": pa.array(list(states), pa.string()),
        "last_turn": pa.array([st["last_turn"] for st in states.values()], pa.int64()),
    })) if states else Carry()
    got = sort_and_dedup(tbl, carry)
    want = _reference_sort_and_dedup(tbl, states)
    assert got.equals(want), (mode, rows, states)


def test_in_order_check():
    z = np.zeros(4, dtype=np.int64)
    assert _in_order(np.array([0, 0, 1, 1]), np.array([1, 2, 0, 0]), np.array([5, 0, 1, 2]))
    assert not _in_order(np.array([0, 1, 0, 1]), z, z)  # a conversation in two runs
    assert not _in_order(z, np.array([0, 2, 1, 3]), z)  # turns out of order
    assert not _in_order(z, z, np.array([0, 2, 1, 3]))  # ts out of order on tied turns
    assert _in_order(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, np.int64))


# ---- run_batch_exchange: at most P read tasks ----------------------------


@pytest.mark.parametrize(
    "m, p, sizes",
    [(5, 2, [2, 3]), (5, 5, [1] * 5), (5, 8, [1] * 5), (16, 4, [4] * 4), (5, 4, [1, 1, 1, 2]), (0, 3, [])],
)
def test_read_groups_contiguous(m, p, sizes):
    from osprey_ray.streaming.job import _read_groups

    items = list(range(m))
    groups = _read_groups(items, p)
    assert [len(g) for g in groups] == sizes
    assert [x for g in groups for x in g] == items


@pytest.mark.parametrize("P", [2, 5, 8])
def test_exchange_read_groups_match_per_file_reads(small_data, ray_session, tmp_path, P):
    """5 files over P partitions (M > P, M = P, M < P): every written
    partition table equals the one a read task per file writes."""
    from osprey_ray.pipelines.flagship import _run_exchange, run_batch_exchange

    clean, lmap = small_data
    spec = flagship_spec()
    files = []
    for i in range(5):
        path = str(tmp_path / f"in-{i}.parquet")
        pq.write_table(clean.slice(i * 600, 600), path)
        files.append(path)

    ref = _run_exchange([[f] for f in files], spec, lmap, P, str(tmp_path / "ref"))
    out = str(tmp_path / "out")
    got = run_batch_exchange(files, spec, lmap, num_partitions=P, write_dir=out)
    names = [os.path.basename(x) for x in ref]
    assert [os.path.basename(x) for x in got] == names
    for a, b in zip(got, ref):
        assert pq.read_table(a).equals(pq.read_table(b))


def test_salted_whale_file_row_groups(ray_session, tmp_path):
    """A whale file split into several row groups goes through the one read
    plan (a chunk per row group, dealt over at most P read tasks); salting
    every conversation in 7-turn blocks equals the unsalted exchange, both
    returned in memory and written (the union of the returned files,
    salted blocks' files included).  A label spec cannot be salted."""
    from test_golden import _cmp_tables

    from osprey_ray.pipelines.flagship import flagship_sql_spec, run_batch_exchange

    tbl = generate_transcripts(3000, seed=5, whale_turns=1200).drop_columns(["_arrival_us"])
    counts = tbl.group_by("conv_id").aggregate([("turn_idx", "count")])
    whale = counts["conv_id"][int(np.argmax(counts["turn_idx_count"]))].as_py()
    is_whale = pa.compute.equal(tbl["conv_id"], whale)
    files = [str(tmp_path / "whale.parquet"), str(tmp_path / "rest.parquet")]
    pq.write_table(tbl.filter(is_whale), files[0], row_group_size=256)
    pq.write_table(tbl.filter(pa.compute.invert(is_whale)), files[1])
    assert pq.ParquetFile(files[0]).num_row_groups > 1

    spec = flagship_sql_spec()
    convs = tbl["conv_id"].unique().to_pylist()
    base = run_batch_exchange(files, spec, {}, num_partitions=4)
    salted = run_batch_exchange(files, spec, {}, num_partitions=4, hot_convs=convs, block_turns=7)
    _cmp_tables(salted, base)
    written = run_batch_exchange(
        files, spec, {}, num_partitions=4, write_dir=str(tmp_path / "out"),
        hot_convs=convs, block_turns=7,
    )
    # every cold partition is empty here and writes no file
    union = list(map(pq.read_table, written))
    _cmp_tables(pa.concat_tables(union, promote_options="default"), base)

    with pytest.raises(ValueError, match="label"):
        run_batch_exchange(files, flagship_spec(), {}, num_partitions=4, hot_convs=convs)


# ---- one conversation route ----------------------------------------------


def _typed(tbl: pa.Table, conv_type: str) -> pa.Table:
    ids = tbl["conv_id"].combine_chunks()
    ids = {"string": ids, "large_string": ids.cast(pa.large_string()),
           "dictionary": ids.dictionary_encode()}[conv_type]
    return tbl.set_column(tbl.schema.get_field_index("conv_id"), "conv_id", ids)


@pytest.mark.parametrize("conv_type", ["string", "large_string", "dictionary"])
@pytest.mark.parametrize("P", [1, 3, 8])
def test_route_agreement(conv_type, P, tmp_path):
    """Without Ray, every site that deals conversations over P partitions
    (the batch ``AssignPartition``, the exchange's read/route split with and
    without a hot sub-key, a shard's ``_owned`` mask, the label deal, a
    rescale re-deal and datagen's batch layout) puts each conversation in
    ``zlib.crc32(conv_id) % P``."""
    import zlib

    from osprey_ray.datagen import write_dataset
    from osprey_ray.pipelines.flagship import AssignPartition, flagship_sql_spec
    from osprey_ray.streaming.job import _deal_labels, _read_route
    from osprey_ray.streaming.shard import StateShard, _owned

    def want(cid) -> int:
        return zlib.crc32(cid.encode()) % P

    def placed(tables) -> dict:
        return {c: p for p, t in enumerate(tables) for c in t["conv_id"].to_pylist()}

    raw = generate_transcripts(400, seed=3)
    tbl = _typed(raw.drop_columns(["_arrival_us"]), conv_type)
    convs = set(tbl["conv_id"].to_pylist())
    expect = {c: want(c) for c in convs}
    spec = flagship_sql_spec()
    stage1 = compile_stateless(spec)

    parts = AssignPartition(P)(tbl)
    assert set(zip(parts["conv_id"].to_pylist(), parts["__part"].to_pylist())) == set(expect.items())
    assert placed(_read_route._function([tbl], stage1, P)[:P]) == expect
    assert placed([tbl.filter(_owned(tbl, P, p)) for p in range(P)]) == expect
    labels = label_events_map(generate_label_events(raw, 3))
    assert {c: p for p, d in enumerate(_deal_labels(labels, P)) for c in d} == {
        c: want(c) for c in labels
    }

    hot = min(convs)
    split = _read_route._function([tbl], stage1, P, frozenset([hot]), 4)[:P]
    for p, t in enumerate(split):
        for c, turn in zip(t["conv_id"].to_pylist(), t["turn_idx"].to_pylist()):
            assert p == (want(f"{c}#{turn // 4}") if c == hot else expect[c])

    # a rescale re-deal: two old shards' states and pending rows over P
    Shard = StateShard.__ray_metadata__.modified_class
    t1 = stage1(tbl)
    wm = int(np.median(t1["ts"].cast(pa.int64()).to_numpy()))
    old = [Shard(spec, p, str(tmp_path / "data"), {}) for p in range(2)]
    for p, sh in enumerate(old):
        sh.process(0, wm, t1.filter(_owned(t1, 2, p)), write=False)
    assert any(sh.states for sh in old) and any(sh.pending for sh in old)
    paths = [sh.snapshot(str(tmp_path / "ckpt"), 0)["path"] for sh in old]
    new = [Shard(spec, p, str(tmp_path / "data"), {}) for p in range(P)]
    for sh in new:
        sh.restore_resharded(paths, P)
    def carried(sh) -> list:
        return sh.states.table["conv_id"].to_pylist()

    assert {c: p for p, sh in enumerate(new) for c in carried(sh)} == {
        c: want(c) for sh in old for c in carried(sh)
    }
    assert {c: p for p, sh in enumerate(new) for c in placed(sh.pending)} == {
        c: want(c) for sh in old for t in sh.pending for c in t["conv_id"].to_pylist()
    }

    d = write_dataset(str(tmp_path / "layout"), 400, seed=3, num_batch_parts=P)
    layout = [pq.read_table(f"{d}/batch/part-{p:04d}.parquet") for p in range(P)]
    assert placed(layout) == {c: want(c) for c in raw["conv_id"].to_pylist()}
