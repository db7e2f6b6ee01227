"""Golden tests: vectorized Ray pipeline ≡ row-at-a-time oracle, byte-equal
under stable (conv_id, turn_idx) ordering (SURVEY §5, FIXTURES.md F3)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from osprey_ray.datagen import generate_label_events, generate_transcripts
from osprey_ray.oracle import oracle_results
from osprey_ray.pipelines.flagship import (
    flagship_spec,
    label_events_map,
    run_batch,
)
from osprey_ray.stages.stateless import compile_stateless
from osprey_ray.stages.stateful import StatefulPartitionEval


def _norm(v):
    if isinstance(v, np.ndarray):
        return list(v)
    if isinstance(v, np.generic):
        return v.item()
    return v


def assert_frames_equal(got: pd.DataFrame, want: pd.DataFrame):
    assert len(got) == len(want)
    for k in want.columns:
        assert k in got.columns, f"missing column {k}"
        g = [_norm(x) for x in got[k].tolist()]
        w = [_norm(x) for x in want[k].tolist()]
        bad = [i for i, (x, y) in enumerate(zip(g, w)) if x != y]
        assert not bad, f"column {k}: {len(bad)} mismatches, first at {bad[0]}: {g[bad[0]]!r} != {w[bad[0]]!r}"


@pytest.fixture(scope="module")
def small_data():
    tbl = generate_transcripts(3000, seed=42)
    lab = generate_label_events(tbl, 42)
    return tbl.drop_columns(["_arrival_us"]), label_events_map(lab)


def test_local_pipeline_matches_oracle(small_data):
    """Single-process (no Ray) stage1+stage2 vs oracle."""
    clean, lmap = small_data
    spec = flagship_spec()
    t1 = compile_stateless(spec)(clean)
    out = StatefulPartitionEval(spec, lmap)(t1)
    got = (
        out.to_pandas()
        .sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)
    )
    want = pd.DataFrame(oracle_results(clean, spec, lmap))
    assert_frames_equal(got, want)


def test_ray_pipeline_matches_oracle(small_data, ray_session):
    """Full Ray Data pipeline (multi-block, multi-partition shuffle)."""
    import ray.data as rd

    clean, lmap = small_data
    spec = flagship_spec()
    ds = rd.from_arrow(clean).repartition(7)
    res = run_batch(ds, spec, lmap, num_partitions=5)
    got = (
        res.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    )
    want = pd.DataFrame(oracle_results(clean, spec, lmap))
    assert_frames_equal(got, want)


def test_exchange_path_matches_dataset_path(small_data, ray_session, tmp_path):
    """run_batch_exchange (explicit task graph) ≡ run_batch (Dataset
    groupby) ≡ oracle."""
    import pyarrow.parquet as pq

    from osprey_ray.pipelines.flagship import run_batch_exchange

    clean, lmap = small_data
    spec = flagship_spec()
    files = []
    for i in range(4):
        p = str(tmp_path / f"in-{i}.parquet")
        pq.write_table(clean.slice(i * 800, 800), p)
        files.append(p)
    out = run_batch_exchange(files, spec, lmap, num_partitions=6)
    got = (
        out.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    )
    want = pd.DataFrame(oracle_results(clean, spec, lmap))
    assert_frames_equal(got, want)


def test_kitchen_sink_spec_matches_oracle(small_data):
    """Extended kernel-coverage ruleset (list extraction, tokenize, hashes,
    entities, buckets, sampling, experiments) — engine ≡ oracle."""
    from osprey_ray.pipelines.flagship import kitchen_sink_spec

    clean, lmap = small_data
    spec = kitchen_sink_spec()
    t1 = compile_stateless(spec)(clean)
    out = StatefulPartitionEval(spec, lmap)(t1)
    got = out.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    want = pd.DataFrame(oracle_results(clean, spec, lmap))
    assert_frames_equal(got, want)


def test_clean_batch_parity():
    """Vectorized clean_batch ≡ scalar _clean_string on adversarial text."""
    import pyarrow as pa

    from osprey_ray.kernels.strings import _clean_string, clean_batch

    samples = [
        "FRĖE  M0ney", "f r e e  m o n e y", "straße & STRASSE", "Ĉafé",
        "ΑΒΓ αβγ ς σ", "хорошо па", "l33t $p34k @ll", "ﬁne ligature", "",
        "à́b", "emoji 😀 mix", "tab\tand\nnewline",
    ]
    for rs in (False, True):
        for rp in (False, True):
            got = clean_batch(pa.array(samples), remove_spaces=rs, remove_punct=rp).to_pylist()
            want = [_clean_string(s, remove_spaces=rs, remove_punct=rp) for s in samples]
            assert got == want, (rs, rp, got, want)


def test_exchange_write_dir_layout(small_data, ray_session, tmp_path):
    """run_batch_exchange(write_dir=...) writes one file per non-empty
    partition (resumable layout) whose union equals the in-memory result."""
    import glob

    import pyarrow.parquet as pq

    from osprey_ray.pipelines.flagship import run_batch_exchange

    clean, lmap = small_data
    spec = flagship_spec()
    files = []
    for i in range(3):
        p = str(tmp_path / f"in-{i}.parquet")
        pq.write_table(clean.slice(i * 1000, 1000), p)
        files.append(p)
    outdir = str(tmp_path / "out")
    paths = run_batch_exchange(files, spec, lmap, num_partitions=8, write_dir=outdir)
    assert all(p.endswith(".parquet") for p in paths)
    written = pa.concat_tables([pq.read_table(p) for p in sorted(glob.glob(outdir + "/*.parquet"))])
    direct = run_batch_exchange(files, spec, lmap, num_partitions=8)
    a = written.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    b = direct.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    assert len(a) == len(b) > 2900  # 3000 minus the planted ~1% duplicates
    assert a["conv_id"].tolist() == b["conv_id"].tolist()
    assert [list(x) for x in a["__verdicts"]] == [list(x) for x in b["__verdicts"]]


def _assert_states_equal(a, b, path="states"):
    """Deep equality of carried state, value types included (int vs
    np.int64, int64 buffer arrays, frozenset vs None)."""
    assert type(a) is type(b), f"{path}: {type(a).__name__} != {type(b).__name__}"
    if isinstance(a, dict):
        assert a.keys() == b.keys(), f"{path}: keys {sorted(a)} != {sorted(b)}"
        for k in a:
            _assert_states_equal(a[k], b[k], f"{path}[{k!r}]")
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b), f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_states_equal(x, y, f"{path}[{i}]")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b), f"{path}: {a!r} != {b!r}"
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


@pytest.mark.parametrize("k", [2, 7, 40])
@pytest.mark.parametrize("spec_name", ["flagship_spec", "flagship_sql_spec", "kitchen_sink_spec"])
def test_epoch_split_matches_one_shot(small_data, spec_name, k):
    """Carried state is exact across epoch cuts: the rows cut in (ts,
    conv_id, turn_idx) order into k epochs, each evaluated from the state
    the previous one left, equal one-shot evaluation column by column and
    leave the same final ``states`` (types included)."""
    from osprey_ray.pipelines import flagship
    from osprey_ray.stages.stateless import split_rules
    from osprey_ray.stages.stateful import eval_released, sort_and_dedup
    from osprey_ray.state.labels import LabelStore

    clean, lmap = small_data
    spec = getattr(flagship, spec_name)()
    lev = lmap if spec_name == "flagship_spec" else {}
    rp = split_rules(spec)
    t1 = compile_stateless(spec)(clean)

    one_states: dict = {}
    want, _ = eval_released(
        sort_and_dedup(t1, one_states), spec, rp, one_states, LabelStore(), lev
    )

    arrival = t1.take(
        pc.sort_indices(
            t1,
            sort_keys=[("ts", "ascending"), ("conv_id", "ascending"), ("turn_idx", "ascending")],
        )
    )
    states: dict = {}
    store = LabelStore()
    outs = []
    cuts = np.linspace(0, arrival.num_rows, k + 1).astype(int)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        epoch = sort_and_dedup(arrival.slice(lo, hi - lo), states)
        if epoch.num_rows:
            out, _ = eval_released(epoch, spec, rp, states, store, lev)
            outs.append(out)
    got = pa.concat_tables(outs)
    assert got.num_rows == want.num_rows
    _cmp_tables(got, want)
    _assert_states_equal(states, one_states)


def test_sliding_window_far_future_no_overflow():
    """Sliding windows over conversations whose summed time spans exceed
    int64 (each one turn at 1 s and four turns near year 8940) still count
    exactly: 1..4 per conversation, as the oracle says."""
    import datetime as dt

    from osprey_ray.expr import col, lit
    from osprey_ray.rules import IncrementWindow, Rule, RuleSpec

    far = int((dt.datetime(8940, 1, 1) - dt.datetime(1970, 1, 1)).total_seconds() * 1e6)
    n_conv = 60
    conv, turn, ts = [], [], []
    for c in range(n_conv):
        stamps = [1_000_000] + [far + c * 1_000_000 + j * 10_000_000 for j in range(4)]
        conv += [f"c{c:03d}"] * 5
        turn += list(range(5))
        ts += stamps
    tbl = pa.table(
        {
            "conv_id": pa.array(conv, pa.string()),
            "turn_idx": pa.array(turn, pa.int32()),
            "role": pa.array(["user"] * len(conv), pa.string()),
            "text": pa.array(["x"] * len(conv), pa.large_string()),
            "tool": pa.array([None] * len(conv), pa.string()),
            "ts": pa.array(ts, pa.timestamp("us")),
        }
    )
    spec = RuleSpec(
        stateful=[IncrementWindow("W", when=lit(True), window_seconds=300)],
        rules=[Rule("RuleBurst", [col("W") >= 4], "4+ turns in 5 minutes")],
    )
    out = StatefulPartitionEval(spec, {})(compile_stateless(spec)(tbl))
    out = out.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    want = [r["W"] for r in oracle_results(tbl, spec, {})]
    assert want == [1, 1, 2, 3, 4] * n_conv
    assert out["W"].to_pylist() == want


def test_window_cap_parity(small_data):
    """max_events_cap exceeded: engine ≡ oracle for counts, WindowCount
    clamp, and bounded carry (the reference's 10k-event ZSET bound — here
    cap=5 so the fixture actually exceeds it)."""
    from osprey_ray.expr import col, lit
    from osprey_ray.rules import IncrementWindow, Rule, RuleSpec, WindowCount

    clean, _ = small_data
    spec = RuleSpec(
        stateful=[
            WindowCount("SeenBefore", source="AllTurns1h", window_seconds=3600),
            IncrementWindow("AllTurns1h", when=lit(True), window_seconds=3600, max_events_cap=5),
        ],
        rules=[Rule("RuleCapped", [col("AllTurns1h") >= 5], "at cap")],
    )
    t1 = compile_stateless(spec)(clean)
    out = StatefulPartitionEval(spec, {})(t1)
    got = out.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    assert got["AllTurns1h"].max() == 5  # cap actually binds
    assert got["SeenBefore"].max() == 5
    want = pd.DataFrame(oracle_results(clean, spec, {}))
    assert_frames_equal(got, want)


def test_spec_merge_and_gating(small_data):
    """Import (merge) + Require (gated dispatch) analogues: a merged,
    role-gated sub-spec fires only for matching rows; engine ≡ oracle."""
    from osprey_ray.expr import col, fn
    from osprey_ray.rules import DeclareVerdict, Feature, Rule, RuleSpec, WhenRules

    clean, _ = small_data
    base = RuleSpec(
        features=[Feature("Len", fn("StringLength", target=col("text")))],
        rules=[Rule("RuleLong", [col("Len") > 40], "long")],
        triggers=[WhenRules(["RuleLong"], [DeclareVerdict("long")])],
    )
    tool_file = RuleSpec(
        features=[Feature("IsMailTool", col("tool") == "mail")],
        rules=[Rule("RuleMail", [col("IsMailTool")], "mail tool")],
        triggers=[WhenRules(["RuleMail"], [DeclareVerdict("mail")])],
    ).gated(col("role") == "tool")
    spec = base.merge(tool_file)
    t1 = compile_stateless(spec)(clean)
    out = StatefulPartitionEval(spec, {})(t1).to_pandas()
    roles = clean.sort_by(
        [("conv_id", "ascending"), ("turn_idx", "ascending"), ("ts", "ascending")]
    )
    fired_mail = out[out["RuleMail"]]
    assert len(fired_mail) > 0
    got = out.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    want = pd.DataFrame(oracle_results(clean, spec, {}))
    assert_frames_equal(got, want)
    # duplicate names are rejected at merge time
    import pytest

    with pytest.raises(ValueError):
        base.merge(base)


def test_secret_taint_never_extracts(small_data):
    """Secret-tainted features evaluate (can gate rules) but never appear
    as output columns — grammar.py:339-394 can_extract semantics."""
    from osprey_ray.expr import col, fn
    from osprey_ray.rules import Feature, Rule, RuleSpec

    clean, _ = small_data
    spec = RuleSpec(
        features=[
            Feature("RawToken", fn("HashSha256", target=col("text")), secret=True),
            Feature("DerivedFromSecret", fn("StringLength", target=col("RawToken"))),
            Feature("PlainLen", fn("StringLength", target=col("text"))),
        ],
        rules=[Rule("RuleSecretGate", [col("DerivedFromSecret") == 64], "gated by secret")],
    )
    t1 = compile_stateless(spec)(clean)
    out = StatefulPartitionEval(spec, {})(t1)
    assert "RawToken" not in out.column_names
    assert "DerivedFromSecret" not in out.column_names  # taint propagates
    assert "PlainLen" in out.column_names
    assert all(out["RuleSecretGate"].to_pylist())  # still evaluated
    # oracle agrees on the output column set
    res = oracle_results(clean.slice(0, 50), spec, {})
    assert "RawToken" not in res[0] and "DerivedFromSecret" not in res[0]
    assert "PlainLen" in res[0]


def test_bulk_label_job(small_data, ray_session):
    """Bulk-label batch path (§3.3): mutations for conversations with >=k
    rule fires, cross-checked against the oracle results."""
    import ray.data as rd

    from osprey_ray.pipelines.flagship import bulk_label

    clean, lmap = small_data
    spec = flagship_spec()
    res = run_batch(rd.from_arrow(clean), spec, lmap, num_partitions=4)
    bl = bulk_label(res, "RuleSpam", 2, "spam_suspect", 3600).to_pandas()
    want = pd.DataFrame(oracle_results(clean, spec, lmap))
    per_conv = want.groupby("conv_id")["RuleSpam"].sum()
    expect = sorted(per_conv[per_conv >= 2].index)
    assert sorted(bl["conv_id"]) == expect
    assert (bl["status"] == "added").all()


def test_dedup_and_determinism(small_data):
    clean, lmap = small_data
    spec = flagship_spec()
    t1 = compile_stateless(spec)(clean)
    out1 = StatefulPartitionEval(spec, lmap)(t1)
    out2 = StatefulPartitionEval(spec, lmap)(t1)
    assert out1.equals(out2)
    # dedup removed the planted ~1% duplicates
    keys = set(zip(out1["conv_id"].to_pylist(), out1["turn_idx"].to_pylist()))
    assert len(keys) == out1.num_rows
    assert out1.num_rows < clean.num_rows


def test_mixed_label_conjunct_matches_oracle(small_data):
    """A single conjunct mixing a HasLabel feature with an ordinary feature
    (or_(IsExec, HasSpamLabel)) routed through the sparse label walk must not
    crash and must match the oracle (ADVICE r1: RowContext KeyError)."""
    from osprey_ray.expr import col, fn, lit, or_
    from osprey_ray.rules import (
        DeclareVerdict,
        Feature,
        HasLabel,
        LabelAdd,
        Rule,
        RuleSpec,
        WhenRules,
    )

    clean, lmap = small_data
    spec = RuleSpec(
        features=[
            Feature("IsExec", col("tool") == "exec"),
            Feature("IsSpamText", fn("CheckCensorized", target=col("text"), words=("free money",))),
        ],
        stateful=[HasLabel("HasSpamLabel", label="spam_suspect", status="added")],
        rules=[
            Rule("RuleSeed", [col("IsSpamText")]),
            Rule("RuleMixed", [or_(col("IsExec"), col("HasSpamLabel"))]),
        ],
        triggers=[
            WhenRules(["RuleSeed"], [LabelAdd("spam_suspect", expires_after=3600)]),
            WhenRules(["RuleMixed"], [DeclareVerdict("mixed"), LabelAdd("mixed_mark")]),
        ],
    )
    spec.validate()
    t1 = compile_stateless(spec)(clean)
    out = StatefulPartitionEval(spec, lmap)(t1)
    got = out.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    want = pd.DataFrame(oracle_results(clean, spec, lmap))
    assert_frames_equal(got, want)


def _write_parts(tbl, tmp_path, n_files=4):
    import pyarrow.parquet as pq

    files = []
    rows = len(tbl)
    step = (rows + n_files - 1) // n_files
    for i in range(n_files):
        p = str(tmp_path / f"in-{i}.parquet")
        pq.write_table(tbl.slice(i * step, step), p)
        files.append(p)
    return files


def _cmp_tables(got, want):
    g = got.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    w = want.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    assert sorted(g.columns) == sorted(w.columns)
    assert_frames_equal(g[sorted(g.columns)], w[sorted(w.columns)])


def test_salted_matches_unsalted(small_data, ray_session, tmp_path):
    """Hot-conv salting (north_star): salting EVERY conversation with tiny
    blocks produces byte-equal output to the whole-key exchange — the
    summary-scan carry protocol is exact across window/tumbling/session/CEP
    block boundaries."""
    from osprey_ray.pipelines.flagship import flagship_sql_spec, run_batch_exchange
    from osprey_ray.stages.salted import run_batch_salted

    clean, _ = small_data
    spec = flagship_sql_spec()
    files = _write_parts(clean, tmp_path)
    base = run_batch_exchange(files, spec, {}, num_partitions=8)
    convs = clean["conv_id"].unique().to_pylist()
    salted = run_batch_salted(
        files, spec, num_partitions=8, block_turns=64, hot_convs=convs
    )
    assert salted.num_rows == base.num_rows
    _cmp_tables(salted, base)


def test_salted_kvcache_windowcount(small_data, ray_session, tmp_path):
    """Salting with the remaining saltable state families: WindowCount
    (prior-turns view of a window buffer) and KvCache (TTL'd last write)."""
    from osprey_ray.expr import col, fn
    from osprey_ray.pipelines.flagship import run_batch_exchange
    from osprey_ray.rules import (
        Feature,
        IncrementWindow,
        KvCache,
        Rule,
        RuleSpec,
        WindowCount,
    )
    from osprey_ray.stages.salted import run_batch_salted

    clean, _ = small_data
    spec = RuleSpec(
        features=[
            Feature("IsExec", col("tool") == "exec"),
            Feature("ShortText", fn("StringLength", target=col("text")) < 40),
        ],
        stateful=[
            WindowCount("ExecSeen", source="ExecVel", window_seconds=900),
            IncrementWindow("ExecVel", when=col("IsExec"), window_seconds=900),
            KvCache("LastExecText", set_when=col("IsExec"), value=col("text"), ttl_seconds=3600),
        ],
        rules=[Rule("RuleExecVel", [col("ExecVel") >= 2])],
        triggers=[],
    )
    spec.validate()
    files = _write_parts(clean, tmp_path)
    base = run_batch_exchange(files, spec, {}, num_partitions=8)
    convs = clean["conv_id"].unique().to_pylist()
    salted = run_batch_salted(
        files, spec, num_partitions=8, block_turns=50, hot_convs=convs
    )
    assert salted.num_rows == base.num_rows
    _cmp_tables(salted, base)


def test_salted_rejects_label_specs(small_data):
    from osprey_ray.pipelines.flagship import flagship_spec
    from osprey_ray.stages.salted import run_batch_salted

    with pytest.raises(ValueError, match="label"):
        run_batch_salted([], flagship_spec())


@pytest.mark.parametrize("block_turns", [3, 7, 50])
@pytest.mark.parametrize("spec_name", ["kitchen_sink_spec", "flagship_sql_spec"])
def test_salting_protocol_no_ray(small_data, spec_name, block_turns):
    """The carve → scan → seeded-eval protocol in one process: every
    conversation split into (conv, turn_idx // B) blocks, each evaluated
    from its scanned seed, equals whole-conversation evaluation — covering
    the TumblingSum/Max/Distinct partials, incl. the saturated distinct cap."""
    from osprey_ray.pipelines import flagship
    from osprey_ray.stages.salted import carve_hot_blocks, eval_seeded_blocks, scan_seeds
    from osprey_ray.stages.stateful import eval_released, sort_and_dedup
    from osprey_ray.stages.stateless import split_rules
    from osprey_ray.state.labels import LabelStore

    clean, _ = small_data
    spec = getattr(flagship, spec_name)()
    rule_plans = split_rules(spec)
    tbl = sort_and_dedup(compile_stateless(spec)(clean), {})
    want, _ = eval_released(tbl, spec, rule_plans, {}, LabelStore(), {}, persist=False)
    hot = frozenset(clean["conv_id"].to_pylist())
    cold, held, summaries = carve_hot_blocks(tbl, spec, hot, block_turns)
    assert cold.num_rows == 0 and len(held) > len(hot)
    got = eval_seeded_blocks(held, scan_seeds(summaries, {}, spec), spec, rule_plans)
    assert got.num_rows == want.num_rows
    _cmp_tables(got, want)
    if spec_name == "kitchen_sink_spec":
        assert max(want["ToolsCapped"].to_pylist()) == 3  # the cap saturates


def _label_fields_spec():
    """Spec exercising all three LabelEffect fields
    (engine/language_types/labels.py:35-42): a seed rule adds a delayed
    label, a suppressed effect that must never land, and a
    dependent_rule-gated effect."""
    from osprey_ray.expr import col, fn
    from osprey_ray.rules import (
        DeclareVerdict,
        Feature,
        HasLabel,
        LabelAdd,
        Rule,
        RuleSpec,
        WhenRules,
    )

    return RuleSpec(
        features=[
            Feature("IsSpamText", fn("CheckCensorized", target=col("text"), words=("free money",))),
            Feature("IsExec", col("tool") == "exec"),
        ],
        stateful=[
            HasLabel("HasDelayed", label="delayed_mark", status="added"),
            HasLabel("HasSuppressed", label="ghost_mark", status="added"),
            HasLabel("HasGated", label="gated_mark", status="added"),
        ],
        rules=[
            Rule("RuleSeed", [col("IsSpamText")]),
            Rule("RuleGate", [col("IsExec")]),
            Rule("RuleSawDelayed", [col("HasDelayed")]),
        ],
        triggers=[
            WhenRules(
                ["RuleSeed"],
                [
                    LabelAdd("delayed_mark", delay_action_by=600.0, expires_after=7200),
                    LabelAdd("ghost_mark", suppressed=True),
                    LabelAdd("gated_mark", dependent_rule="RuleGate"),
                ],
            ),
            WhenRules(["RuleSawDelayed"], [DeclareVerdict("saw_delayed")]),
        ],
    )


def test_label_effect_fields_match_oracle(small_data):
    """suppressed / dependent_rule / delay_action_by: vectorized engine ≡
    row-at-a-time oracle on the full corpus, and the suppressed label is
    never observed anywhere."""
    clean, lmap = small_data
    spec = _label_fields_spec()
    spec.validate()
    t1 = compile_stateless(spec)(clean)
    out = StatefulPartitionEval(spec, lmap)(t1)
    got = out.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    want = pd.DataFrame(oracle_results(clean, spec, lmap))
    assert_frames_equal(got, want)
    assert not got["HasSuppressed"].any(), "suppressed effect leaked into state"
    # the corpus plants 'free money' text, so the delayed label must land
    assert got["HasDelayed"].any()


def test_label_delay_visibility_boundary():
    """A delayed LabelAdd is invisible strictly before ts_eff = fire ts +
    delay and visible from the first turn at/after it; the mutation stream
    records the EFFECTIVE timestamp and the firing-rule reason."""
    import pyarrow as pa

    from osprey_ray.stages.stateful import eval_released
    from osprey_ray.stages.stateless import compile_stateless as _cs
    from osprey_ray.state.labels import LabelStore
    from osprey_ray.stages.stateless import split_rules

    spec = _label_fields_spec()
    spec.validate()
    base_us = 1_600_000_000_000_000
    tbl = pa.table(
        {
            "conv_id": ["c1"] * 4,
            "turn_idx": pa.array([0, 1, 2, 3], pa.int32()),
            "role": ["user"] * 4,
            "text": ["free money now", "hi", "hi", "hi"],
            "tool": ["none", "none", "none", "none"],
            "ts": pa.array(
                [base_us, base_us + 300_000_000, base_us + 600_000_000, base_us + 900_000_000],
                pa.timestamp("us"),
            ),
        }
    )
    t1 = _cs(spec)(tbl)
    store = LabelStore()
    out, muts = eval_released(t1, spec, split_rules(spec), {}, store, {})
    has = out["HasDelayed"].to_pylist()
    # delay 600s: fired at t0, effective at t0+600s == turn 2's ts
    assert has == [False, False, True, True]
    assert out["HasSuppressed"].to_pylist() == [False] * 4
    assert out["HasGated"].to_pylist() == [False] * 4  # gate rule never true
    assert len(muts) == 1
    cid, ts_eff, lbl, status, reason = muts[0]
    assert (cid, lbl, status) == ("c1", "delayed_mark", "added")
    assert ts_eff == base_us + 600_000_000
    assert reason == "RuleSeed"
    # verdict trigger reading the delayed label fires only from turn 2
    v = out["__verdicts"].to_pylist()
    assert v == [[], [], ["saw_delayed"], ["saw_delayed"]]


def test_label_dependent_rule_applies_and_records_reason():
    """dependent_rule true → effect applied, dependent rule recorded in the
    mutation reason (output_sink.py:143-146)."""
    import pyarrow as pa

    from osprey_ray.stages.stateful import eval_released
    from osprey_ray.stages.stateless import compile_stateless as _cs
    from osprey_ray.state.labels import LabelStore
    from osprey_ray.stages.stateless import split_rules

    spec = _label_fields_spec()
    spec.validate()
    base_us = 1_600_000_000_000_000
    tbl = pa.table(
        {
            "conv_id": ["c1", "c1"],
            "turn_idx": pa.array([0, 1], pa.int32()),
            "role": ["user"] * 2,
            "text": ["free money now", "hi"],
            "tool": ["exec", "none"],  # gate true on the firing turn
            "ts": pa.array([base_us, base_us + 60_000_000], pa.timestamp("us")),
        }
    )
    t1 = _cs(spec)(tbl)
    out, muts = eval_released(t1, spec, split_rules(spec), {}, LabelStore(), {})
    assert out["HasGated"].to_pylist() == [False, True]
    gated = [m for m in muts if m[2] == "gated_mark"]
    assert len(gated) == 1
    assert gated[0][4] == "RuleGate,RuleSeed"  # sorted CSV incl. dependent rule


def test_exchange_resume_skips_finished_partitions(small_data, ray_session, tmp_path):
    """resume=True recomputes only missing partition files: surviving files
    are untouched (same inode+mtime), the deleted one regenerates, and the
    resumed union is byte-identical to the fresh run."""
    import glob
    import os

    import pyarrow.parquet as pq

    from osprey_ray.pipelines.flagship import run_batch_exchange

    clean, lmap = small_data
    spec = flagship_spec()
    files = []
    for i in range(3):
        p = str(tmp_path / f"in-{i}.parquet")
        pq.write_table(clean.slice(i * 1000, 1000), p)
        files.append(p)
    outdir = str(tmp_path / "out")
    paths = run_batch_exchange(files, spec, lmap, num_partitions=8, write_dir=outdir)
    want = pa.concat_tables([pq.read_table(p) for p in sorted(paths)])

    victim = sorted(glob.glob(outdir + "/*.parquet"))[1]
    os.remove(victim)
    before = {
        p: (os.stat(p).st_ino, os.stat(p).st_mtime_ns)
        for p in glob.glob(outdir + "/*.parquet")
    }
    paths2 = run_batch_exchange(
        files, spec, lmap, num_partitions=8, write_dir=outdir, resume=True
    )
    assert os.path.exists(victim)  # regenerated
    for p, stamp in before.items():  # survivors untouched
        assert (os.stat(p).st_ino, os.stat(p).st_mtime_ns) == stamp
    got = pa.concat_tables([pq.read_table(p) for p in sorted(paths2)])
    a = want.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    b = got.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    assert a["conv_id"].tolist() == b["conv_id"].tolist()
    assert [list(x) for x in a["__verdicts"]] == [list(x) for x in b["__verdicts"]]

    # fully-complete resume: nothing recomputed, paths still returned
    before = {
        p: (os.stat(p).st_ino, os.stat(p).st_mtime_ns)
        for p in glob.glob(outdir + "/*.parquet")
    }
    paths3 = run_batch_exchange(
        files, spec, lmap, num_partitions=8, write_dir=outdir, resume=True
    )
    assert sorted(paths3) == sorted(paths2)
    for p, stamp in before.items():
        assert (os.stat(p).st_ino, os.stat(p).st_mtime_ns) == stamp


def test_tumbling_sum_matches_oracle_with_weird_weights(small_data):
    """TumblingSum parity incl. the clamp edge cases: a weight expression
    that is sometimes negative (clamped to 0, preserving within-bucket
    monotonicity) and sometimes failed/null (contributes 0)."""
    from osprey_ray.expr import col, fn, lit
    from osprey_ray.rules import Feature, Rule, RuleSpec, TumblingSum

    clean, lmap = small_data
    spec = RuleSpec(
        features=[
            Feature("TxtLen", fn("StringLength", target=col("text"))),
            # negative for short turns; null when tool is null (int - null)
            Feature("W", col("TxtLen") - lit(40)),
        ],
        stateful=[
            TumblingSum("SumW", value=col("W"), bucket_seconds=3600),
            TumblingSum("SumLen", value=col("TxtLen"), bucket_seconds=900),
        ],
        rules=[Rule("RuleBig", [col("SumW") >= 100], "heavy hour")],
    )
    t1 = compile_stateless(spec)(clean)
    out = StatefulPartitionEval(spec, lmap)(t1)
    got = (
        out.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    )
    want = pd.DataFrame(oracle_results(clean, spec, lmap))
    assert_frames_equal(got, want)
    assert (got["SumW"] >= 0).all() and got["RuleBig"].any()


def test_tumbling_max_matches_oracle_with_weird_weights(small_data):
    """TumblingMax parity incl. the clamp edge cases: a value expression
    that is sometimes negative (clamped to 0) and sometimes failed/null
    (contributes 0), so the running max stays monotone non-negative within
    a bucket — the window-stream max-merge invariant."""
    from osprey_ray.expr import col, fn, lit
    from osprey_ray.rules import Feature, Rule, RuleSpec, TumblingMax

    clean, lmap = small_data
    spec = RuleSpec(
        features=[
            Feature("TxtLen", fn("StringLength", target=col("text"))),
            # negative for short turns; null when tool is null (int - null)
            Feature("W", col("TxtLen") - lit(40)),
        ],
        stateful=[
            TumblingMax("MaxW", value=col("W"), bucket_seconds=3600),
            TumblingMax("MaxLen", value=col("TxtLen"), bucket_seconds=900),
        ],
        rules=[Rule("RuleSpike", [col("MaxW") >= 30], "spiky hour")],
    )
    t1 = compile_stateless(spec)(clean)
    out = StatefulPartitionEval(spec, lmap)(t1)
    got = (
        out.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    )
    want = pd.DataFrame(oracle_results(clean, spec, lmap))
    assert_frames_equal(got, want)
    assert (got["MaxW"] >= 0).all() and got["RuleSpike"].any()
    # running max is monotone within each contiguous (conv, hour-bucket)
    # segment in processing order (buckets segment the turn_idx order, and
    # a non-monotone ts can revisit an hour value in a LATER segment, so we
    # group by contiguous runs, not by bucket value)
    tus = got["ts"].astype("datetime64[us]").astype("int64")
    hb = tus // 3_600_000_000
    seg = ((got["conv_id"] != got["conv_id"].shift()) | (hb != hb.shift())).cumsum()
    for _, g in got.groupby(seg, sort=False):
        assert g["MaxW"].is_monotonic_increasing


def test_tumbling_distinct_matches_oracle(small_data):
    """TumblingDistinct parity: running per-bucket distinct cardinality of
    a sometimes-null string expression (tool), plus a cap=2 variant to
    exercise split-invariant saturation (count pinned at cap, set
    dropped)."""
    from osprey_ray.expr import col
    from osprey_ray.rules import Rule, RuleSpec, TumblingDistinct

    clean, lmap = small_data
    spec = RuleSpec(
        features=[],
        stateful=[
            TumblingDistinct("ToolsHour", value=col("tool"), bucket_seconds=3600),
            TumblingDistinct(
                "ToolsCapped", value=col("tool"), bucket_seconds=3600, max_distinct_cap=2
            ),
            TumblingDistinct("Texts15m", value=col("text"), bucket_seconds=900),
        ],
        rules=[Rule("RuleBusy", [col("ToolsHour") >= 2], "diverse hour")],
    )
    t1 = compile_stateless(spec)(clean)
    out = StatefulPartitionEval(spec, lmap)(t1)
    got = (
        out.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    )
    want = pd.DataFrame(oracle_results(clean, spec, lmap))
    assert_frames_equal(got, want)
    assert (got["ToolsCapped"] <= 2).all()
    assert got["RuleBusy"].any()
    # capped variant == min(uncapped, cap) row-for-row
    assert (got["ToolsCapped"] == got["ToolsHour"].clip(upper=2)).all()
