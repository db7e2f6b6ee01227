"""Pure-numpy core tests for analytics helpers (no Ray session needed)."""

import numpy as np
import pyarrow as pa
import pytest

from osprey_ray.stages import stateful
from osprey_ray.stages.stateful import _group_search, _running_segment_max


def _range_counts(ts, gidx, W):
    """Per-row count of same-group rows with ts in [row_ts - W, row_ts]:
    the two ``_group_search`` calls ``q_sliding_window_counts`` makes."""
    starts = np.flatnonzero(np.r_[True, gidx[1:] != gidx[:-1]])
    lo = ts[starts] - W
    width = np.maximum.reduceat(ts, starts) - lo + 1
    return (_group_search(ts, gidx, ts, gidx, lo, width, "right")
            - _group_search(ts, gidx, ts - W, gidx, lo, width, "left"))


def _brute(ts, gidx, W):
    out = np.empty(len(ts), dtype=np.int64)
    for i in range(len(ts)):
        out[i] = np.sum((gidx == gidx[i]) & (ts >= ts[i] - W) & (ts <= ts[i]))
    return out


def test_group_search_range_counts_match_brute_force():
    rng = np.random.default_rng(7)
    n_groups, rows_per = 40, 25
    gidx = np.repeat(np.arange(n_groups), rows_per)
    ts = np.concatenate([np.sort(rng.integers(0, 10**13, size=rows_per).astype(np.int64))
                         for _ in range(n_groups)])
    W = 10**12
    want = _brute(ts, gidx, W)
    got = _range_counts(ts, gidx, W)
    assert (got == want).all()


def test_group_search_chunked_runs_identical(monkeypatch):
    """The int64-overflow guard path: forcing chunks of a few groups must
    produce bit-identical counts to the single-chunk path."""
    rng = np.random.default_rng(11)
    n_groups, rows_per = 37, 11
    gidx = np.repeat(np.arange(n_groups), rows_per)
    ts = np.concatenate([np.sort(rng.integers(0, 10**13, size=rows_per).astype(np.int64))
                         for _ in range(n_groups)])
    W = 5 * 10**11
    one_run = _range_counts(ts, gidx, W)
    span = float(ts.max() - ts.min() + W + 1)  # at least any group's width
    for groups_per_chunk in (1, 2, 3, 7, 36, 37, 100):
        monkeypatch.setattr(stateful, "_CHUNK", span * groups_per_chunk)
        chunked = _range_counts(ts, gidx, W)
        assert (chunked == one_run).all(), f"{groups_per_chunk} groups per chunk diverged"
    assert (one_run == _brute(ts, gidx, W)).all()


def test_group_search_would_overflow_case():
    """A span × group-count product that exceeds int64 must still be
    correct (a single composite range would wrap silently)."""
    span_ts = np.int64(9 * 10**17)  # width ≈ 1.35e18 per group
    n_groups, rows_per = 50, 3
    gidx = np.repeat(np.arange(n_groups), rows_per)
    ts = np.tile(np.array([0, span_ts // 2, span_ts], dtype=np.int64), n_groups)
    W = int(span_ts // 2)
    got = _range_counts(ts, gidx, W)
    assert (got == _brute(ts, gidx, W)).all()
    # sanity: the groups' composite range really exceeds int64 here
    assert float(ts.max() - ts.min() + W + 1) * n_groups > 2.0**63


def test_running_segment_max_near_int64_limit():
    """Values near 2**62 across several segments: ``seg * (max + 1)``
    would overflow int64, so the segments run in chunks."""
    rng = np.random.default_rng(5)
    n = 400
    vals = rng.integers(2**62 - 10**6, 2**62, n, dtype=np.int64)
    low = rng.random(n) < 0.3
    vals[low] = rng.integers(0, 10**6, int(low.sum()))
    new_seg = rng.random(n) < 0.05
    new_seg[0] = True
    got = _running_segment_max(vals, new_seg, 0)
    seg = np.cumsum(new_seg)
    want = np.empty(n, dtype=np.int64)
    for s in np.unique(seg):
        m = seg == s
        want[m] = np.maximum.accumulate(vals[m])
    assert len(np.unique(seg)) > 3
    assert (got == want).all()


def test_range_join_boundaries_and_cross_user_isolation(ray_session, tmp_path):
    """Window is [ts, ts+1h): the anchor itself counts, an event at
    exactly +1h does not, and another user's events never leak in."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from osprey_ray.pipelines.analytics import q_range_join

    us = 1_000_000
    h = 3600 * us
    base = 1_700_000_000 * us
    rows = [
        # user 1: anchor at t0; events at +30min (in), +1h (out), -1s (out)
        (1, 1, base, "purchase", 1.0),
        (2, 1, base + 30 * 60 * us, "click", 2.0),
        (3, 1, base + h, "click", 4.0),
        (4, 1, base - us, "view", 8.0),
        # user 2: event inside user 1's window must not leak
        (5, 2, base + 10 * 60 * us, "click", 16.0),
        # user 2's own anchor, alone
        (6, 2, base + 2 * h, "purchase", 32.0),
    ]
    t = pa.table(
        {
            "event_id": pa.array([r[0] for r in rows], pa.int64()),
            "user_id": pa.array([r[1] for r in rows], pa.int64()),
            "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
            "event_type": pa.array([r[3] for r in rows], pa.string()),
            "value": pa.array([r[4] for r in rows], pa.float64()),
        }
    )
    pq.write_table(t, str(tmp_path / "events.parquet"))
    out = (
        q_range_join(str(tmp_path)).to_pandas().sort_values("anchor_id").reset_index(drop=True)
    )
    assert out["anchor_id"].tolist() == [1, 6]
    assert out["n_in_window"].tolist() == [2, 1]  # anchor + the +30min click
    assert out["cents_in_window"].tolist() == [300, 3200]


def test_range_join_vs_bruteforce_random(ray_session, tmp_path):
    """Randomized (fixed-seed) cross-check: co-partitioned searchsorted
    must equal the O(n²) python brute force on a dense multi-user input
    with duplicate timestamps."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from osprey_ray.pipelines.analytics import q_range_join

    rng = np.random.default_rng(123)
    n = 2000
    us = 1_000_000
    base = 1_700_000_000 * us
    uid = rng.integers(0, 40, n)
    ts = base + rng.integers(0, 3 * 3600, n) * us  # 3h span -> dense windows
    etype = rng.choice(["purchase", "click", "view"], n, p=[0.2, 0.5, 0.3])
    val = rng.random(n) * 10
    t = pa.table(
        {
            "event_id": pa.array(np.arange(n), pa.int64()),
            "user_id": pa.array(uid, pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us")),
            "event_type": pa.array(etype, pa.string()),
            "value": pa.array(val, pa.float64()),
        }
    )
    pq.write_table(t, str(tmp_path / "events.parquet"))
    got = (
        q_range_join(str(tmp_path))
        .to_pandas()
        .sort_values("anchor_id")
        .reset_index(drop=True)
    )
    W = 3_600_000_000
    cents = np.floor(val * 100 + 0.5).astype(np.int64)
    want = {}
    for i in range(n):
        if etype[i] != "purchase":
            continue
        m = (uid == uid[i]) & (ts >= ts[i]) & (ts < ts[i] + W)
        want[i] = (int(m.sum()), int(cents[m].sum()))
    assert got["anchor_id"].tolist() == sorted(want)
    for _, r in got.iterrows():
        assert (r["n_in_window"], r["cents_in_window"]) == want[r["anchor_id"]]


def test_timeseries_week_buckets_align_to_iso_monday(ray_session, tmp_path):
    """The granularity ladder's week step must agree with DuckDB
    date_trunc('week') (ISO Monday), like Druid's week granularity."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from osprey_ray.pipelines.analytics import q_timeseries

    rng = np.random.default_rng(11)
    base = 1_690_000_000  # 2023-07-22, a Saturday
    ts = (base + rng.integers(0, 120 * 86_400, 500)) * 1_000_000
    tbl = pa.table(
        {
            "event_id": pa.array(np.arange(500), pa.int64()),
            "user_id": pa.array(np.zeros(500, np.int64), pa.int64()),
            "event_type": pa.array(["a"] * 250 + ["b"] * 250),
            "ts": pa.array(ts, pa.timestamp("us")),
            "value": pa.array(rng.uniform(0, 10, 500).round(2)),
            "props": pa.array(["{}"] * 500),
        }
    )
    pq.write_table(tbl, str(tmp_path / "events.parquet"))
    got = (
        q_timeseries(str(tmp_path), "week")
        .to_pandas()
        .sort_values(["event_type", "bucket_s"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{tmp_path}/events.parquet'")
    want = con.execute(
        "SELECT event_type, CAST(epoch(date_trunc('week', ts)) AS BIGINT) AS bucket_s, "
        "CAST(SUM(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT) AS value_cents, COUNT(*) AS n "
        "FROM events GROUP BY 1, 2 ORDER BY 1, 2"
    ).df()
    assert got["bucket_s"].tolist() == want["bucket_s"].tolist()
    assert got["value_cents"].tolist() == want["value_cents"].tolist()
    assert got["n"].tolist() == want["n"].tolist()
    # minute/day steps subdivide consistently: same grand totals
    for g in ("minute", "day"):
        d = q_timeseries(str(tmp_path), g).to_pandas()
        assert int(d["n"].sum()) == 500
        assert int(d["value_cents"].sum()) == int(got["value_cents"].sum())


def test_scan_page_keyset_pagination(ray_session):
    """Pages concatenate to the full (ts, event_id)-ordered table: no
    gaps, no duplicates, page size respected, final page short."""
    import pandas as pd
    import ray.data as rd

    from osprey_ray.io import read_parquet_clean
    from osprey_ray.query import scan_page

    sf = "/root/testdata/sf0.001"
    full = (
        read_parquet_clean(f"{sf}/events.parquet", columns=["event_id", "event_type", "ts", "value"])
        .to_pandas()
    )
    full["__ts_us"] = full["ts"].astype("int64") // 1000
    full = full.sort_values(["__ts_us", "event_id"]).reset_index(drop=True)

    pages = []
    after = None
    while True:
        ds = read_parquet_clean(f"{sf}/events.parquet", columns=["event_id", "event_type", "ts", "value"])
        page, after = scan_page(ds, page_size=700, after=after)
        pages.append(page.to_pandas())
        if after is None:
            break
    got = pd.concat(pages, ignore_index=True)
    assert len(got) == len(full)
    assert got["event_id"].tolist() == full["event_id"].tolist()
    assert all(len(p) == 700 for p in pages[:-1]) and len(pages[-1]) <= 700


def test_export_rows_cap(ray_session, tmp_path):
    from osprey_ray.io import read_parquet_clean
    from osprey_ray.query import export_rows

    ds = read_parquet_clean("/root/testdata/sf0.001/events.parquet", columns=["event_id"])
    n = ds.count()
    with pytest.raises(ValueError, match="cap"):
        export_rows(ds, str(tmp_path / "out"), max_rows=n - 1)
    assert export_rows(ds, str(tmp_path / "out"), max_rows=n) == n


def test_key_parts_sizes_from_cluster(ray_session):
    from osprey_ray.pipelines.analytics import _key_parts

    # explicit override wins
    assert _key_parts(128) == 128
    # inside the 4-CPU test session: floor of 64 holds (2*4 < 64)
    assert _key_parts() == 64


def test_group_search_probe_counts_bruteforce_parity(monkeypatch):
    """Probe rows in (a, a + W] of each anchor's group — the two
    ``_group_search`` calls ``q_cep_absence`` makes — equal a brute-force
    per-group window count, including the chunked (3 groups) path."""
    rng = np.random.default_rng(7)
    n = 600
    _, gidx = np.unique(rng.integers(0, 25, n), return_inverse=True)
    gidx = np.sort(gidx)
    ts = rng.integers(0, 5000, n)
    order = np.lexsort((ts, gidx))
    gidx, ts = gidx[order], ts[order]
    amask = rng.random(n) < 0.3
    pmask = (~amask) & (rng.random(n) < 0.5)
    W = 300
    starts = np.flatnonzero(np.r_[True, gidx[1:] != gidx[:-1]])
    lo = ts[starts]
    width = np.maximum.reduceat(ts, starts) - lo + W + 1
    a_ts, a_g = ts[amask], gidx[amask]
    p_ts, p_g = ts[pmask], gidx[pmask]
    want = np.array(
        [((p_g == g) & (p_ts > t) & (p_ts <= t + W)).sum()
         for t, g in zip(a_ts, a_g)],
        dtype=np.int64,
    )
    for chunk in (None, 3 * float(width.max())):
        if chunk is not None:
            monkeypatch.setattr(stateful, "_CHUNK", chunk)
        got = (_group_search(p_ts, p_g, a_ts + W, a_g, lo, width, "right")
               - _group_search(p_ts, p_g, a_ts, a_g, lo, width, "right"))
        assert (got == want).all(), chunk


def test_scd2_intervals_invariants(ray_session):
    """SCD2 output: per user, versions are 1..k, intervals chain
    (valid_to == next valid_from), exactly one open interval per user,
    and every user in events appears."""
    import pandas as pd
    import pyarrow.parquet as pq

    from osprey_ray.pipelines.analytics import q_scd2_intervals

    sf = "/root/testdata/sf0.001"
    got = q_scd2_intervals(sf).to_pandas().sort_values(
        ["user_id", "version"]).reset_index(drop=True)
    SENT = 9_999_999_999_999_999
    for uid, g in got.groupby("user_id"):
        assert g["version"].tolist() == list(range(1, len(g) + 1))
        vt, vf = g["valid_to_us"].to_numpy(), g["valid_from_us"].to_numpy()
        assert (vt[:-1] == vf[1:]).all()
        assert vt[-1] == SENT and (vt[:-1] != SENT).all()
        # runs alternate: consecutive intervals never share a type
        et = g["event_type"].tolist()
        assert all(a != b for a, b in zip(et, et[1:]))
    users = set(pq.read_table(f"{sf}/events.parquet", columns=["user_id"])
                ["user_id"].to_pylist())
    assert set(got["user_id"]) == users


def test_cdc_upsert_delete_semantics(ray_session):
    """Keys whose LAST mutation is a delete marker are absent; all others
    carry the last value by (ts, event_id)."""
    import pandas as pd
    import pyarrow.parquet as pq

    from osprey_ray.pipelines.analytics import q_cdc_upsert

    sf = "/root/testdata/sf0.001"
    got = q_cdc_upsert(sf).to_pandas()
    ev = pq.read_table(f"{sf}/events.parquet").to_pandas()
    ev["tus"] = ev["ts"].astype("int64")
    ev = ev.sort_values(["tus", "event_id"])
    last = ev.groupby(["user_id", "event_type"]).tail(1)
    want = last[last["event_id"] % 10 != 0]
    assert len(got) == len(want)
    m = got.merge(want, on=["user_id", "event_type"], how="inner")
    assert len(m) == len(got)
    assert (m["last_event_id"] == m["event_id"]).all()


def test_ewma_hourly_decay_halves(ray_session):
    """An hour with zero preceding 15 hours has ewma_num == n << 15; an
    anchor one hour after it adds the decayed half-weight."""
    import numpy as np

    from osprey_ray.pipelines.analytics import q_ewma_hourly

    got = q_ewma_hourly("/root/testdata/sf0.001").to_pandas()
    assert (got["ewma_num"] > 0).all()
    # reconstruct per type: the anchor hour's own count contributes << 15,
    # so ewma_num >= own count << 15 always, and equality holds when no
    # prior in-window hours exist
    for etype, g in got.groupby("event_type"):
        g = g.sort_values("hour_s")
        h = g["hour_s"].to_numpy()
        first = g.iloc[0]
        assert first["ewma_num"] % (1 << 15) == 0 or len(g) > 1
        # monotone sanity: every value at least the own-hour term floor
        assert (g["ewma_num"].to_numpy() >= (1 << 15)).all()


def test_skew_join_hot_path_equals_pure_shuffle(ray_session):
    """The skew-aware hybrid join is a PHYSICAL plan choice: forcing a
    synthetic hot set (the 4 busiest user_ids plus one key absent from the
    dim side) must produce exactly the rows of the pure-shuffle plan
    (empty hot set), and the hot path must actually carry rows."""
    import pandas as pd

    from osprey_ray.pipelines.analytics import q_skew_join

    sf = "/root/testdata/sf0.001"
    pure = (
        q_skew_join(sf, hot_keys=np.empty(0, dtype=np.int64))
        .to_pandas()
        .sort_values(["event_id"])
        .reset_index(drop=True)
    )
    hot_keys = np.array([7, 10, 12, 14, 10_000_000], dtype=np.int64)
    hybrid = (
        q_skew_join(sf, hot_keys=hot_keys)
        .to_pandas()
        .sort_values(["event_id"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(pure, hybrid)
    # the hot keys exist in the fact table, so the hot path carried rows
    assert hybrid["user_id"].isin([7, 10, 12, 14]).sum() > 0


def test_detect_hot_keys_finds_synthetic_whale(ray_session, tmp_path):
    """A key with half the fact rows is detected; uniform keys are not."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from osprey_ray.pipelines.analytics import _detect_hot_keys

    n = 40_000
    whale = np.full(n // 2, 77, dtype=np.int64)
    cold = np.arange(n // 2, dtype=np.int64) % 997
    keys = np.concatenate([whale, cold])
    t = pa.table(
        {"event_id": pa.array(np.arange(n), pa.int64()),
         "user_id": pa.array(keys, pa.int64())}
    )
    pq.write_table(t, tmp_path / "f.parquet")
    ds = rd.read_parquet(str(tmp_path / "f.parquet"))
    hot = _detect_hot_keys(ds, "user_id", "event_id")
    assert 77 in hot.tolist()
    assert len(hot) <= 16


def test_zonemap_prunes_boundary_partitions(ray_session, tmp_path):
    """The pruned read must touch strictly fewer partitions than were
    written (the boundary days' files never leave storage)."""
    from osprey_ray.pipelines.analytics import _zonemap_layout

    dirs, picked, lo, hi = _zonemap_layout("/root/testdata/sf0.001", str(tmp_path / "z"))
    assert len(picked) < len(dirs)
    assert len(picked) == len(dirs) - 2  # exactly the two boundary days drop
    for d in picked:
        assert lo <= int(d.rsplit("=", 1)[1]) <= hi


def test_merge_join_partition_invariance(ray_session):
    """The sort-merge join's range partitioning is a physical choice:
    1 partition and 32 partitions must produce identical aggregates, and
    they must match the hash-join answer computed over the same tables."""
    import pandas as pd

    from osprey_ray.pipelines.analytics import q_merge_join

    one = (
        q_merge_join("/root/testdata/sf0.001", n_parts=1)
        .to_pandas()
        .sort_values("p_brand")
        .reset_index(drop=True)
    )
    many = (
        q_merge_join("/root/testdata/sf0.001", n_parts=32)
        .to_pandas()
        .sort_values("p_brand")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(one, many)
    assert one["n_items"].sum() > 0


def test_union_by_name_pads_and_rejects_conflicts(ray_session, tmp_path):
    import pyarrow.parquet as pq
    import pytest

    from osprey_ray.io import read_parquet_union_by_name

    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    pq.write_table(
        pa.table({"id": pa.array([1, 2], pa.int64())}), str(tmp_path / "a/x.parquet")
    )
    pq.write_table(
        pa.table({"id": pa.array([3], pa.int64()), "v": pa.array([9.5], pa.float64())}),
        str(tmp_path / "b/x.parquet"),
    )
    got = (
        read_parquet_union_by_name([str(tmp_path / "a"), str(tmp_path / "b")])
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    assert list(got.columns) == ["id", "v"]
    assert got["v"].isna().tolist() == [True, True, False]

    (tmp_path / "c").mkdir()
    pq.write_table(
        pa.table({"id": pa.array(["s"], pa.string())}), str(tmp_path / "c/x.parquet")
    )
    with pytest.raises(TypeError, match="conflict on column 'id'"):
        read_parquet_union_by_name([str(tmp_path / "a"), str(tmp_path / "c")])


def test_dead_letter_routes_div_zero_rows(ray_session, tmp_path):
    """Rows with k=0 (divide-by-zero in the ratio feature) land in the
    DLQ with n_errors=1; healthy neighbors in the same batch are 'ok'."""
    import pyarrow.parquet as pq

    from osprey_ray.pipelines.analytics import q_dead_letter

    t = pa.table(
        {
            "event_id": pa.array([1, 2, 3], pa.int64()),
            "user_id": pa.array([1, 1, 1], pa.int64()),
            "ts": pa.array([1, 2, 3], pa.timestamp("us")),
            "event_type": ["a", "b", "c"],
            "value": pa.array([1.0, 2.0, 3.0], pa.float64()),
            "props": ['{"k": 5}', '{"k": 0}', '{"k": 7}'],
        }
    )
    pq.write_table(t, str(tmp_path / "events.parquet"))
    got = (
        q_dead_letter(str(tmp_path))
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    assert got["route"].tolist() == ["ok", "dlq", "ok"]
    assert got["n_errors"].tolist() == [0, 1, 0]


def test_zorder_blocks_bound_both_dimensions(ray_session):
    """The point of the Z-order layout: a one-dimensional user_id sort
    prunes user-range predicates perfectly but EVERY block overlaps any
    hour-range predicate; Z-order bounds blocks in BOTH dimensions, so
    the worst single-dimension predicate touches far fewer blocks.
    Measured as blocks-overlapped by width-32 range predicates on each
    dimension (min/max per contiguous block of the layout)."""
    from osprey_ray.pipelines.analytics import _morton16, _read

    t = (
        _read("/root/testdata/sf0.01", "events", ["event_id", "user_id", "ts"])
        .to_pandas()
    )
    x = (t["user_id"].to_numpy().astype(np.int64)) & 255
    y = ((t["ts"].astype("int64").to_numpy() // 1_000_000 // 3_600)) & 255
    morton = _morton16(x, y)

    def worst_dim_blocks(order, n_blocks=32, width=32):
        xs, ys = x[order], y[order]
        bounds = np.linspace(0, len(xs), n_blocks + 1).astype(int)
        spans = [
            (xs[a:b].min(), xs[a:b].max(), ys[a:b].min(), ys[a:b].max())
            for a, b in zip(bounds[:-1], bounds[1:])
            if b - a
        ]
        touched = {"x": [], "y": []}
        for q0 in range(0, 256 - width, 16):
            q1 = q0 + width
            touched["x"].append(
                sum(1 for x0, x1, _, _ in spans if x1 >= q0 and x0 <= q1)
            )
            touched["y"].append(
                sum(1 for _, _, y0, y1 in spans if y1 >= q0 and y0 <= q1)
            )
        return max(np.mean(touched["x"]), np.mean(touched["y"]))

    z_worst = worst_dim_blocks(np.argsort(morton, kind="stable"))
    lin_worst = worst_dim_blocks(np.argsort(x, kind="stable"))
    assert z_worst < 0.7 * lin_worst, (z_worst, lin_worst)


def test_throttle_caps_per_user_hour(ray_session, tmp_path):
    """5 events from one user in one hour, quota 2/hour: the first two
    (by ts, then event_id) survive; a second user is untouched."""
    import pyarrow.parquet as pq

    from osprey_ray.pipelines.analytics import q_throttle

    base = 3_600_000_000
    t = pa.table(
        {
            "event_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
            "user_id": pa.array([7, 7, 7, 7, 7, 9], pa.int64()),
            "ts": pa.array(
                [base + 10, base + 5, base + 20, base + 30, base + 5, base + 99],
                pa.timestamp("us"),
            ),
            "event_type": ["a"] * 6,
            "value": pa.array([1.0] * 6, pa.float64()),
            "props": ['{"k": 1}'] * 6,
        }
    )
    pq.write_table(t, str(tmp_path / "events.parquet"))
    got = (
        q_throttle(str(tmp_path), per_hour=2)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    # user 7, hour 1: order by (ts, event_id) = e2(ts5), e5(ts5), e1, e3, e4
    assert got["event_id"].tolist() == [2, 5, 6]
    assert got["quota_rank"].tolist() == [1, 2, 1]


def test_merge_join_expansion_kernel_bruteforce():
    """The vectorized searchsorted run-expansion at the heart of
    merge_join, against itertools brute force on random multisets
    (many-to-many, missing keys, duplicate runs on both sides)."""
    import itertools
    import random

    rng = random.Random(99)
    for _ in range(200):
        lk = np.sort(
            np.array([rng.randint(0, 8) for _ in range(rng.randint(0, 12))])
        )
        rk = np.sort(
            np.array([rng.randint(0, 8) for _ in range(rng.randint(0, 12))])
        )
        if len(lk) == 0 or len(rk) == 0:
            continue
        lo = np.searchsorted(rk, lk, side="left")
        hi = np.searchsorted(rk, lk, side="right")
        cnt = hi - lo
        total = int(cnt.sum())
        li = np.repeat(np.arange(len(lk)), cnt)
        ri = np.repeat(lo, cnt) + (
            np.arange(total) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        )
        got = sorted(zip(li.tolist(), ri.tolist()))
        want = sorted(
            (i, j)
            for (i, a), (j, b) in itertools.product(
                enumerate(lk), enumerate(rk)
            )
            if a == b
        )
        assert got == want


def test_asof_nearest_tie_goes_to_earlier(ray_session, tmp_path):
    """Click equidistant between two purchases: the EARLIER one wins;
    clicks with no same-user purchase emit nothing."""
    import pyarrow.parquet as pq

    from osprey_ray.pipelines.analytics import q_asof_nearest

    t = pa.table(
        {
            "event_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "user_id": pa.array([7, 7, 7, 9, 9], pa.int64()),
            "ts": pa.array([100, 200, 300, 50, 60], pa.timestamp("us")),
            "event_type": ["purchase", "click", "purchase", "click", "view"],
            "value": pa.array([1.0] * 5, pa.float64()),
            "props": ['{"k": 1}'] * 5,
        }
    )
    pq.write_table(t, str(tmp_path / "events.parquet"))
    got = (
        q_asof_nearest(str(tmp_path))
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    # user 7's click at 200 is equidistant (100 vs 300): earlier (100) wins;
    # user 9's click has no purchase -> dropped
    assert got["event_id"].tolist() == [2]
    assert got["nearest_purchase_ts"].astype("int64").tolist() == [100]

    # a partition whose clicks all belong to users without a purchase
    # emits nothing (one partition: user 11 only buys, user 12 only clicks)
    from unittest import mock

    from osprey_ray.pipelines import analytics

    pq.write_table(t.slice(0, 2).set_column(
        1, "user_id", pa.array([11, 12], pa.int64())), str(tmp_path / "events.parquet"))
    with mock.patch.object(analytics, "_key_parts", lambda P=None: 1):
        assert q_asof_nearest(str(tmp_path)).count() == 0


def test_overlap_join_vs_bruteforce_random(ray_session, tmp_path):
    """Randomized (fixed-seed) cross-check: the per-partition sweep
    identity (#{s_j<=e_i} - #{e_j<s_i} - 1) must equal the O(n²) brute
    force on a dense multi-supplier input with duplicate (okey, ln) rows
    and duplicate intervals."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from osprey_ray.pipelines.analytics import q_overlap_join

    rng = np.random.default_rng(7)
    n = 1500
    us_day = 86_400_000_000
    base = 1_600_000_000_000_000
    ok = rng.integers(0, 300, n)               # duplicates on purpose
    ln = rng.integers(1, 8, n)
    supp = rng.integers(0, 25, n)
    ship = base + rng.integers(0, 90, n) * us_day
    t = pa.table(
        {
            "l_orderkey": pa.array(ok, pa.int64()),
            "l_linenumber": pa.array(ln.astype(np.int32), pa.int32()),
            "l_suppkey": pa.array(supp, pa.int64()),
            "l_shipdate": pa.array(ship, pa.timestamp("us")),
        }
    )
    pq.write_table(t, str(tmp_path / "lineitem.parquet"))
    got = (
        q_overlap_join(str(tmp_path))
        .to_pandas()
        .sort_values(["l_suppkey", "rid"])
        .reset_index(drop=True)
    )
    # brute force: per supplier, count pairwise overlaps per interval
    s = ship.astype(np.int64)
    e = s + (1 + (ok * 7 + ln.astype(np.int64) * 3) % 28) * us_day
    rows = []
    for sp in np.unique(supp):
        idx = np.nonzero(supp == sp)[0]
        order = np.lexsort((e[idx], s[idx]))
        idx = idx[order]
        for rank, i in enumerate(idx, start=1):
            ov = sum(
                1
                for j in idx
                if j != i and s[j] <= e[i] and e[j] >= s[i]
            )
            rows.append((int(sp), rank, ov))
    import pandas as pd

    want = (
        pd.DataFrame(rows, columns=["l_suppkey", "rid", "n_overlap"])
        .sort_values(["l_suppkey", "rid"])
        .reset_index(drop=True)
    )
    # ranks among tied (s,e) duplicates are arbitrary both sides but carry
    # identical counts, so compare the full sorted triple multiset
    g = got[["l_suppkey", "rid", "n_overlap"]].astype("int64")
    assert sorted(map(tuple, g.values.tolist())) == sorted(
        map(tuple, want.values.tolist())
    )


def test_overlap_global_equals_keyed_union(ray_session, tmp_path):
    """The keyless overlap count must equal the brute-force pairwise count
    over ALL intervals (no supplier partitioning), aggregated to the
    concurrency distribution."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from osprey_ray.pipelines.analytics import q_overlap_global

    rng = np.random.default_rng(11)
    n = 800
    us_day = 86_400_000_000
    base = 1_600_000_000_000_000
    ok = rng.integers(0, 200, n)
    ln = rng.integers(1, 8, n)
    ship = base + rng.integers(0, 60, n) * us_day
    t = pa.table(
        {
            "l_orderkey": pa.array(ok, pa.int64()),
            "l_linenumber": pa.array(ln.astype(np.int32), pa.int32()),
            "l_suppkey": pa.array(rng.integers(0, 10, n), pa.int64()),
            "l_shipdate": pa.array(ship, pa.timestamp("us")),
        }
    )
    pq.write_table(t, str(tmp_path / "lineitem.parquet"))
    got = (
        q_overlap_global(str(tmp_path))
        .to_pandas()
        .sort_values("n_overlap")
        .reset_index(drop=True)
    )
    s = ship.astype(np.int64)
    e = s + (1 + (ok * 7 + ln.astype(np.int64) * 3) % 28) * us_day
    ov = np.array(
        [np.sum((s <= e[i]) & (e >= s[i])) - 1 for i in range(n)], dtype=np.int64
    )
    import collections

    want = collections.Counter(ov.tolist())
    assert dict(zip(got["n_overlap"], got["n_shipments"])) == dict(want)


def test_quantile_normalize_invariants(ray_session):
    """pct_rank_ppm must be monotone in value, 0 at the min, and bounded
    by 1e6 (ties share the min rank, so the max rank is < 1e6 when the
    max value is tied)."""
    from osprey_ray.pipelines.analytics import q_quantile_normalize

    got = q_quantile_normalize("/root/testdata/sf0.001").to_pandas()
    g = got.sort_values(["value_cents", "event_id"]).reset_index(drop=True)
    assert g["pct_rank_ppm"].is_monotonic_increasing
    assert g["pct_rank_ppm"].iloc[0] == 0
    assert g["pct_rank_ppm"].iloc[-1] <= 1_000_000
    # equal values share one rank
    per_val = g.groupby("value_cents")["pct_rank_ppm"].nunique()
    assert (per_val == 1).all()


def test_decayed_topk_order_matches_float_decay(ray_session):
    """The integer power-of-2 score must rank users exactly like the real
    2^-weeks float decay it stands for (no rank inversions in the top-k)."""
    import duckdb

    from osprey_ray.pipelines.analytics import q_decayed_topk

    got = q_decayed_topk("/root/testdata/sf0.001").to_pandas()
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW events AS SELECT * FROM "
        "read_parquet('/root/testdata/sf0.001/events.parquet')"
    )
    want = con.execute(
        "WITH mx AS (SELECT MAX(epoch_us(ts)) AS m FROM events) "
        "SELECT user_id FROM events, mx "
        "GROUP BY user_id "
        "ORDER BY SUM(CASE WHEN (mx.m - epoch_us(ts)) // 604800000000 <= 20 "
        "THEN power(2.0, -CAST((mx.m - epoch_us(ts)) // 604800000000 AS DOUBLE)) "
        "ELSE 0 END) DESC, user_id LIMIT 10"
    ).fetchdf()
    assert got["user_id"].tolist() == want["user_id"].tolist()


def test_peak_concurrency_vs_bruteforce(ray_session, tmp_path):
    """Sweep max per supplier == brute-force max over per-interval overlap
    counts + 1 at interval starts (dense random input, inclusive ends)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from osprey_ray.pipelines.analytics import q_peak_concurrency

    rng = np.random.default_rng(23)
    n = 1200
    us_day = 86_400_000_000
    base = 1_600_000_000_000_000
    ok = rng.integers(0, 250, n)
    ln = rng.integers(1, 8, n)
    supp = rng.integers(0, 15, n)
    ship = base + rng.integers(0, 60, n) * us_day
    t = pa.table(
        {
            "l_orderkey": pa.array(ok, pa.int64()),
            "l_linenumber": pa.array(ln.astype(np.int32), pa.int32()),
            "l_suppkey": pa.array(supp, pa.int64()),
            "l_shipdate": pa.array(ship, pa.timestamp("us")),
        }
    )
    pq.write_table(t, str(tmp_path / "lineitem.parquet"))
    got = (
        q_peak_concurrency(str(tmp_path))
        .to_pandas()
        .sort_values("l_suppkey")
        .reset_index(drop=True)
    )
    s = ship.astype(np.int64)
    e = s + (1 + (ok * 7 + ln.astype(np.int64) * 3) % 28) * us_day
    want = {}
    for sp in np.unique(supp):
        idx = np.nonzero(supp == sp)[0]
        # concurrency is maximized at some interval start: count intervals
        # covering each start point (inclusive ends)
        peak = max(
            int(np.sum((s[idx] <= s[i]) & (e[idx] >= s[i]))) for i in idx
        )
        want[int(sp)] = peak
    assert dict(zip(got["l_suppkey"], got["peak_concurrency"])) == want
