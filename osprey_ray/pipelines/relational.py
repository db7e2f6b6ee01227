"""Classic relational report shapes (TPC-H Q2/Q4/Q8/Q10/Q13/Q15/Q17/Q19/Q22
analogues) over the driver's testdata tables.

These widen the query surface of the reference's analytics side
(worker/ui_api/osprey/lib/druid.py:147-455 — grouped measures, TopN,
filtered counts) with the remaining standard decision-support shapes the
round-3 registry did not yet cover: left-join histograms, correlated
threshold filters, disjunctive join predicates, scalar-subquery + anti-join
composition, argmin-per-group, EXISTS counting, and multiway market-share
rollups.

Every query follows the repo's determinism rules (see analytics.py
module docstring): money/quantity quantized to integer units per ROW before
any aggregation, full tie-breaks on every top-k, integer cross-multiply
instead of float threshold comparisons.  Column names match the paired SQL
in ``__ray_entry__.oracle_sql`` exactly.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ray.data.aggregate import Max, Min, Sum

from osprey_ray.pipelines.analytics import _by_key_partition, _read


def _cents(arr: np.ndarray) -> np.ndarray:
    """floor(x*100 + 0.5) as int64 — the repo-wide money quantization."""
    return np.floor(arr * 100.0 + 0.5).astype(np.int64)


def _us(date: str) -> int:
    """ISO date -> epoch microseconds (matches timestamp[us] casts)."""
    return int(pd.Timestamp(date).value // 1_000)


def _partial(t: pa.Table, keys: list[str], aggs: list[tuple[str, str]],
             names: list[str], schema: pa.Schema) -> pa.Table:
    """Per-batch combiner: Arrow group_by + rename + cast to a pinned schema."""
    g = t.group_by(keys).aggregate(aggs)
    return g.rename_columns(names).cast(schema)


# ---------------------------------------------------------------------------
# Q13: customer order-count distribution (left join incl. the zero bucket)
# ---------------------------------------------------------------------------


def q_cust_order_dist(sf_dir: str):
    """TPC-H Q13-shaped customer distribution: histogram of customers by
    how many non-urgent orders they placed, INCLUDING the zero bucket
    (the LEFT JOIN semantics).

    Scale shape: no join at all — per-custkey counts via a per-batch
    combiner + one keyed groupby, then a per-batch value-counts combiner
    over the (already tiny) counts; the zero bucket is ``|customer| -
    |customers with >=1 order|`` from a metadata-cheap count, relying on
    the o_custkey -> c_custkey FK the generator guarantees."""
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"])

    def pre(t: pa.Table) -> pa.Table:
        t = t.filter(pc.not_equal(t["o_orderpriority"], "1-URGENT"))
        return _partial(
            pa.table({"custkey": t["o_custkey"].cast(pa.int64())}),
            ["custkey"], [("custkey", "count")], ["custkey", "k"],
            pa.schema([("custkey", pa.int64()), ("k", pa.int64())]),
        )

    counts = (
        orders.map_batches(pre, batch_format="pyarrow")
        .groupby("custkey")
        .aggregate(Sum("k", alias_name="k"))
    )

    def hist(t: pa.Table) -> pa.Table:
        return _partial(
            pa.table({"n_orders": t["k"].cast(pa.int64())}),
            ["n_orders"], [("n_orders", "count")], ["n_orders", "n_customers"],
            pa.schema([("n_orders", pa.int64()), ("n_customers", pa.int64())]),
        )

    rows = (
        counts.map_batches(hist, batch_format="pyarrow")
        .groupby("n_orders")
        .aggregate(Sum("n_customers", alias_name="n_customers"))
        .take_all()
    )
    n_cust = _read(sf_dir, "customer", ["c_custkey"]).count()
    n_zero = n_cust - sum(r["n_customers"] for r in rows)
    out_k = [r["n_orders"] for r in rows] + ([0] if n_zero else [])
    out_n = [r["n_customers"] for r in rows] + ([n_zero] if n_zero else [])
    return pa.table(
        {
            "n_orders": pa.array(out_k, pa.int64()),
            "n_customers": pa.array(out_n, pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# Q17: small-quantity lineitems vs the per-part average (correlated threshold)
# ---------------------------------------------------------------------------


def q_small_qty_revenue(sf_dir: str, brand: str = "Brand#23"):
    """TPC-H Q17-shaped correlated threshold: total price (cents) of
    lineitems whose quantity is below 20% of the average quantity for
    their part, restricted to one brand.

    The float threshold ``qty < 0.2 * avg(qty)`` is evaluated as the
    exact integer cross-multiply ``5 * qty100 * n < sum_qty100`` so the
    engine and the DuckDB twin agree bit-for-bit.

    Scale shape: ONE hash(partkey) join against the brand-filtered part
    slice, then ONE hash(partkey) exchange where a single vectorized
    partition callback (lexsort + reduceat, never per-key Python)
    computes both the per-part stats and the filtered partial sums."""
    from osprey_ray.pipelines.ann import _join_partitions

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice"])
    part = _read(sf_dir, "part", ["p_partkey", "p_brand"])

    def prep_li(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "partkey": t["l_partkey"].cast(pa.int64()),
                "qty100": pa.array(_cents(t["l_quantity"].to_numpy())),
                "cents": pa.array(_cents(t["l_extendedprice"].to_numpy())),
            }
        )

    def prep_p(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["p_brand"], brand))
        return pa.table({"partkey": t["p_partkey"].cast(pa.int64())})

    from osprey_ray.pipelines.textops import _pin_schema

    # pin the brand-filtered slice: a sparse (few-row) join side otherwise
    # leaves some hash partitions with only schema-less empties and the
    # aggregator's Table.join dies (ray-join-empty-blocks); the slice is
    # bounded (one brand ≈ 2% of part) so the materialize is cheap
    part_slice = _pin_schema(
        part.map_batches(prep_p, batch_format="pyarrow"),
        pa.schema([("partkey", pa.int64())]),
    )
    j = li.map_batches(prep_li, batch_format="pyarrow").join(
        part_slice,
        join_type="inner",
        num_partitions=_join_partitions(),
        on=("partkey",),
        aggregator_ray_remote_args={"num_cpus": 0},
    )

    def grp(t: pa.Table) -> pa.Table:
        t = t.drop_columns(["__kp"])
        pk = t["partkey"].to_numpy()
        order = np.argsort(pk, kind="stable")
        q = t["qty100"].to_numpy()[order]
        c = t["cents"].to_numpy()[order]
        pk_s = pk[order]
        starts = np.flatnonzero(np.r_[True, pk_s[1:] != pk_s[:-1]])
        cnts = np.diff(np.r_[starts, len(pk_s)])
        sums = np.add.reduceat(q, starts)
        # exact integer cross-multiply; numpy wraps silently -> assert bound
        assert int(q.max()) * 5 * int(cnts.max()) < 2**63, "q17 threshold overflow"
        keep = 5 * q * np.repeat(cnts, cnts) < np.repeat(sums, cnts)
        return pa.table(
            {
                "revenue_cents": pa.array([int(c[keep].sum())], pa.int64()),
                "n_items": pa.array([int(keep.sum())], pa.int64()),
            }
        )

    partials = _by_key_partition(j, "partkey").map_groups(grp, batch_format="pyarrow")
    rows = partials.take_all()
    return pa.table(
        {
            "revenue_cents": pa.array(
                [sum(r["revenue_cents"] for r in rows)], pa.int64()
            ),
            "n_items": pa.array([sum(r["n_items"] for r in rows)], pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# Q19: disjunctive brand/size/quantity predicate over the part join
# ---------------------------------------------------------------------------


def q_disjunctive_revenue(sf_dir: str):
    """TPC-H Q19-shaped disjunctive predicate: revenue from three OR'd
    (brand, size-range, quantity-range) band conditions evaluated AFTER
    the lineitem ⋈ part join — the shape where predicate pushdown can't
    split the filter across sides.

    Scale shape: one hash(partkey) join of projected sides, one fully
    vectorized boolean predicate per batch, partial sums into a 1-row
    groupby.  Quantity bands compare integer centi-units."""
    from ray.data.aggregate import Sum as _Sum

    from osprey_ray.pipelines.ann import _join_partitions

    li = _read(
        sf_dir, "lineitem",
        ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
    )
    part = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_size"])

    def prep_li(t: pa.Table) -> pa.Table:
        ep = t["l_extendedprice"].to_numpy()
        disc = t["l_discount"].to_numpy()
        return pa.table(
            {
                "partkey": t["l_partkey"].cast(pa.int64()),
                "qty100": pa.array(_cents(t["l_quantity"].to_numpy())),
                "cents": pa.array(
                    np.floor(ep * (1.0 - disc) * 100.0 + 0.5).astype(np.int64)
                ),
            }
        )

    def prep_p(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "partkey": t["p_partkey"].cast(pa.int64()),
                "brand": t["p_brand"].cast(pa.string()),
                "size": t["p_size"].cast(pa.int64()),
            }
        )

    j = li.map_batches(prep_li, batch_format="pyarrow").join(
        part.map_batches(prep_p, batch_format="pyarrow"),
        join_type="inner",
        num_partitions=_join_partitions(),
        on=("partkey",),
        aggregator_ray_remote_args={"num_cpus": 0},
    )

    BANDS = [("Brand#12", 5, 100, 1100), ("Brand#23", 10, 1000, 2000),
             ("Brand#34", 15, 2000, 3000)]

    def flag(t: pa.Table) -> pa.Table:
        brand = t["brand"].to_numpy(zero_copy_only=False)
        size = t["size"].to_numpy()
        q = t["qty100"].to_numpy()
        c = t["cents"].to_numpy()
        keep = np.zeros(len(c), dtype=bool)
        for b, smax, qlo, qhi in BANDS:
            keep |= (brand == b) & (size <= smax) & (q >= qlo) & (q <= qhi)
        return pa.table(
            {
                "g": pa.array(np.zeros(1, np.int64)),
                "revenue_cents": pa.array([int(c[keep].sum())], pa.int64()),
                "n_items": pa.array([int(keep.sum())], pa.int64()),
            }
        )

    return (
        j.map_batches(flag, batch_format="pyarrow")
        .groupby("g")
        .aggregate(
            _Sum("revenue_cents", alias_name="revenue_cents"),
            _Sum("n_items", alias_name="n_items"),
        )
        .map_batches(lambda t: t.drop_columns(["g"]), batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# Q22: idle rich customers (scalar subquery broadcast + anti-join)
# ---------------------------------------------------------------------------


def q_idle_rich_customers(sf_dir: str):
    """TPC-H Q22-shaped global-sales-opportunity report: per nation, the
    count and total balance of customers whose balance exceeds the
    average POSITIVE balance and who have never placed an URGENT order
    (the generator gives every customer ~10 orders, so the literal
    no-orders predicate is degenerate-empty; anti-joining the urgent
    slice keeps the exact Q22 shape — scalar subquery + NOT EXISTS —
    with a non-trivial answer).

    The float threshold ``bal > avg(bal)`` is the exact integer
    cross-multiply ``bal_cents * n_pos > sum_pos_cents``.

    Scale shape: the scalar pass is a per-batch partial over customer
    (two int64s to the driver); the no-orders test is Ray's native
    ``left_anti`` hash join with the right side projected to the key
    column before the exchange; the final rollup is a per-batch
    nationkey combiner into a 25-row groupby."""
    from osprey_ray.pipelines.ann import _join_partitions

    cust_cols = ["c_custkey", "c_nationkey", "c_acctbal"]

    # pass 1: scalar aggregate over positive balances (tiny partials)
    def pos_partial(t: pa.Table) -> pa.Table:
        bal = t["c_acctbal"].to_numpy()
        cents = _cents(bal[bal > 0.0])
        return pa.table(
            {
                "s": pa.array([int(cents.sum())], pa.int64()),
                "n": pa.array([len(cents)], pa.int64()),
            }
        )

    parts = (
        _read(sf_dir, "customer", ["c_acctbal"])
        .map_batches(pos_partial, batch_format="pyarrow")
        .take_all()
    )
    s = sum(r["s"] for r in parts)
    n = sum(r["n"] for r in parts)

    cust = _read(sf_dir, "customer", cust_cols)
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"])

    def prep_c(t: pa.Table) -> pa.Table:
        cents = _cents(t["c_acctbal"].to_numpy())
        t = pa.table(
            {
                "custkey": t["c_custkey"].cast(pa.int64()),
                "nationkey": t["c_nationkey"].cast(pa.int64()),
                "cents": pa.array(cents),
            }
        )
        return t.filter(pa.array(cents * n > s))

    def prep_o(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["o_orderpriority"], "1-URGENT"))
        return pa.table({"o_custkey": t["o_custkey"].cast(pa.int64())})

    idle = cust.map_batches(prep_c, batch_format="pyarrow").join(
        orders.map_batches(prep_o, batch_format="pyarrow"),
        join_type="left_anti",
        num_partitions=_join_partitions(),
        on=("custkey",),
        right_on=("o_custkey",),
        aggregator_ray_remote_args={"num_cpus": 0},
    )

    def roll(t: pa.Table) -> pa.Table:
        return _partial(
            pa.table(
                {
                    "nationkey": t["nationkey"],
                    "bal_cents": t["cents"],
                    "n_customers": pa.array(np.ones(len(t), np.int64)),
                }
            ),
            ["nationkey"],
            [("bal_cents", "sum"), ("n_customers", "sum")],
            ["nationkey", "bal_cents", "n_customers"],
            pa.schema(
                [("nationkey", pa.int64()), ("bal_cents", pa.int64()),
                 ("n_customers", pa.int64())]
            ),
        )

    # reassemble driver-side with a pinned schema: a legitimately-empty
    # anti-join result otherwise yields a schema-LESS dataset (the
    # hash-join empty-block behavior) and the ≤25-row rollup is tiny
    rows = (
        idle.map_batches(roll, batch_format="pyarrow")
        .groupby("nationkey")
        .aggregate(
            Sum("n_customers", alias_name="n_customers"),
            Sum("bal_cents", alias_name="bal_cents"),
        )
        .take_all()
    )
    return pa.table(
        {
            "nationkey": pa.array([r["nationkey"] for r in rows], pa.int64()),
            "n_customers": pa.array([r["n_customers"] for r in rows], pa.int64()),
            "bal_cents": pa.array([r["bal_cents"] for r in rows], pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# Q10: returned-item revenue per customer, top 20 with dimension enrich
# ---------------------------------------------------------------------------


def q_top_returners(sf_dir: str, top_n: int = 20):
    """TPC-H Q10-shaped returned-item report: the 20 customers with the
    highest revenue from RETURNED (l_returnflag='R') lineitems, enriched
    with customer and nation names.

    Scale shape: lineitem is filtered + pre-aggregated per batch by
    orderkey before ONE hash(orderkey) join to orders, re-combined per
    batch by custkey into one keyed groupby, and the top-20 is a
    distributed sort over the already-grouped (|customer|-bounded)
    result with a full (revenue desc, custkey) tie-break; only the 20
    winners' dimension rows are read back (predicate-pushdown read),
    never the customer table."""
    import pyarrow.parquet as _pq

    from osprey_ray.pipelines.ann import _join_partitions

    li = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"],
    )
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])

    def pre_li(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["l_returnflag"], "R"))
        ep = t["l_extendedprice"].to_numpy()
        disc = t["l_discount"].to_numpy()
        cents = np.floor(ep * (1.0 - disc) * 100.0 + 0.5).astype(np.int64)
        return _partial(
            pa.table(
                {"orderkey": t["l_orderkey"].cast(pa.int64()),
                 "cents": pa.array(cents)}
            ),
            ["orderkey"], [("cents", "sum")], ["orderkey", "cents"],
            pa.schema([("orderkey", pa.int64()), ("cents", pa.int64())]),
        )

    def prep_o(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "orderkey": t["o_orderkey"].cast(pa.int64()),
                "custkey": t["o_custkey"].cast(pa.int64()),
            }
        )

    j = li.map_batches(pre_li, batch_format="pyarrow").join(
        orders.map_batches(prep_o, batch_format="pyarrow"),
        join_type="inner",
        num_partitions=_join_partitions(),
        on=("orderkey",),
        aggregator_ray_remote_args={"num_cpus": 0},
    )

    def by_cust(t: pa.Table) -> pa.Table:
        return _partial(
            pa.table({"custkey": t["custkey"], "cents": t["cents"]}),
            ["custkey"], [("cents", "sum")], ["custkey", "cents"],
            pa.schema([("custkey", pa.int64()), ("cents", pa.int64())]),
        )

    top = (
        j.map_batches(by_cust, batch_format="pyarrow")
        .groupby("custkey")
        .aggregate(Sum("cents", alias_name="revenue_cents"))
        .sort(["revenue_cents", "custkey"], descending=[True, False])
        .limit(top_n)
        .take_all()
    )
    keys = [r["custkey"] for r in top]
    dim = _pq.read_table(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_nationkey"],
        filters=[("c_custkey", "in", keys)],
    )
    name_by_key = dict(zip(dim["c_custkey"].to_pylist(), dim["c_name"].to_pylist()))
    natkey_by_key = dict(
        zip(dim["c_custkey"].to_pylist(), dim["c_nationkey"].to_pylist())
    )
    nat = _pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    n_name = dict(zip(nat["n_nationkey"].to_pylist(), nat["n_name"].to_pylist()))
    return pa.table(
        {
            "custkey": pa.array(keys, pa.int64()),
            "c_name": pa.array([name_by_key[k] for k in keys], pa.string()),
            "n_name": pa.array(
                [n_name[natkey_by_key[k]] for k in keys], pa.string()
            ),
            "revenue_cents": pa.array([r["revenue_cents"] for r in top], pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# Q15: top supplier(s) in a quarter (scalar max with ties)
# ---------------------------------------------------------------------------


def q_top_supplier(sf_dir: str, start: str = "1997-01-01", end: str = "1997-04-01"):
    """TPC-H Q15-shaped top supplier: the supplier(s) with maximum
    revenue over one quarter — ALL ties kept, like the reference query's
    ``= (SELECT MAX(...))`` subquery.

    Scale shape: per-batch (suppkey, cents) combiner into one keyed
    groupby; the grouped result is materialized ONCE (|supplier| rows,
    already reduced), its max taken as a distributed aggregate, the tie
    filter applied in-stream, and only the winners' names read back via
    a pushed-down dimension read."""
    import pyarrow.parquet as _pq

    lo, hi = _us(start), _us(end)
    li = _read(
        sf_dir, "lineitem",
        ["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"],
    )

    def pre(t: pa.Table) -> pa.Table:
        sd = t["l_shipdate"].cast(pa.int64())
        t = t.filter(pc.and_(pc.greater_equal(sd, lo), pc.less(sd, hi)))
        ep = t["l_extendedprice"].to_numpy()
        disc = t["l_discount"].to_numpy()
        cents = np.floor(ep * (1.0 - disc) * 100.0 + 0.5).astype(np.int64)
        return _partial(
            pa.table(
                {"suppkey": t["l_suppkey"].cast(pa.int64()), "cents": pa.array(cents)}
            ),
            ["suppkey"], [("cents", "sum")], ["suppkey", "cents"],
            pa.schema([("suppkey", pa.int64()), ("cents", pa.int64())]),
        )

    rev = (
        li.map_batches(pre, batch_format="pyarrow")
        .groupby("suppkey")
        .aggregate(Sum("cents", alias_name="revenue_cents"))
        .materialize()
    )
    best = rev.max("revenue_cents")
    winners = rev.map_batches(
        lambda t: t.filter(pc.equal(t["revenue_cents"], best)),
        batch_format="pyarrow",
    ).take_all()
    keys = sorted(r["suppkey"] for r in winners)
    cents_by_key = {r["suppkey"]: r["revenue_cents"] for r in winners}
    dim = _pq.read_table(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_name"],
        filters=[("s_suppkey", "in", keys)],
    )
    s_name = dict(zip(dim["s_suppkey"].to_pylist(), dim["s_name"].to_pylist()))
    return pa.table(
        {
            "suppkey": pa.array(keys, pa.int64()),
            "s_name": pa.array([s_name[k] for k in keys], pa.string()),
            "revenue_cents": pa.array([cents_by_key[k] for k in keys], pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# Q4: order-priority counts gated on a late-shipment EXISTS
# ---------------------------------------------------------------------------


def q_priority_pending(sf_dir: str, start: str = "1997-01-01", end: str = "1997-04-01"):
    """TPC-H Q4-shaped priority check: orders placed in one quarter that
    have AT LEAST ONE lineitem shipped after the order date, counted per
    priority — the EXISTS-with-correlated-predicate shape (the predicate
    compares columns from BOTH sides, so a plain semi-join can't push
    it; the reference's late-verdict windows have the same structure).

    Scale shape: orders are date-filtered per batch BEFORE the one
    hash(orderkey) join; the EXISTS collapses via a per-batch
    max(late)-by-(orderkey, priority) combiner into one keyed groupby,
    then a per-batch priority count combiner into a 5-row groupby."""
    from osprey_ray.pipelines.ann import _join_partitions

    lo, hi = _us(start), _us(end)
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderpriority"])
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])

    def prep_o(t: pa.Table) -> pa.Table:
        od = t["o_orderdate"].cast(pa.int64())
        t = t.filter(pc.and_(pc.greater_equal(od, lo), pc.less(od, hi)))
        return pa.table(
            {
                "orderkey": t["o_orderkey"].cast(pa.int64()),
                "odate_us": t["o_orderdate"].cast(pa.int64()),
                "priority": t["o_orderpriority"].cast(pa.string()),
            }
        )

    def prep_l(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "orderkey": t["l_orderkey"].cast(pa.int64()),
                "sdate_us": t["l_shipdate"].cast(pa.int64()),
            }
        )

    j = orders.map_batches(prep_o, batch_format="pyarrow").join(
        li.map_batches(prep_l, batch_format="pyarrow"),
        join_type="inner",
        num_partitions=_join_partitions(),
        on=("orderkey",),
        aggregator_ray_remote_args={"num_cpus": 0},
    )

    def pre(t: pa.Table) -> pa.Table:
        late = (
            t["sdate_us"].to_numpy() > t["odate_us"].to_numpy()
        ).astype(np.int64)
        return _partial(
            pa.table(
                {"orderkey": t["orderkey"], "priority": t["priority"],
                 "late": pa.array(late)}
            ),
            ["orderkey", "priority"], [("late", "max")],
            ["orderkey", "priority", "late"],
            pa.schema(
                [("orderkey", pa.int64()), ("priority", pa.string()),
                 ("late", pa.int64())]
            ),
        )

    per_order = (
        j.map_batches(pre, batch_format="pyarrow")
        .groupby(["orderkey", "priority"])
        .aggregate(Max("late", alias_name="late"))
    )

    def count_p(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["late"], 1))
        return _partial(
            pa.table({"priority": t["priority"]}),
            ["priority"], [("priority", "count")], ["priority", "n_orders"],
            pa.schema([("priority", pa.string()), ("n_orders", pa.int64())]),
        )

    return (
        per_order.map_batches(count_p, batch_format="pyarrow")
        .groupby("priority")
        .aggregate(Sum("n_orders", alias_name="n_orders"))
    )


# ---------------------------------------------------------------------------
# Q8: one nation's market share within a region, per order year
# ---------------------------------------------------------------------------


def q_market_share(sf_dir: str, region: str = "ASIA", nationkey: int = 7):
    """TPC-H Q8-shaped market share: among lineitems sold to customers
    of one REGION, the ppm revenue share supplied by one NATION, per
    order year.

    Scale shape: three chained hash joins (supplier attach, order
    attach, region-filtered customer attach) — supplier and customer
    are never broadcast (the part_supplier_breadth stance: dimension
    tables scale with SF); the 25-row nation→region map rides the
    closure; per-batch year partials collapse before the ≤|years|
    groupby; the ppm division runs driver-side in arbitrary-precision
    Python ints (BIGINT*1e6 overflows int64 at 100 TB — the twin uses
    HUGEINT for the same reason)."""
    import pyarrow.parquet as _pq

    from osprey_ray.pipelines.ann import _join_partitions
    from osprey_ray.pipelines.textops import _pin_schema

    nat = _pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_regionkey"]
    ).to_pydict()
    reg = _pq.read_table(f"{sf_dir}/region.parquet").to_pydict()
    rkey = {k: v for k, v in zip(reg["r_regionkey"], reg["r_name"])}
    nk = np.asarray(nat["n_nationkey"], dtype=np.int64)
    in_region = np.zeros(int(nk.max()) + 1, dtype=bool)
    for k, rk in zip(nat["n_nationkey"], nat["n_regionkey"]):
        in_region[k] = rkey[rk] == region

    li = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def prep_li(t: pa.Table) -> pa.Table:
        ep = t["l_extendedprice"].to_numpy()
        disc = t["l_discount"].to_numpy()
        cents = np.floor(ep * (1.0 - disc) * 100.0 + 0.5).astype(np.int64)
        return pa.table(
            {
                "suppkey": t["l_suppkey"].cast(pa.int64()),
                "orderkey": t["l_orderkey"].cast(pa.int64()),
                "cents": pa.array(cents),
            }
        )

    def prep_s(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "suppkey": t["s_suppkey"].cast(pa.int64()),
                "snat": t["s_nationkey"].cast(pa.int64()),
            }
        )

    def prep_o(t: pa.Table) -> pa.Table:
        us = t["o_orderdate"].cast(pa.int64()).to_numpy()
        yr = (
            us.astype("datetime64[us]").astype("datetime64[Y]").astype(np.int64)
            + 1970
        )
        return pa.table(
            {
                "orderkey": t["o_orderkey"].cast(pa.int64()),
                "custkey": t["o_custkey"].cast(pa.int64()),
                "year": pa.array(yr),
            }
        )

    def prep_c(t: pa.Table) -> pa.Table:
        natk = t["c_nationkey"].to_numpy().astype(np.int64)
        return pa.table(
            {"custkey": t["c_custkey"].cast(pa.int64())}
        ).filter(pa.array(in_region[natk]))

    P = _join_partitions()
    ls = li.map_batches(prep_li, batch_format="pyarrow").join(
        supp.map_batches(prep_s, batch_format="pyarrow"),
        join_type="inner",
        num_partitions=P,
        on=("suppkey",),
        aggregator_ray_remote_args={"num_cpus": 0},
    )
    ls = _pin_schema(
        ls,
        pa.schema(
            [("suppkey", pa.int64()), ("orderkey", pa.int64()),
             ("cents", pa.int64()), ("snat", pa.int64())]
        ),
    ).drop_columns(["suppkey"])
    lso = ls.join(
        orders.map_batches(prep_o, batch_format="pyarrow"),
        join_type="inner",
        num_partitions=P,
        on=("orderkey",),
        aggregator_ray_remote_args={"num_cpus": 0},
    )
    lso = _pin_schema(
        lso,
        pa.schema(
            [("orderkey", pa.int64()), ("cents", pa.int64()), ("snat", pa.int64()),
             ("custkey", pa.int64()), ("year", pa.int64())]
        ),
    ).drop_columns(["orderkey"])
    full = lso.join(
        cust.map_batches(prep_c, batch_format="pyarrow"),
        join_type="inner",
        num_partitions=P,
        on=("custkey",),
        aggregator_ray_remote_args={"num_cpus": 0},
    )

    def per_year(t: pa.Table) -> pa.Table:
        cents = t["cents"].to_numpy()
        is_nat = (t["snat"].to_numpy() == nationkey).astype(np.int64)
        return _partial(
            pa.table(
                {
                    "year": t["year"],
                    "total_cents": pa.array(cents),
                    "nation_cents": pa.array(is_nat * cents),
                }
            ),
            ["year"], [("total_cents", "sum"), ("nation_cents", "sum")],
            ["year", "total_cents", "nation_cents"],
            pa.schema(
                [("year", pa.int64()), ("total_cents", pa.int64()),
                 ("nation_cents", pa.int64())]
            ),
        )

    rows = (
        full.map_batches(per_year, batch_format="pyarrow")
        .groupby("year")
        .aggregate(
            Sum("total_cents", alias_name="total_cents"),
            Sum("nation_cents", alias_name="nation_cents"),
        )
        .take_all()
    )
    rows.sort(key=lambda r: r["year"])
    return pa.table(
        {
            "year": pa.array([r["year"] for r in rows], pa.int64()),
            "total_cents": pa.array([r["total_cents"] for r in rows], pa.int64()),
            "nation_cents": pa.array([r["nation_cents"] for r in rows], pa.int64()),
            # exact ppm floor-division in Python ints (never wraps)
            "share_ppm": pa.array(
                [r["nation_cents"] * 1_000_000 // r["total_cents"] for r in rows],
                pa.int64(),
            ),
        }
    )


# ---------------------------------------------------------------------------
# Q2-adapted: cheapest observed line price per part (argmin-per-group)
# ---------------------------------------------------------------------------


def q_cheapest_supplier(sf_dir: str, max_size: int = 10):
    """TPC-H Q2-adapted min-cost supplier: for each small part (p_size ≤
    ``max_size``), the supplier offering the lowest observed lineitem
    price, tie-broken by suppkey — the argmin-per-group shape (the
    testdata has no partsupp table, so observed lineitem prices stand in
    for ps_supplycost; reference Q2 anchor:
    worker/ui_api/osprey/lib/druid.py TopN-with-dimension shape).

    The argmin is carried through the shuffle as ONE composite int64
    ``cents * 2^20 + suppkey`` (asserted in-range), so Ray's unordered
    partial Min reduces it exactly; the composite decomposes after the
    groupby.

    Scale shape: per-batch composite-Min combiner before the keyed
    groupby; part (size-filtered) and supplier attach via hash joins —
    never broadcast."""
    from osprey_ray.pipelines.ann import _join_partitions
    from osprey_ray.pipelines.textops import _pin_schema

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey", "l_extendedprice"])
    part = _read(sf_dir, "part", ["p_partkey", "p_name", "p_size"])
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_name"])

    SHIFT = 1 << 20

    def pre(t: pa.Table) -> pa.Table:
        cents = _cents(t["l_extendedprice"].to_numpy())
        sk = t["l_suppkey"].to_numpy().astype(np.int64)
        assert len(sk) == 0 or (
            int(sk.max()) < SHIFT and int(cents.max()) < 2**42
        ), "q2 composite overflow"
        return _partial(
            pa.table(
                {
                    "partkey": t["l_partkey"].cast(pa.int64()),
                    "comp": pa.array(cents * SHIFT + sk),
                }
            ),
            ["partkey"], [("comp", "min")], ["partkey", "comp"],
            pa.schema([("partkey", pa.int64()), ("comp", pa.int64())]),
        )

    def prep_p(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(t["p_size"], max_size))
        return pa.table(
            {
                "partkey": t["p_partkey"].cast(pa.int64()),
                "p_name": t["p_name"].cast(pa.string()),
            }
        )

    def prep_s(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "suppkey": t["s_suppkey"].cast(pa.int64()),
                "s_name": t["s_name"].cast(pa.string()),
            }
        )

    P = _join_partitions()
    mins = (
        li.map_batches(pre, batch_format="pyarrow")
        .groupby("partkey")
        .aggregate(Min("comp", alias_name="comp"))
    )
    jp = mins.join(
        part.map_batches(prep_p, batch_format="pyarrow"),
        join_type="inner",
        num_partitions=P,
        on=("partkey",),
        aggregator_ray_remote_args={"num_cpus": 0},
    )

    def decomp(t: pa.Table) -> pa.Table:
        comp = t["comp"].to_numpy()
        return pa.table(
            {
                "partkey": t["partkey"],
                "p_name": t["p_name"],
                "price_cents": pa.array(comp // SHIFT),
                "suppkey": pa.array(comp % SHIFT),
            }
        )

    jp = _pin_schema(
        jp,
        pa.schema(
            [("partkey", pa.int64()), ("comp", pa.int64()), ("p_name", pa.string())]
        ),
    ).map_batches(decomp, batch_format="pyarrow")
    jp = _pin_schema(
        jp,
        pa.schema(
            [("partkey", pa.int64()), ("p_name", pa.string()),
             ("price_cents", pa.int64()), ("suppkey", pa.int64())]
        ),
    )
    return jp.join(
        supp.map_batches(prep_s, batch_format="pyarrow"),
        join_type="inner",
        num_partitions=P,
        on=("suppkey",),
        aggregator_ray_remote_args={"num_cpus": 0},
    )


# ---------------------------------------------------------------------------
# Q7: bi-national shipping volume per year
# ---------------------------------------------------------------------------


def q_volume_shipping(sf_dir: str, nation_a: int = 3, nation_b: int = 12):
    """TPC-H Q7-shaped volume shipping: revenue flowing between two
    nations (supplier side vs customer side, both directions) per order
    year.

    Scale shape: the market_share stance — three chained hash joins
    (nation-filtered supplier slice, orders, nation-filtered customer
    slice); both dimension slices are pinned (sparse join sides leave
    schema-less empty blocks otherwise) and pre-filtered to the two
    nations so the exchanges carry ~2/25 of each table; the 25-row
    nation-name map rides the closure; per-batch (snat,cnat,year)
    partials collapse before the ≤ 2×|years| groupby."""
    import pyarrow.parquet as _pq

    from osprey_ray.pipelines.ann import _join_partitions
    from osprey_ray.pipelines.textops import _pin_schema

    nat = _pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pydict()
    nname = dict(zip(nat["n_nationkey"], nat["n_name"]))
    pair = {nation_a, nation_b}

    li = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def prep_li(t: pa.Table) -> pa.Table:
        ep = t["l_extendedprice"].to_numpy()
        disc = t["l_discount"].to_numpy()
        return pa.table(
            {
                "suppkey": t["l_suppkey"].cast(pa.int64()),
                "orderkey": t["l_orderkey"].cast(pa.int64()),
                "cents": pa.array(_cents(ep * (1.0 - disc))),
            }
        )

    def prep_s(t: pa.Table) -> pa.Table:
        sn = t["s_nationkey"].to_numpy().astype(np.int64)
        keep = (sn == nation_a) | (sn == nation_b)
        return pa.table(
            {
                "suppkey": t["s_suppkey"].cast(pa.int64()),
                "snat": pa.array(sn),
            }
        ).filter(pa.array(keep))

    def prep_o(t: pa.Table) -> pa.Table:
        us = t["o_orderdate"].cast(pa.int64()).to_numpy()
        yr = (
            us.astype("datetime64[us]").astype("datetime64[Y]").astype(np.int64)
            + 1970
        )
        return pa.table(
            {
                "orderkey": t["o_orderkey"].cast(pa.int64()),
                "custkey": t["o_custkey"].cast(pa.int64()),
                "l_year": pa.array(yr),
            }
        )

    def prep_c(t: pa.Table) -> pa.Table:
        cn = t["c_nationkey"].to_numpy().astype(np.int64)
        keep = (cn == nation_a) | (cn == nation_b)
        return pa.table(
            {
                "custkey": t["c_custkey"].cast(pa.int64()),
                "cnat": pa.array(cn),
            }
        ).filter(pa.array(keep))

    P = _join_partitions()
    supp_slice = _pin_schema(
        supp.map_batches(prep_s, batch_format="pyarrow"),
        pa.schema([("suppkey", pa.int64()), ("snat", pa.int64())]),
    )
    ls = li.map_batches(prep_li, batch_format="pyarrow").join(
        supp_slice,
        join_type="inner",
        num_partitions=P,
        on=("suppkey",),
        aggregator_ray_remote_args={"num_cpus": 0},
    )
    ls = _pin_schema(
        ls,
        pa.schema(
            [("suppkey", pa.int64()), ("orderkey", pa.int64()),
             ("cents", pa.int64()), ("snat", pa.int64())]
        ),
    ).drop_columns(["suppkey"])
    lso = ls.join(
        orders.map_batches(prep_o, batch_format="pyarrow"),
        join_type="inner",
        num_partitions=P,
        on=("orderkey",),
        aggregator_ray_remote_args={"num_cpus": 0},
    )
    lso = _pin_schema(
        lso,
        pa.schema(
            [("orderkey", pa.int64()), ("cents", pa.int64()), ("snat", pa.int64()),
             ("custkey", pa.int64()), ("l_year", pa.int64())]
        ),
    ).drop_columns(["orderkey"])
    cust_slice = _pin_schema(
        cust.map_batches(prep_c, batch_format="pyarrow"),
        pa.schema([("custkey", pa.int64()), ("cnat", pa.int64())]),
    )
    full = lso.join(
        cust_slice,
        join_type="inner",
        num_partitions=P,
        on=("custkey",),
        aggregator_ray_remote_args={"num_cpus": 0},
    )

    def per_pair(t: pa.Table) -> pa.Table:
        sn = t["snat"].to_numpy()
        cn = t["cnat"].to_numpy()
        keep = sn != cn  # cross-nation flows only (both slices pre-filtered)
        return _partial(
            pa.table(
                {
                    "snat": t["snat"],
                    "cnat": t["cnat"],
                    "l_year": t["l_year"],
                    "revenue_cents": t["cents"],
                }
            ).filter(pa.array(keep)),
            ["snat", "cnat", "l_year"], [("revenue_cents", "sum")],
            ["snat", "cnat", "l_year", "revenue_cents"],
            pa.schema(
                [("snat", pa.int64()), ("cnat", pa.int64()),
                 ("l_year", pa.int64()), ("revenue_cents", pa.int64())]
            ),
        )

    rows = (
        full.map_batches(per_pair, batch_format="pyarrow")
        .groupby(["snat", "cnat", "l_year"])
        .aggregate(Sum("revenue_cents", alias_name="revenue_cents"))
        .take_all()
    )
    rows.sort(key=lambda r: (nname[r["snat"]], nname[r["cnat"]], r["l_year"]))
    return pa.table(
        {
            "supp_nation": pa.array([nname[r["snat"]] for r in rows], pa.string()),
            "cust_nation": pa.array([nname[r["cnat"]] for r in rows], pa.string()),
            "l_year": pa.array([r["l_year"] for r in rows], pa.int64()),
            "revenue_cents": pa.array(
                [r["revenue_cents"] for r in rows], pa.int64()
            ),
        }
    )


# ---------------------------------------------------------------------------
# Q9: product-line profit per (supplier nation, year)
# ---------------------------------------------------------------------------


def q_product_profit(sf_dir: str, name_frag: str = "widget"):
    """TPC-H Q9-shaped product profit: for parts whose name contains
    ``name_frag``, per-(supplier-nation, order-year) profit.  The
    testdata has no partsupp, so ``p_retailprice`` stands in for
    ps_supplycost; profit is kept EXACT in integer centi-cents:
    ``100*cents(extprice*(1-disc)) - cents(retailprice)*qty100``.

    Scale shape: three chained hash joins — the name-filtered part
    slice (pinned, carries retail cents), orders (year), supplier
    (nation) — dimension tables never broadcast (they scale with SF);
    per-batch (nation, year) partials collapse before the tiny final
    groupby.  Per-row amounts are ~1e9 so int64 partial sums hold to
    ~1e9 rows per group-partial; the DuckDB twin sums in HUGEINT and
    casts down, bit-equal while the total fits BIGINT."""
    import pyarrow.parquet as _pq

    from osprey_ray.pipelines.ann import _join_partitions
    from osprey_ray.pipelines.textops import _pin_schema

    nat = _pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pydict()
    nname = dict(zip(nat["n_nationkey"], nat["n_name"]))

    li = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
         "l_extendedprice", "l_discount"],
    )
    part = _read(sf_dir, "part", ["p_partkey", "p_name", "p_retailprice"])
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])

    def prep_li(t: pa.Table) -> pa.Table:
        ep = t["l_extendedprice"].to_numpy()
        disc = t["l_discount"].to_numpy()
        return pa.table(
            {
                "partkey": t["l_partkey"].cast(pa.int64()),
                "orderkey": t["l_orderkey"].cast(pa.int64()),
                "suppkey": t["l_suppkey"].cast(pa.int64()),
                "rev_cents": pa.array(_cents(ep * (1.0 - disc))),
                "qty100": pa.array(_cents(t["l_quantity"].to_numpy())),
            }
        )

    def prep_p(t: pa.Table) -> pa.Table:
        t = t.filter(pc.match_substring(t["p_name"], name_frag))
        return pa.table(
            {
                "partkey": t["p_partkey"].cast(pa.int64()),
                "retail_cents": pa.array(_cents(t["p_retailprice"].to_numpy())),
            }
        )

    def prep_o(t: pa.Table) -> pa.Table:
        us = t["o_orderdate"].cast(pa.int64()).to_numpy()
        yr = (
            us.astype("datetime64[us]").astype("datetime64[Y]").astype(np.int64)
            + 1970
        )
        return pa.table(
            {
                "orderkey": t["o_orderkey"].cast(pa.int64()),
                "o_year": pa.array(yr),
            }
        )

    def prep_s(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "suppkey": t["s_suppkey"].cast(pa.int64()),
                "snat": t["s_nationkey"].cast(pa.int64()),
            }
        )

    P = _join_partitions()
    part_slice = _pin_schema(
        part.map_batches(prep_p, batch_format="pyarrow"),
        pa.schema([("partkey", pa.int64()), ("retail_cents", pa.int64())]),
    )
    lp = li.map_batches(prep_li, batch_format="pyarrow").join(
        part_slice,
        join_type="inner",
        num_partitions=P,
        on=("partkey",),
        aggregator_ray_remote_args={"num_cpus": 0},
    )
    lp = _pin_schema(
        lp,
        pa.schema(
            [("partkey", pa.int64()), ("orderkey", pa.int64()),
             ("suppkey", pa.int64()), ("rev_cents", pa.int64()),
             ("qty100", pa.int64()), ("retail_cents", pa.int64())]
        ),
    ).drop_columns(["partkey"])
    lpo = lp.join(
        orders.map_batches(prep_o, batch_format="pyarrow"),
        join_type="inner",
        num_partitions=P,
        on=("orderkey",),
        aggregator_ray_remote_args={"num_cpus": 0},
    )
    lpo = _pin_schema(
        lpo,
        pa.schema(
            [("orderkey", pa.int64()), ("suppkey", pa.int64()),
             ("rev_cents", pa.int64()), ("qty100", pa.int64()),
             ("retail_cents", pa.int64()), ("o_year", pa.int64())]
        ),
    ).drop_columns(["orderkey"])
    full = lpo.join(
        supp.map_batches(prep_s, batch_format="pyarrow"),
        join_type="inner",
        num_partitions=P,
        on=("suppkey",),
        aggregator_ray_remote_args={"num_cpus": 0},
    )

    def per_group(t: pa.Table) -> pa.Table:
        rev = t["rev_cents"].to_numpy()
        retail = t["retail_cents"].to_numpy()
        qty = t["qty100"].to_numpy()
        if len(rev):
            # exact integer profit; numpy wraps silently -> assert bound
            assert (
                int(rev.max()) * 100 < 2**62
                and int(retail.max()) * int(qty.max()) < 2**62
            ), "q9 centi-cent overflow"
        amount = rev * 100 - retail * qty
        return _partial(
            pa.table(
                {
                    "snat": t["snat"],
                    "o_year": t["o_year"],
                    "profit_centicents": pa.array(amount),
                }
            ),
            ["snat", "o_year"], [("profit_centicents", "sum")],
            ["snat", "o_year", "profit_centicents"],
            pa.schema(
                [("snat", pa.int64()), ("o_year", pa.int64()),
                 ("profit_centicents", pa.int64())]
            ),
        )

    rows = (
        full.map_batches(per_group, batch_format="pyarrow")
        .groupby(["snat", "o_year"])
        .aggregate(Sum("profit_centicents", alias_name="profit_centicents"))
        .take_all()
    )
    rows.sort(key=lambda r: (nname[r["snat"]], r["o_year"]))
    return pa.table(
        {
            "nation": pa.array([nname[r["snat"]] for r in rows], pa.string()),
            "o_year": pa.array([r["o_year"] for r in rows], pa.int64()),
            "profit_centicents": pa.array(
                [r["profit_centicents"] for r in rows], pa.int64()
            ),
        }
    )


# ---------------------------------------------------------------------------
# Q11: globally-important parts for one nation's suppliers
# ---------------------------------------------------------------------------


def q_important_parts(sf_dir: str, nationkey: int = 12, mult: int = 2):
    """TPC-H Q11-shaped importance filter: per-part lineitem value
    (extendedprice cents) supplied by one nation's suppliers, keeping
    parts whose value exceeds ``mult``× the nation's mean per-part value
    — the group-share-vs-global-scalar-subquery shape (no partsupp in
    the testdata, so observed lineitem value stands in for
    availqty*cost; the mean-multiple threshold is scale-free, where
    TPC-H's fixed fraction empties as |part| grows).

    Scale shape: one hash join against the nation-filtered supplier
    slice (pinned), per-batch per-part partials before the keyed
    groupby; the global (total, n) pair is a second tiny aggregate over
    the per-part values whose exact Python-int threshold ``(mult *
    total) // n`` is broadcast into the filter (int64 ``value*n`` would
    wrap at scale; ``value > thr`` is exactly equivalent — the twin
    proves it in HUGEINT)."""
    from osprey_ray.pipelines.ann import _join_partitions
    from osprey_ray.pipelines.textops import _pin_schema

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey", "l_extendedprice"])
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])

    def prep_li(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "partkey": t["l_partkey"].cast(pa.int64()),
                "suppkey": t["l_suppkey"].cast(pa.int64()),
                "cents": pa.array(_cents(t["l_extendedprice"].to_numpy())),
            }
        )

    def prep_s(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["s_nationkey"], nationkey))
        return pa.table({"suppkey": t["s_suppkey"].cast(pa.int64())})

    supp_slice = _pin_schema(
        supp.map_batches(prep_s, batch_format="pyarrow"),
        pa.schema([("suppkey", pa.int64())]),
    )
    j = li.map_batches(prep_li, batch_format="pyarrow").join(
        supp_slice,
        join_type="inner",
        num_partitions=_join_partitions(),
        on=("suppkey",),
        aggregator_ray_remote_args={"num_cpus": 0},
    )

    def partial_val(t: pa.Table) -> pa.Table:
        return _partial(
            pa.table({"partkey": t["partkey"], "value_cents": t["cents"]}),
            ["partkey"], [("value_cents", "sum")], ["partkey", "value_cents"],
            pa.schema([("partkey", pa.int64()), ("value_cents", pa.int64())]),
        )

    per_part = (
        j.map_batches(partial_val, batch_format="pyarrow")
        .groupby("partkey")
        .aggregate(Sum("value_cents", alias_name="value_cents"))
        .materialize()  # consumed twice: total scalar + threshold filter
    )
    total, n_parts = 0, 0
    for b in per_part.select_columns(["value_cents"]).iter_batches(
        batch_format="pyarrow"
    ):
        total += int(b["value_cents"].to_numpy().sum())
        n_parts += b.num_rows
    # value*n > mult*total  <=>  value > (mult*total)//n, exact (floor id.)
    thr = (mult * total) // max(n_parts, 1)

    def keep(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater(t["value_cents"], thr))

    rows = per_part.map_batches(keep, batch_format="pyarrow").take_all()
    rows.sort(key=lambda r: (-r["value_cents"], r["partkey"]))
    return pa.table(
        {
            "partkey": pa.array([r["partkey"] for r in rows], pa.int64()),
            "value_cents": pa.array([r["value_cents"] for r in rows], pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# Q20: suppliers whose shipments of a part family concentrate in one year
# ---------------------------------------------------------------------------


def q_seasonal_suppliers(sf_dir: str, prefix: str = "blue",
                         year: int = 1997, mult: int = 7):
    """TPC-H Q20-shaped nested semi-join: among suppliers who shipped any
    part whose name starts with ``prefix``, keep those whose ``year``
    shipment quantity exceeds ``1/mult`` of their all-time quantity for
    those parts (no partsupp/availqty in the testdata, so the excess-stock
    threshold becomes a concentration threshold over shipped quantity —
    same nested-aggregate + semi-join composition).

    Scale shape: one hash join against the prefix-filtered part slice
    (pinned), per-batch per-supplier (total, in-year) partials before the
    keyed groupby, exact integer threshold ``mult*qy > qt``, then a hash
    join to attach s_name — supplier is never broadcast."""
    from osprey_ray.pipelines.ann import _join_partitions
    from osprey_ray.pipelines.textops import _pin_schema

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"])
    part = _read(sf_dir, "part", ["p_partkey", "p_name"])
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_name"])

    def prep_li(t: pa.Table) -> pa.Table:
        us = t["l_shipdate"].cast(pa.int64()).to_numpy()
        yr = (
            us.astype("datetime64[us]").astype("datetime64[Y]").astype(np.int64)
            + 1970
        )
        q = _cents(t["l_quantity"].to_numpy())
        return pa.table(
            {
                "partkey": t["l_partkey"].cast(pa.int64()),
                "suppkey": t["l_suppkey"].cast(pa.int64()),
                "qt": pa.array(q),
                "qy": pa.array(np.where(yr == year, q, 0)),
            }
        )

    def prep_p(t: pa.Table) -> pa.Table:
        t = t.filter(pc.starts_with(t["p_name"], prefix))
        return pa.table({"partkey": t["p_partkey"].cast(pa.int64())})

    def prep_s(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "suppkey": t["s_suppkey"].cast(pa.int64()),
                "s_name": t["s_name"].cast(pa.string()),
            }
        )

    P = _join_partitions()
    part_slice = _pin_schema(
        part.map_batches(prep_p, batch_format="pyarrow"),
        pa.schema([("partkey", pa.int64())]),
    )
    j = li.map_batches(prep_li, batch_format="pyarrow").join(
        part_slice,
        join_type="inner",
        num_partitions=P,
        on=("partkey",),
        aggregator_ray_remote_args={"num_cpus": 0},
    )

    def per_supp(t: pa.Table) -> pa.Table:
        return _partial(
            pa.table(
                {
                    "suppkey": t["suppkey"],
                    "qty100_total": t["qt"],
                    "qty100_year": t["qy"],
                }
            ),
            ["suppkey"], [("qty100_total", "sum"), ("qty100_year", "sum")],
            ["suppkey", "qty100_total", "qty100_year"],
            pa.schema(
                [("suppkey", pa.int64()), ("qty100_total", pa.int64()),
                 ("qty100_year", pa.int64())]
            ),
        )

    agg = (
        j.map_batches(per_supp, batch_format="pyarrow")
        .groupby("suppkey")
        .aggregate(
            Sum("qty100_total", alias_name="qty100_total"),
            Sum("qty100_year", alias_name="qty100_year"),
        )
    )

    def keep(t: pa.Table) -> pa.Table:
        qy = t["qty100_year"].to_numpy()
        qt = t["qty100_total"].to_numpy()
        if len(qy):
            assert int(qy.max()) * mult < 2**63, "q20 threshold overflow"
        return t.filter(pa.array(mult * qy > qt))

    kept = _pin_schema(
        agg.map_batches(keep, batch_format="pyarrow"),
        pa.schema(
            [("suppkey", pa.int64()), ("qty100_total", pa.int64()),
             ("qty100_year", pa.int64())]
        ),
    )
    rows = kept.join(
        supp.map_batches(prep_s, batch_format="pyarrow"),
        join_type="inner",
        num_partitions=P,
        on=("suppkey",),
        aggregator_ray_remote_args={"num_cpus": 0},
    ).take_all()
    rows.sort(key=lambda r: r["suppkey"])
    return pa.table(
        {
            "suppkey": pa.array([r["suppkey"] for r in rows], pa.int64()),
            "s_name": pa.array([r["s_name"] for r in rows], pa.string()),
            "qty100_year": pa.array([r["qty100_year"] for r in rows], pa.int64()),
            "qty100_total": pa.array(
                [r["qty100_total"] for r in rows], pa.int64()
            ),
        }
    )


# ---------------------------------------------------------------------------
# Q21: suppliers who were the sole late shipper of multi-supplier orders
# ---------------------------------------------------------------------------


def q_waiting_suppliers(sf_dir: str, late_days: int = 30, top_n: int = 20):
    """TPC-H Q21-shaped double-correlated EXISTS/NOT-EXISTS: count, per
    supplier, the multi-supplier orders where that supplier shipped late
    (> ``late_days`` after the order date — the testdata has no
    commit/receipt dates) and NO other supplier in the order did.

    Scale shape: one hash(orderkey) join to attach o_orderdate, a
    per-batch (orderkey, suppkey) any-late combiner, ONE keyed exchange
    on orderkey whose partition callback vectorizes the per-order
    supplier/late counts (lexsort + run-length, never per-key Python),
    a per-batch count combiner before the per-supplier groupby; only the
    ≤|sole-late suppliers| counts reach the driver for the tie-broken
    top-k, and s_name is fetched for just the winners with a
    row-group-pruned filtered read (no supplier-wide join)."""
    from osprey_ray.pipelines.analytics import _by_key_partition
    from osprey_ray.pipelines.ann import _join_partitions

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_shipdate"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])
    late_us = late_days * 86_400 * 1_000_000

    def prep_li(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "orderkey": t["l_orderkey"].cast(pa.int64()),
                "suppkey": t["l_suppkey"].cast(pa.int64()),
                "ship_us": t["l_shipdate"].cast(pa.int64()),
            }
        )

    def prep_o(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "orderkey": t["o_orderkey"].cast(pa.int64()),
                "od_us": t["o_orderdate"].cast(pa.int64()),
            }
        )

    P = _join_partitions()
    j = li.map_batches(prep_li, batch_format="pyarrow").join(
        orders.map_batches(prep_o, batch_format="pyarrow"),
        join_type="inner",
        num_partitions=P,
        on=("orderkey",),
        aggregator_ray_remote_args={"num_cpus": 0},
    )

    def flag(t: pa.Table) -> pa.Table:
        late = (
            t["ship_us"].to_numpy() > t["od_us"].to_numpy() + late_us
        ).astype(np.int64)
        return _partial(
            pa.table(
                {"orderkey": t["orderkey"], "suppkey": t["suppkey"],
                 "late": pa.array(late)}
            ),
            ["orderkey", "suppkey"], [("late", "max")],
            ["orderkey", "suppkey", "late"],
            pa.schema(
                [("orderkey", pa.int64()), ("suppkey", pa.int64()),
                 ("late", pa.int64())]
            ),
        )

    # the keyed exchange below co-locates every row of an orderkey, so
    # duplicate (orderkey, suppkey) pairs collapse INSIDE the partition
    # callback — per-batch Max partials above already shrank them; a
    # global pre-groupby would be a second all-to-all for nothing
    pairs = j.map_batches(flag, batch_format="pyarrow")

    def sole_late(t: pa.Table) -> pa.Table:
        t = t.drop_columns(["__kp"])
        ok = t["orderkey"].to_numpy()
        order = np.lexsort((t["suppkey"].to_numpy(), ok))
        ok_d = ok[order]
        sk_d = t["suppkey"].to_numpy()[order]
        late_d = t["late"].to_numpy()[order]
        # dedup (orderkey, suppkey) keeping max(late) via reduceat
        pstart = np.flatnonzero(
            np.r_[True, (ok_d[1:] != ok_d[:-1]) | (sk_d[1:] != sk_d[:-1])]
        )
        ok_s = ok_d[pstart]
        sk = sk_d[pstart]
        late = np.maximum.reduceat(late_d, pstart)
        starts = np.flatnonzero(np.r_[True, ok_s[1:] != ok_s[:-1]])
        cnts = np.diff(np.r_[starts, len(ok_s)])
        n_late = np.add.reduceat(late, starts)
        keep = (late == 1) & (np.repeat(cnts, cnts) > 1) & (
            np.repeat(n_late, cnts) == 1
        )
        kept = sk[keep]
        u, c = np.unique(kept, return_counts=True)
        return pa.table(
            {"suppkey": pa.array(u), "numwait": pa.array(c.astype(np.int64))}
        )

    counts = (
        _by_key_partition(pairs, "orderkey")
        .map_groups(sole_late, batch_format="pyarrow")
        .groupby("suppkey")
        .aggregate(Sum("numwait", alias_name="numwait"))
    )
    # top-k BEFORE the name attach: only the winning ≤ top_n keys need
    # s_name, so a row-group-pruned filtered read replaces a full hash
    # join against supplier (and is trivially empty-safe)
    rows = counts.take_all()
    rows.sort(key=lambda r: (-r["numwait"], r["suppkey"]))
    rows = rows[:top_n]
    import pyarrow.parquet as _pq

    keys = [r["suppkey"] for r in rows]
    names: dict[int, str] = {}
    if keys:
        nt = _pq.read_table(
            f"{sf_dir}/supplier.parquet",
            columns=["s_suppkey", "s_name"],
            filters=[("s_suppkey", "in", keys)],
        )
        names = dict(
            zip(nt["s_suppkey"].to_pylist(), nt["s_name"].to_pylist())
        )
    return pa.table(
        {
            "suppkey": pa.array([r["suppkey"] for r in rows], pa.int64()),
            "s_name": pa.array(
                [names[r["suppkey"]] for r in rows], pa.string()
            ),
            "numwait": pa.array([r["numwait"] for r in rows], pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# Relational division: customers covering ALL brands in a set
# ---------------------------------------------------------------------------


def q_brand_coverage(sf_dir: str, brands: tuple = ("Brand#12", "Brand#23")):
    """Relational division (the FOR ALL quantifier): customers who have
    purchased at least one part of EVERY brand in ``brands`` — the
    classic shape no single join expresses (division = distinct
    pairs → per-group coverage count → equality filter).

    Scale shape: one hash join against the brand-filtered part slice
    (pinned), one hash(orderkey) join to attach custkey, per-batch
    DISTINCT (custkey, brand) partials collapse duplicate pairs before
    the keyed exchange, a Max-combine dedup groupby, then a per-batch
    coverage count — only |qualifying customers| rows reach the
    driver."""
    from osprey_ray.pipelines.ann import _join_partitions
    from osprey_ray.pipelines.textops import _pin_schema

    need = len(brands)
    bidx = {b: i for i, b in enumerate(brands)}

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    part = _read(sf_dir, "part", ["p_partkey", "p_brand"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])

    def prep_p(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t["p_brand"], value_set=pa.array(list(brands))))
        bi = np.array([bidx[b] for b in t["p_brand"].to_pylist()], dtype=np.int64)
        return pa.table(
            {"partkey": t["p_partkey"].cast(pa.int64()), "brand_i": pa.array(bi)}
        )

    def prep_li(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "partkey": t["l_partkey"].cast(pa.int64()),
                "orderkey": t["l_orderkey"].cast(pa.int64()),
            }
        )

    def prep_o(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "orderkey": t["o_orderkey"].cast(pa.int64()),
                "custkey": t["o_custkey"].cast(pa.int64()),
            }
        )

    P = _join_partitions()
    part_slice = _pin_schema(
        part.map_batches(prep_p, batch_format="pyarrow"),
        pa.schema([("partkey", pa.int64()), ("brand_i", pa.int64())]),
    )
    lp = li.map_batches(prep_li, batch_format="pyarrow").join(
        part_slice,
        join_type="inner",
        num_partitions=P,
        on=("partkey",),
        aggregator_ray_remote_args={"num_cpus": 0},
    )
    lp = _pin_schema(
        lp,
        pa.schema(
            [("partkey", pa.int64()), ("orderkey", pa.int64()),
             ("brand_i", pa.int64())]
        ),
    ).drop_columns(["partkey"])
    lpo = lp.join(
        orders.map_batches(prep_o, batch_format="pyarrow"),
        join_type="inner",
        num_partitions=P,
        on=("orderkey",),
        aggregator_ray_remote_args={"num_cpus": 0},
    )

    # per-batch partial: OR each customer's brand bits into one int64 mask
    # (need ≤ 63 brands); the global combine must also be OR, so it runs
    # as ONE keyed partition callback below — Ray's Max would lose bits
    # whenever two partials carry different subsets
    def pair_partial_or(t: pa.Table) -> pa.Table:
        ck = t["custkey"].to_numpy()
        bit = (np.int64(1) << t["brand_i"].to_numpy()).astype(np.int64)
        if len(ck) == 0:
            return pa.table({"custkey": pa.array([], pa.int64()),
                             "mask": pa.array([], pa.int64())})
        order = np.argsort(ck, kind="stable")
        ck_s, bit_s = ck[order], bit[order]
        starts = np.flatnonzero(np.r_[True, ck_s[1:] != ck_s[:-1]])
        mask = np.bitwise_or.reduceat(bit_s, starts)
        return pa.table(
            {"custkey": pa.array(ck_s[starts]), "mask": pa.array(mask)}
        )

    from osprey_ray.pipelines.analytics import _by_key_partition

    def or_reduce(t: pa.Table) -> pa.Table:
        t = t.drop_columns(["__kp"])
        ck = t["custkey"].to_numpy()
        m = t["mask"].to_numpy()
        order = np.argsort(ck, kind="stable")
        ck_s, m_s = ck[order], m[order]
        starts = np.flatnonzero(np.r_[True, ck_s[1:] != ck_s[:-1]])
        full = np.bitwise_or.reduceat(m_s, starts)
        want = (np.int64(1) << need) - 1
        keep = full == want
        return pa.table({"custkey": pa.array(ck_s[starts][keep])})

    pairs = lpo.map_batches(pair_partial_or, batch_format="pyarrow")
    rows = (
        _by_key_partition(pairs, "custkey")
        .map_groups(or_reduce, batch_format="pyarrow")
        .take_all()
    )
    cks = sorted(r["custkey"] for r in rows)
    return pa.table({"custkey": pa.array(cks, pa.int64())})


# ---------------------------------------------------------------------------
# Universal quantifier per group: fully-on-time orders per priority
# ---------------------------------------------------------------------------


def q_fully_shipped(sf_dir: str, within_days: int = 60):
    """FOR-ALL per group: orders where EVERY lineitem shipped within
    ``within_days`` of the order date, counted per order priority (the
    fill-rate report — a universal quantifier folded into one Max
    combiner, no correlated subquery at runtime).

    Scale shape: one hash(orderkey) join, per-batch (orderkey → any
    late) Max partials, keyed groupby, then a per-batch priority rollup;
    the priority table (≤5 rows) is the only driver materialization."""
    from osprey_ray.pipelines.ann import _join_partitions
    from osprey_ray.pipelines.textops import _pin_schema

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_orderpriority"])
    late_us = within_days * 86_400 * 1_000_000

    def prep_li(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "orderkey": t["l_orderkey"].cast(pa.int64()),
                "ship_us": t["l_shipdate"].cast(pa.int64()),
            }
        )

    def prep_o(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "orderkey": t["o_orderkey"].cast(pa.int64()),
                "od_us": t["o_orderdate"].cast(pa.int64()),
                "priority": t["o_orderpriority"].cast(pa.string()),
            }
        )

    j = li.map_batches(prep_li, batch_format="pyarrow").join(
        orders.map_batches(prep_o, batch_format="pyarrow"),
        join_type="inner",
        num_partitions=_join_partitions(),
        on=("orderkey",),
        aggregator_ray_remote_args={"num_cpus": 0},
    )

    def flag(t: pa.Table) -> pa.Table:
        late = (
            t["ship_us"].to_numpy() > t["od_us"].to_numpy() + late_us
        ).astype(np.int64)
        return _partial(
            pa.table(
                {"orderkey": t["orderkey"], "priority": t["priority"],
                 "late": pa.array(late)}
            ),
            ["orderkey", "priority"], [("late", "max")],
            ["orderkey", "priority", "late"],
            pa.schema(
                [("orderkey", pa.int64()), ("priority", pa.string()),
                 ("late", pa.int64())]
            ),
        )

    per_order = (
        j.map_batches(flag, batch_format="pyarrow")
        .groupby(["orderkey", "priority"])
        .aggregate(Max("late", alias_name="late"))
    )

    def rollup(t: pa.Table) -> pa.Table:
        late = t["late"].to_numpy()
        return _partial(
            pa.table(
                {
                    "priority": t["priority"],
                    "n_full": pa.array((1 - late).astype(np.int64)),
                    "n_orders": pa.array(np.ones(len(late), dtype=np.int64)),
                }
            ),
            ["priority"], [("n_full", "sum"), ("n_orders", "sum")],
            ["priority", "n_full", "n_orders"],
            pa.schema(
                [("priority", pa.string()), ("n_full", pa.int64()),
                 ("n_orders", pa.int64())]
            ),
        )

    return (
        per_order.map_batches(rollup, batch_format="pyarrow")
        .groupby("priority")
        .aggregate(
            Sum("n_full", alias_name="n_full"),
            Sum("n_orders", alias_name="n_orders"),
        )
    )


def q_entity_resolution(sf_dir: str):
    """Record linkage (entity resolution): block -> pairwise edit-distance
    score -> best-match assignment.  Dirty variants are synthesized
    in-query (no external data): every custkey % 3 == 0 customer gets a
    corrupted copy ``c_name || '-' || custkey % 7``; the resolver must
    link each dirty record back to a master.

    Shape: blocking key = c_nationkey (this table's names share the
    'Customer#' prefix, so name-prefix blocking is degenerate here — on a
    real corpus the block key would compose nation × name-prefix), then
    every dirty record scores against ALL masters IN ITS BLOCK with one
    BATCH Levenshtein DP (the ``textops._lev_bytes`` row-vectorized
    recurrence lifted to a (block × name_len) matrix — one query string
    vs the whole block per call, no per-pair Python), winner = min
    (distance, master key).  The candidate count is bounded by the
    blocking (|block_dirty| × |block_master|, never all-pairs), which is
    the standard ER scale contract; both sides are co-partitioned by the
    block key so no replication.  Twin: DuckDB ``levenshtein`` +
    ROW_NUMBER over the same blocked join."""
    ds = _read(sf_dir, "customer", ["c_custkey", "c_name", "c_nationkey"])

    def per_part(t: pa.Table) -> pa.Table:
        key = t["c_custkey"].to_numpy()
        nat = t["c_nationkey"].to_numpy()
        names = np.asarray(t["c_name"].to_numpy(zero_copy_only=False), dtype=object)
        order = np.lexsort((key, nat))
        key, nat, names = key[order], nat[order], names[order]
        starts = np.flatnonzero(np.concatenate(([True], nat[1:] != nat[:-1])))
        bounds = np.append(starts, len(nat))
        out_d, out_m, out_dist = [], [], []
        for b0, b1 in zip(bounds[:-1], bounds[1:]):
            mk = key[b0:b1]
            bnames = [n.encode() for n in names[b0:b1]]
            lens = np.array([len(b) for b in bnames], dtype=np.int64)
            Lm = int(lens.max())
            M = np.zeros((len(bnames), Lm), dtype=np.uint8)
            for r, nb in enumerate(bnames):
                M[r, : len(nb)] = np.frombuffer(nb, np.uint8)
            dmask = mk % 3 == 0
            if not dmask.any():
                continue
            jj = np.arange(Lm + 1, dtype=np.int64)
            rows = np.arange(len(bnames))
            for dk, dn in zip(mk[dmask], names[b0:b1][dmask]):
                dirty = np.frombuffer(f"{dn}-{dk % 7}".encode(), np.uint8)
                # batch DP: query vs every master in the block at once.
                # Padded columns beyond a master's length compute garbage
                # but entry j only depends on columns <= j, so reading
                # prev[r, lens[r]] yields the true distance.
                prev = np.broadcast_to(jj, (len(bnames), Lm + 1)).copy()
                cur = np.empty_like(prev)
                for ai in dirty:
                    cur[:, 0] = prev[0, 0] + 1
                    np.minimum(prev[:, 1:] + 1, prev[:, :-1] + (M != ai),
                               out=cur[:, 1:])
                    np.minimum(cur, np.minimum.accumulate(cur - jj, axis=1) + jj,
                               out=cur)
                    prev, cur = cur, prev
                dist = prev[rows, lens]
                best = np.lexsort((mk, dist))[0]
                out_d.append(int(dk))
                out_m.append(int(mk[best]))
                out_dist.append(int(dist[best]))
        return pa.table({
            "dirty_custkey": pa.array(out_d, pa.int64()),
            "matched_custkey": pa.array(out_m, pa.int64()),
            "lev_dist": pa.array(out_dist, pa.int64()),
        })

    return _by_key_partition(ds, "c_nationkey").map_groups(
        per_part, batch_format="pyarrow")
