"""Null/failure semantics matrix — the correctness trap from SURVEY §2.0.

Each case checks the vectorized batch path and the oracle row path agree,
and that the special cases match the reference executors
(binary_comparison_executor.py:54-65, boolean_operation_executor.py:22-31).
"""

import datetime as dt

import pyarrow as pa
import pytest

from osprey_ray.expr import (
    BoolOp,
    EvalContext,
    ExprError,
    RowContext,
    and_,
    col,
    fmt,
    lit,
    not_,
    or_,
)


def _batch_one(expr, row):
    tbl = pa.table({k: [v] for k, v in row.items()})
    ctx = EvalContext(tbl)
    return expr.eval_batch(ctx)[0].as_py(), int(ctx.error_count[0])


def _row_one(expr, row):
    rctx = RowContext(row=row)
    try:
        return expr.eval_row(rctx), rctx.errors
    except ExprError:
        return None, rctx.errors


@pytest.mark.parametrize(
    "l,r,expected",
    [
        (None, None, True),
        (None, 1, False),
        (1, None, False),
        (1, 1, True),
        (1, 2, False),
    ],
)
def test_eq_null_tolerant(l, r, expected):
    e = col("a") == col("b")
    row = {"a": l, "b": r}
    assert _batch_one(e, row)[0] == expected
    assert _row_one(e, row)[0] == expected
    ne = col("a") != col("b")
    assert _batch_one(ne, row)[0] == (not expected)
    assert _row_one(ne, row)[0] == (not expected)


@pytest.mark.parametrize(
    "v,values,expected",
    [
        (None, [1, 2, None], True),   # None in [..., None] → True
        (None, [1, 2], False),        # None in [...] → False
        (1, [1, 2], True),
        (3, [1, 2], False),
    ],
)
def test_in_null_semantics(v, values, expected):
    e = col("a").in_(values)
    row = {"a": v}
    assert _batch_one(e, row)[0] == expected
    assert _row_one(e, row)[0] == expected
    ne = col("a").not_in(values)
    assert _batch_one(ne, row)[0] == (not expected)


def test_ordered_cmp_with_null_is_null():
    e = col("a") < col("b")
    v, _ = _batch_one(e, {"a": None, "b": 1})
    assert v is None
    assert _row_one(e, {"a": None, "b": 1})[0] is None  # node fails


def test_bool_ops_coerce_failed_to_false():
    # and/or always produce a bool; null operands count as falsey
    e = and_(col("a") < col("b"), lit(True))
    assert _batch_one(e, {"a": None, "b": 1})[0] is False
    e2 = or_(col("a") < col("b"), lit(True))
    assert _batch_one(e2, {"a": None, "b": 1})[0] is True


def test_truthiness_in_bool_context():
    assert _batch_one(and_(col("s")), {"s": "x"})[0] is True
    assert _batch_one(and_(col("s")), {"s": ""})[0] is False
    assert _batch_one(and_(col("n")), {"n": 5})[0] is True
    assert _batch_one(and_(col("n")), {"n": 0})[0] is False


def test_not_propagates_null():
    v, _ = _batch_one(not_(col("a")), {"a": None})
    assert v is None


def test_div_by_zero_counts_error():
    e = col("a") / col("b")
    v, errs = _batch_one(e, {"a": 1, "b": 0})
    assert v is None and errs == 1
    rv, rerrs = _row_one(e, {"a": 1, "b": 0})
    assert rv is None and rerrs == 1


def test_arith_parity():
    for op in "+ - * / // % **".split():
        e = {
            "+": col("a") + col("b"), "-": col("a") - col("b"),
            "*": col("a") * col("b"), "/": col("a") / col("b"),
            "//": col("a") // col("b"), "%": col("a") % col("b"),
            "**": col("a") ** col("b"),
        }[op]
        for a, b in [(7, 3), (-7, 3), (8, 2)]:
            bv, _ = _batch_one(e, {"a": a, "b": b})
            rv, _ = _row_one(e, {"a": a, "b": b})
            assert bv == pytest.approx(rv), (op, a, b, bv, rv)


def test_fmt():
    e = fmt("user {name} scored {n}")
    row = {"name": "bob", "n": 3}
    ctx = EvalContext(pa.table({k: [v] for k, v in row.items()}))
    ctx.features["name"] = pa.array(["bob"])
    ctx.features["n"] = pa.array([3])
    assert e.eval_batch(ctx)[0].as_py() == "user bob scored 3"


def test_int_floordiv_mod_exact_above_2_53():
    # float64 routing would lose exactness for snowflake-sized int64 operands
    big = (1 << 60) + 12345  # not representable exactly in float64
    for a, b in [(big, 7), (-big, 7), (big, -7), (big, 1000), (-big, -7)]:
        for op, e in [("//", col("a") // col("b")), ("%", col("a") % col("b"))]:
            bv, _ = _batch_one(e, {"a": a, "b": b})
            expected = a // b if op == "//" else a % b
            assert bv == expected, (op, a, b, bv, expected)


def test_unknown_name_is_expr_error():
    from osprey_ray.expr import RowContext, UnknownNameError

    rctx = RowContext(row={}, features={"HasSpam": True})
    e = col("nope") | col("HasSpam")
    # a conjunct touching a missing column must raise ExprError (callers in the
    # sparse label walk treat it as a failed/None conjunct), not bare KeyError
    with pytest.raises(ExprError):
        col("nope").eval_row(rctx)
    assert issubclass(UnknownNameError, KeyError)


@pytest.mark.parametrize("n", [0, 1, 5])
@pytest.mark.parametrize(
    "value",
    [7, 2.5, "txt", True, [1, 2], ["a", None], dt.datetime(2024, 1, 2, 3, 4, 5), None],
    ids=["int", "float", "str", "bool", "list", "str_list", "timestamp", "none"],
)
def test_lit_eval_batch_matches_per_row_array(value, n):
    """A literal's batch column is the literal repeated: same type and
    values as an n-element ``pa.array`` of it (null-typed at zero rows)."""
    got = lit(value).eval_batch(EvalContext(pa.table({"x": list(range(n))})))
    want = pa.array([value] * n)
    assert got.type == want.type
    assert got.to_pylist() == want.to_pylist()
