"""Expression DSL compiled to vectorized Arrow compute.

This plays the role of the reference's SML AST + node executors
(/root/reference/osprey_worker/src/osprey/engine/ast/grammar.py:188-877 and
engine/executor/node_executor/*), re-expressed as a tree of ``Expr`` nodes
that evaluate over whole Arrow batches (``eval_batch``) — and, for the
golden-test oracle, one row at a time (``eval_row``) with Python semantics
that mirror the reference executors exactly.

Null / failure semantics (the correctness trap called out in SURVEY.md §2.0):

- A failed node in the reference becomes ``Err(None)`` and poisons dependents
  (engine/executor/execution_context.py:51-66).  Observably, failed values
  collapse to ``None`` wherever tolerated.  We model both "failed" and
  legitimate ``None`` as Arrow nulls; explicit failure points (div-by-zero,
  kernel errors) additionally increment the per-row ``__error_count``.
- ``==`` / ``!=`` are null-tolerant: ``None == None`` is True
  (binary_comparison_executor.py:34-43 + operator.eq).
- ``in`` / ``not in``: ``None in [..., None]`` → True, ``None in [...]`` →
  False, ``x in None`` → False (binary_comparison_executor.py:54-65).
- ``< <= > >=`` with a None operand: the node fails → null.
- ``and`` = all / ``or`` = any with failed operands coerced to falsey None
  (boolean_operation_executor.py:22-31); vectorized as truthiness →
  fill_null(False) → and/or fold, which always yields a non-null bool.
- ``not`` / unary ``-`` propagate nulls (unary_operation_executor.py:16-33).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


class ExprError(Exception):
    """Row-level evaluation failure (oracle path) — maps to Err(None)."""


class UnknownNameError(ExprError, KeyError):
    """A name is neither a column nor a computed feature in this context.

    Subclasses both ExprError (so rule-evaluation `except ExprError` handlers —
    e.g. the sparse label walk, which evaluates label-gated conjuncts against a
    HasLabel-only RowContext — treat a missing name as a failed/None conjunct
    instead of crashing) and KeyError (for callers that probe with
    `except KeyError`).
    """


# --------------------------------------------------------------------------
# evaluation contexts
# --------------------------------------------------------------------------


@dataclass
class EvalContext:
    """Batch evaluation context: one Arrow batch + resolved feature columns."""

    tbl: pa.Table
    features: dict[str, pa.Array] = field(default_factory=dict)
    error_count: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.error_count is None:
            self.error_count = np.zeros(self.tbl.num_rows, dtype=np.int32)

    @property
    def n(self) -> int:
        return self.tbl.num_rows

    def resolve(self, name: str) -> pa.Array:
        if name in self.features:
            return self.features[name]
        if name in self.tbl.column_names:
            col = self.tbl.column(name)
            return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        raise UnknownNameError(f"unknown column/feature: {name}")

    def add_errors(self, mask: Any) -> None:
        """mask: boolean numpy array or pa.Array of rows that failed."""
        if isinstance(mask, (pa.Array, pa.ChunkedArray)):
            mask = pc.fill_null(mask, False).to_numpy(zero_copy_only=False)
        self.error_count[mask] += 1


@dataclass
class RowContext:
    """Oracle (row-at-a-time) context."""

    row: dict[str, Any]
    features: dict[str, Any] = field(default_factory=dict)
    errors: int = 0

    def resolve(self, name: str) -> Any:
        if name in self.features:
            return self.features[name]
        if name in self.row:
            return self.row[name]
        raise UnknownNameError(f"unknown column/feature: {name}")


def _as_array(v: Any, n: int) -> pa.Array:
    """Broadcast a scalar result to an n-length Arrow array if needed."""
    if isinstance(v, pa.ChunkedArray):
        return v.combine_chunks()
    if isinstance(v, pa.Array):
        return v
    if isinstance(v, pa.Scalar):
        if not v.is_valid:
            return pa.nulls(n, v.type)
        return pa.array(np.repeat(np.array([v.as_py()]), n)) if n else pa.array([], v.type)
    return pa.array([v] * n)


def truthy(arr: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Python truthiness, vectorized; nulls stay null."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    t = arr.type
    if pa.types.is_boolean(t):
        return arr
    if pa.types.is_integer(t) or pa.types.is_floating(t):
        return pc.not_equal(arr, 0)
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return pc.greater(pc.utf8_length(arr), 0)
    if pa.types.is_list(t) or pa.types.is_large_list(t):
        return pc.greater(pc.list_value_length(arr), 0)
    if pa.types.is_null(t):
        return arr.cast(pa.bool_())
    raise TypeError(f"no truthiness for arrow type {t}")


def _bool_operand(arr: pa.Array) -> pa.Array:
    return pc.fill_null(truthy(arr), False)


# --------------------------------------------------------------------------
# Expr nodes
# --------------------------------------------------------------------------


class Expr:
    def eval_batch(self, ctx: EvalContext) -> pa.Array:
        raise NotImplementedError

    def eval_row(self, rctx: RowContext) -> Any:
        raise NotImplementedError

    def refs(self) -> set[str]:
        return set()

    # -- operator sugar ---------------------------------------------------
    def __add__(self, o): return BinOp("+", self, wrap(o))
    def __radd__(self, o): return BinOp("+", wrap(o), self)
    def __sub__(self, o): return BinOp("-", self, wrap(o))
    def __rsub__(self, o): return BinOp("-", wrap(o), self)
    def __mul__(self, o): return BinOp("*", self, wrap(o))
    def __rmul__(self, o): return BinOp("*", wrap(o), self)
    def __truediv__(self, o): return BinOp("/", self, wrap(o))
    def __rtruediv__(self, o): return BinOp("/", wrap(o), self)
    def __floordiv__(self, o): return BinOp("//", self, wrap(o))
    def __mod__(self, o): return BinOp("%", self, wrap(o))
    def __pow__(self, o): return BinOp("**", self, wrap(o))
    def __lshift__(self, o): return BinOp("<<", self, wrap(o))
    def __rshift__(self, o): return BinOp(">>", self, wrap(o))
    def __and__(self, o): return BinOp("&", self, wrap(o))
    def __or__(self, o): return BinOp("|", self, wrap(o))
    def __xor__(self, o): return BinOp("^", self, wrap(o))
    def __eq__(self, o): return Cmp("==", self, wrap(o))  # type: ignore[override]
    def __ne__(self, o): return Cmp("!=", self, wrap(o))  # type: ignore[override]
    def __lt__(self, o): return Cmp("<", self, wrap(o))
    def __le__(self, o): return Cmp("<=", self, wrap(o))
    def __gt__(self, o): return Cmp(">", self, wrap(o))
    def __ge__(self, o): return Cmp(">=", self, wrap(o))
    def __neg__(self): return Neg(self)
    def __invert__(self): return Not(self)
    def __hash__(self):  # needed because __eq__ is overloaded
        return id(self)

    def in_(self, values): return Cmp("in", self, wrap(values))
    def not_in(self, values): return Cmp("not in", self, wrap(values))
    def is_null(self): return IsNull(self)
    def is_not_null(self): return Not(IsNull(self))


def wrap(v: Any) -> Expr:
    return v if isinstance(v, Expr) else Lit(v)


@dataclass(eq=False)
class Col(Expr):
    name: str

    def eval_batch(self, ctx): return ctx.resolve(self.name)
    def eval_row(self, rctx): return rctx.resolve(self.name)
    def refs(self): return {self.name}


@dataclass(eq=False)
class Lit(Expr):
    value: Any

    def eval_batch(self, ctx):
        # pa.repeat rejects a nested scalar at length 0; zero rows stay a
        # null-typed empty array
        return pa.repeat(pa.scalar(self.value), ctx.n) if ctx.n else pa.nulls(0)

    def eval_row(self, rctx): return self.value


_TS_TYPES = (pa.types.is_timestamp, pa.types.is_duration)


class BinOp(Expr):
    """Arithmetic / bitwise (grammar BinaryOperation,
    binary_operation_executor.py:31-60)."""

    def __init__(self, op: str, left: Expr, right: Expr):
        self.op, self.left, self.right = op, left, right

    def refs(self): return self.left.refs() | self.right.refs()

    def eval_batch(self, ctx: EvalContext) -> pa.Array:
        l = _as_array(self.left.eval_batch(ctx), ctx.n)
        r = _as_array(self.right.eval_batch(ctx), ctx.n)
        op = self.op
        if op == "+":
            if pa.types.is_string(l.type) or pa.types.is_large_string(l.type):
                return pc.binary_join_element_wise(l, r, "")
            return pc.add(l, r)
        if op == "-":
            return pc.subtract(l, r)
        if op == "*":
            return pc.multiply(l, r)
        if op in ("/", "//", "%"):
            zero = pc.fill_null(pc.equal(r, 0), False)
            if pc.any(zero).as_py():
                ctx.add_errors(pc.and_(zero, l.is_valid()))
                r = pc.if_else(zero, pa.nulls(ctx.n, r.type), r)
            if op == "/":
                return pc.divide(pc.cast(l, pa.float64()), pc.cast(r, pa.float64()))
            if pa.types.is_integer(l.type) and pa.types.is_integer(r.type):
                # exact int64 path (float64 floor-divide loses exactness past
                # 2^53 — e.g. snowflake ids — and would diverge from the
                # oracle's Python integer floordiv/mod)
                li = pc.cast(l, pa.int64())
                ri = pc.cast(r, pa.int64())
                q = pc.divide(li, ri)  # truncating integer division
                rem = pc.subtract(li, pc.multiply(q, ri))
                # Python floor semantics: step q down when rem != 0 and signs differ
                adjust = pc.and_(
                    pc.not_equal(rem, 0),
                    pc.not_equal(pc.less(li, 0), pc.less(ri, 0)),
                )
                fq = pc.if_else(adjust, pc.subtract(q, 1), q)
                if op == "//":
                    return fq
                return pc.subtract(li, pc.multiply(fq, ri))
            fl = pc.floor(pc.divide(pc.cast(l, pa.float64()), pc.cast(r, pa.float64())))
            if op == "//":
                return fl
            # Python modulo: a - floor(a/b)*b
            return pc.subtract(pc.cast(l, pa.float64()), pc.multiply(fl, pc.cast(r, pa.float64())))
        if op == "**":
            return pc.power(l, r)
        if op == "<<":
            return pc.shift_left(l, r)
        if op == ">>":
            return pc.shift_right(l, r)
        if op == "&":
            return pc.bit_wise_and(l, r)
        if op == "|":
            return pc.bit_wise_or(l, r)
        if op == "^":
            return pc.bit_wise_xor(l, r)
        raise ValueError(f"unknown binop {self.op}")

    _PY = {
        "+": operator.add, "-": operator.sub, "*": operator.mul,
        "/": operator.truediv, "//": operator.floordiv, "%": operator.mod,
        "**": operator.pow, "<<": operator.lshift, ">>": operator.rshift,
        "&": operator.and_, "|": operator.or_, "^": operator.xor,
    }

    def eval_row(self, rctx: RowContext) -> Any:
        l = self.left.eval_row(rctx)
        r = self.right.eval_row(rctx)
        if l is None or r is None:
            raise ExprError("binop on None")
        try:
            return self._PY[self.op](l, r)
        except (ZeroDivisionError, TypeError, ValueError) as e:
            rctx.errors += 1
            raise ExprError(str(e))


def _null_tolerant_eq(l: pa.Array, r: pa.Array) -> pa.Array:
    both_null = pc.and_(l.is_null(), r.is_null())
    if pa.types.is_null(l.type) or pa.types.is_null(r.type):
        return both_null  # a null-typed side equals only nulls
    eq = pc.fill_null(pc.equal(l, r), False)
    return pc.or_(eq, both_null)


class Cmp(Expr):
    """BinaryComparison (binary_comparison_executor.py:27-77)."""

    def __init__(self, op: str, left: Expr, right: Expr):
        self.op, self.left, self.right = op, left, right

    def refs(self): return self.left.refs() | self.right.refs()

    def eval_batch(self, ctx: EvalContext) -> pa.Array:
        op = self.op
        if op in ("in", "not in") and isinstance(self.right, Lit):
            l = _as_array(self.left.eval_batch(ctx), ctx.n)
            values = self.right.value
            has_null = any(v is None for v in values)
            non_null = [v for v in values if v is not None]
            if non_null:
                vs = pa.array(non_null)
                if not pa.types.is_null(l.type):
                    try:
                        vs = vs.cast(l.type)
                    except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
                        pass
                isin = pc.fill_null(pc.is_in(l, value_set=vs), False)
            else:
                isin = pa.array(np.zeros(ctx.n, dtype=bool))
            if has_null:
                isin = pc.or_(isin, l.is_null())
            else:
                isin = pc.and_(isin, l.is_valid())
            return pc.invert(isin) if op == "not in" else isin
        l = _as_array(self.left.eval_batch(ctx), ctx.n)
        r = _as_array(self.right.eval_batch(ctx), ctx.n)
        if op == "==":
            return _null_tolerant_eq(l, r)
        if op == "!=":
            return pc.invert(_null_tolerant_eq(l, r))
        if pa.types.is_null(l.type) or pa.types.is_null(r.type):
            return pa.nulls(ctx.n, pa.bool_())  # ordered cmp on failed → null
        if op == "<":
            return pc.less(l, r)
        if op == "<=":
            return pc.less_equal(l, r)
        if op == ">":
            return pc.greater(l, r)
        if op == ">=":
            return pc.greater_equal(l, r)
        if op in ("in", "not in"):
            # right side is a per-row list column: row-wise membership with
            # the reference's None semantics (in_operator, :54-65)
            lv = l.to_pylist()
            rv = r.to_pylist()
            out = [_in_op(a, b) for a, b in zip(lv, rv)]
            res = pa.array(out, pa.bool_())
            return pc.invert(res) if op == "not in" else res
        raise ValueError(f"unknown cmp {op}")

    def eval_row(self, rctx: RowContext) -> Any:
        tol_left = self.op in ("in", "not in", "==", "!=")
        tol_right = self.op in ("==", "!=")
        try:
            l = self.left.eval_row(rctx)
        except ExprError:
            if not tol_left:
                raise
            l = None
        try:
            r = self.right.eval_row(rctx)
        except ExprError:
            if not tol_right:
                raise
            r = None
        op = self.op
        if op == "==":
            return l == r
        if op == "!=":
            return l != r
        if op == "in":
            return _in_op(l, r)
        if op == "not in":
            return not _in_op(l, r)
        if l is None or r is None:
            raise ExprError("ordered cmp on None")
        return {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}[op](l, r)


def _in_op(a: Any, b: Any) -> bool:
    # mirrors binary_comparison_executor.py:54-65
    if a is None and (b is None or (isinstance(b, list) and None in b)):
        return True
    if a is None or b is None:
        return False
    return a in b


class BoolOp(Expr):
    """and/or (boolean_operation_executor.py:22-31): failed → falsey None."""

    def __init__(self, op: str, operands: Sequence[Expr]):
        self.op = op
        self.operands = [wrap(o) for o in operands]

    def refs(self):
        s: set[str] = set()
        for o in self.operands:
            s |= o.refs()
        return s

    def eval_batch(self, ctx: EvalContext) -> pa.Array:
        parts = [_bool_operand(_as_array(o.eval_batch(ctx), ctx.n)) for o in self.operands]
        out = parts[0]
        f = pc.and_ if self.op == "and" else pc.or_
        for p in parts[1:]:
            out = f(out, p)
        return out

    def eval_row(self, rctx: RowContext) -> Any:
        vals = []
        for o in self.operands:
            try:
                vals.append(o.eval_row(rctx))
            except ExprError:
                vals.append(None)
        return all(vals) if self.op == "and" else any(vals)


class Not(Expr):
    def __init__(self, operand: Expr):
        self.operand = wrap(operand)

    def refs(self): return self.operand.refs()

    def eval_batch(self, ctx):
        return pc.invert(truthy(_as_array(self.operand.eval_batch(ctx), ctx.n)))

    def eval_row(self, rctx):
        v = self.operand.eval_row(rctx)
        if v is None:
            raise ExprError("not None")
        return not v


class Neg(Expr):
    def __init__(self, operand: Expr):
        self.operand = wrap(operand)

    def refs(self): return self.operand.refs()

    def eval_batch(self, ctx):
        return pc.negate(_as_array(self.operand.eval_batch(ctx), ctx.n))

    def eval_row(self, rctx):
        v = self.operand.eval_row(rctx)
        if v is None:
            raise ExprError("neg None")
        return -v


class IsNull(Expr):
    def __init__(self, operand: Expr):
        self.operand = wrap(operand)

    def refs(self): return self.operand.refs()

    def eval_batch(self, ctx):
        return _as_array(self.operand.eval_batch(ctx), ctx.n).is_null()

    def eval_row(self, rctx):
        try:
            return self.operand.eval_row(rctx) is None
        except ExprError:
            return True


class Fn(Expr):
    """Kernel (UDF) call — the CallExecutor analogue
    (engine/executor/node_executor/call_executor.py:18-45).  Kwargs that are
    plain Python values act as the reference's ConstExpr compile-time
    literals; Expr kwargs are evaluated per batch/row."""

    def __init__(self, name: str, /, **kwargs: Any):
        from osprey_ray.kernels import get_kernel  # late import to avoid cycle

        self.name = name
        self.kernel = get_kernel(name)
        self.kwargs = kwargs

    def refs(self):
        s: set[str] = set()
        for v in self.kwargs.values():
            if isinstance(v, Expr):
                s |= v.refs()
        return s

    def eval_batch(self, ctx: EvalContext) -> pa.Array:
        resolved: dict[str, Any] = {}
        for k, v in self.kwargs.items():
            resolved[k] = _as_array(v.eval_batch(ctx), ctx.n) if isinstance(v, Expr) else v
        return self.kernel.batch(ctx, **resolved)

    def eval_row(self, rctx: RowContext) -> Any:
        resolved: dict[str, Any] = {}
        for k, v in self.kwargs.items():
            resolved[k] = v.eval_row(rctx) if isinstance(v, Expr) else v
        return self.kernel.row(rctx, **resolved)


class Fmt(Expr):
    """FormatString (grammar.py FormatString; format_string_executor.py:13):
    interpolates feature values into a template, rendered vectorized."""

    def __init__(self, template: str):
        import re

        self.template = template
        self.parts: list[tuple[bool, str]] = []  # (is_field, text)
        for m in re.split(r"(\{[^{}]+\})", template):
            if m.startswith("{") and m.endswith("}"):
                self.parts.append((True, m[1:-1]))
            elif m:
                self.parts.append((False, m))

    def refs(self):
        return {t for isf, t in self.parts if isf}

    def eval_batch(self, ctx: EvalContext) -> pa.Array:
        segs = []
        for is_field, text in self.parts:
            if is_field:
                arr = _as_array(ctx.resolve(text), ctx.n)
                if not (pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type)):
                    arr = pc.cast(arr, pa.string())
                segs.append(pc.fill_null(arr, "None"))
            else:
                segs.append(pa.array([text] * ctx.n))
        if len(segs) == 1:
            return segs[0]
        return pc.binary_join_element_wise(*segs, "")

    def eval_row(self, rctx: RowContext) -> Any:
        out = []
        for is_field, text in self.parts:
            if is_field:
                try:
                    v = rctx.resolve(text)
                except KeyError:
                    v = None
                out.append(str(v))
            else:
                out.append(text)
        return "".join(out)


# -- public constructors ----------------------------------------------------

def col(name: str) -> Col:
    return Col(name)


def lit(value: Any) -> Lit:
    return Lit(value)


def fn(name: str, /, **kwargs: Any) -> Fn:
    return Fn(name, **kwargs)


def and_(*operands: Expr) -> BoolOp:
    return BoolOp("and", list(operands))


def or_(*operands: Expr) -> BoolOp:
    return BoolOp("or", list(operands))


def not_(operand: Expr) -> Not:
    return Not(operand)


def fmt(template: str) -> Fmt:
    return Fmt(template)
