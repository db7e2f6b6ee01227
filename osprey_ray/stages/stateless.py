"""Stage 1: compile a RuleSpec into one vectorized ``map_batches`` function.

The analogue of the reference's execution graph + executor loop
(/root/reference/osprey_worker/src/osprey/engine/executor/executor.py:308-417)
— but instead of scheduling per-event dependency chains with gevent, the
whole stateless subgraph is evaluated column-at-a-time over an Arrow batch.

What it produces per input batch:

- every extracted stateless feature as an output column;
- for each stateful feature, its gating predicate(s) as hidden bool columns
  (``__sf_<name>``, ``__sf_<name>_b`` for SequenceMatch) so stage 2 is pure
  numpy over key/ts/predicate columns — the wide ``text`` column never
  crosses the shuffle (SURVEY §7 "wide text rows");
- for each rule, the AND-fold of its *stateless* conjuncts as
  ``__rulepre_<name>`` (rules with no stateful deps are final here);
- ``__error_count`` (executor.py:399-407 custom feature).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from osprey_ray.expr import EvalContext, Expr, _as_array, _bool_operand
from osprey_ray.rules import (
    IncrementWindow,
    KvCache,
    RuleSpec,
    SequenceMatch,
    TumblingCount,
    TumblingDistinct,
    TumblingMax,
    TumblingSum,
)

KEY_COLS = ["conv_id", "turn_idx", "ts"]


@dataclass
class RulePlan:
    name: str
    stateless: list[Expr]
    stateful_nonlabel: list[Expr]
    label: list[Expr]

    @property
    def is_stateless(self) -> bool:
        return not self.stateful_nonlabel and not self.label


def split_rules(spec: RuleSpec) -> list[RulePlan]:
    sf_names = set(spec.stateful_names())
    label_names = spec.label_feature_names()
    plans = []
    for r in spec.rules:
        sl, sf, lb = [], [], []
        for conj in r.when_all:
            refs = conj.refs()
            if refs & label_names:
                lb.append(conj)
            elif refs & sf_names:
                sf.append(conj)
            else:
                sl.append(conj)
        plans.append(RulePlan(r.name, sl, sf, lb))
    return plans


def compile_stateless(spec: RuleSpec, keep_cols: tuple[str, ...] = ()) -> "StatelessStage":
    spec.validate()
    return StatelessStage(spec, keep_cols)


class StatelessStage:
    """Callable for ``ds.map_batches(stage, batch_format='pyarrow')``.

    Plain function semantics (no per-batch state), but exposed as a class so
    the compiled plan is pickled once per task rather than rebuilt."""

    def __init__(self, spec: RuleSpec, keep_cols: tuple[str, ...] = ()):
        self.spec = spec
        self.keep_cols = keep_cols
        self.rule_plans = split_rules(spec)

    def __call__(self, tbl: pa.Table) -> pa.Table:
        spec = self.spec
        ctx = EvalContext(tbl)
        out_cols: dict[str, pa.Array] = {}
        for k in KEY_COLS:
            out_cols[k] = _as_array(ctx.resolve(k), ctx.n)
        for k in self.keep_cols:
            if k not in out_cols:
                out_cols[k] = _as_array(ctx.resolve(k), ctx.n)

        # features, in declared order (AssignExecutor: failed → null);
        # secret-tainted / constant / local features evaluate but never
        # extract, ExtractLiteral/ExtractSecret force extraction
        from osprey_ray.rules import extracted_names

        extract = extracted_names(spec.features)
        for f in spec.features:
            arr = _as_array(f.expr.eval_batch(ctx), ctx.n)
            ctx.features[f.name] = arr
            if f.name in extract:
                out_cols[f.name] = arr

        # stateful gating predicates → hidden bool columns
        for sf in spec.stateful:
            if isinstance(sf, (IncrementWindow, TumblingCount)):
                out_cols[f"__sf_{sf.name}"] = _bool_operand(
                    _as_array(sf.when.eval_batch(ctx), ctx.n)
                )
            elif isinstance(sf, (TumblingSum, TumblingMax)):
                # int64 weight column: null/failed → 0, negatives clamped to
                # 0 so the running sum/max stays monotone non-negative within
                # a bucket (the window-stream max-merge invariant)
                v = _as_array(sf.value.eval_batch(ctx), ctx.n)
                v = pc.fill_null(pc.cast(v, pa.int64(), safe=False), 0)
                out_cols[f"__sf_{sf.name}"] = pc.max_element_wise(
                    v, pa.scalar(0, pa.int64())
                )
            elif isinstance(sf, TumblingDistinct):
                # string value column, nulls preserved (null/failed turns
                # contribute nothing to the bucket's distinct set)
                v = _as_array(sf.value.eval_batch(ctx), ctx.n)
                if not pa.types.is_string(v.type) and not pa.types.is_large_string(v.type):
                    v = pc.cast(v, pa.string(), safe=False)
                out_cols[f"__sf_{sf.name}"] = v
            elif isinstance(sf, SequenceMatch):
                out_cols[f"__sf_{sf.name}"] = _bool_operand(
                    _as_array(sf.first.eval_batch(ctx), ctx.n)
                )
                out_cols[f"__sf_{sf.name}_b"] = _bool_operand(
                    _as_array(sf.second.eval_batch(ctx), ctx.n)
                )
            elif isinstance(sf, KvCache):
                out_cols[f"__sf_{sf.name}"] = _bool_operand(
                    _as_array(sf.set_when.eval_batch(ctx), ctx.n)
                )
                out_cols[f"__sfv_{sf.name}"] = _as_array(sf.value.eval_batch(ctx), ctx.n)
            # SessionWindow / HasLabel / WindowCount need no stage-1 predicate

        # stream-pattern first/second predicates (AbsenceAlert "ab",
        # FollowedBy "fb") → hidden bool columns (the __sf_ prefix keeps
        # them out of the evaluated output); the shard's pattern tracker
        # (streaming/patterns.py) reads these instead of re-evaluating the
        # Exprs, so raw input columns never need to survive stage 1
        for kind, pats in (("ab", spec.absences), ("fb", spec.follows)):
            for p in pats:
                for side, expr in (("a", p.first), ("b", p.second)):
                    out_cols[f"__sf_{kind}__{p.name}__{side}"] = _bool_operand(
                        _as_array(expr.eval_batch(ctx), ctx.n)
                    )

        # rule pre-folds over stateless conjuncts
        for rp in self.rule_plans:
            if rp.stateless:
                acc = _bool_operand(_as_array(rp.stateless[0].eval_batch(ctx), ctx.n))
                for conj in rp.stateless[1:]:
                    acc = pc.and_(acc, _bool_operand(_as_array(conj.eval_batch(ctx), ctx.n)))
            else:
                acc = pa.array(np.ones(ctx.n, dtype=bool))
            out_cols[f"__rulepre_{rp.name}"] = acc

        out_cols["__error_count"] = pa.array(ctx.error_count, pa.int32())
        return pa.table(out_cols)
