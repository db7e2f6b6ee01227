"""The one stream-pattern tracker without Ray: fed random conversations in
random epoch cuts, ``patterns.track`` emits exactly the brute-force
interval join (FollowedBy) and anti-join (AbsenceAlert), keeps a same-named
AbsenceAlert and FollowedBy apart, and holds no state after a +inf
watermark."""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from osprey_ray.expr import col, lit
from osprey_ray.rules import AbsenceAlert, FollowedBy, RuleSpec
from osprey_ray.stages.stateful import sort_and_dedup
from osprey_ray.stages.stateless import compile_stateless
from osprey_ray.streaming.patterns import (
    ALERT_SCHEMA, ARMED_SCHEMA, NO_ARMED, PAIR_SCHEMA, spec_patterns, track,
)

US = 1_000_000
I64_MAX = np.iinfo(np.int64).max


@st.composite
def streams(draw):
    """(rows, epoch watermarks, W_us, idle W_us).  Steps of 0 give ts ties;
    whole-second steps hit ``b == a + W`` exactly, 1 µs steps land just
    past it; negative steps make ts decrease along turns, so B's arrive
    out of ts order within a conversation."""
    rows = []
    for c in range(draw(st.integers(1, 6))):
        ts = draw(st.integers(5, 10)) * US
        for i in range(draw(st.integers(0, 14))):
            step = draw(st.sampled_from([0, 0, 1, US, 2 * US, 3 * US, 7 * US, -US, -2 * US - 1]))
            ts = max(ts + step, 0)
            tool = draw(st.sampled_from(["exec", "mail", "read"]))
            rows.append((f"c{c}", i, ts, tool))
    hi = max((r[2] for r in rows), default=0)
    cuts = sorted(draw(st.lists(st.integers(-1, hi + US), max_size=4)))
    W = draw(st.sampled_from([1, 2, 3, 10])) * US
    return rows, cuts, W, draw(st.sampled_from([1, 4])) * US


def _spec(W: int, W_idle: int) -> RuleSpec:
    a, b = col("tool") == "exec", col("tool") == "mail"
    return RuleSpec(
        absences=[AbsenceAlert("p", a, b, W / US),
                  AbsenceAlert("idle", lit(True), lit(True), W_idle / US)],
        follows=[FollowedBy("p", a, b, W / US)],
    )


# each pattern's first/second predicates as plain Python over a row
_PY = {
    (AbsenceAlert, "p"): (lambda r: r[3] == "exec", lambda r: r[3] == "mail"),
    (FollowedBy, "p"): (lambda r: r[3] == "exec", lambda r: r[3] == "mail"),
    (AbsenceAlert, "idle"): (lambda r: True, lambda r: True),
}


def _bruteforce(rows, spec):
    pairs, alerts = [], []
    for p in spec_patterns(spec):
        W = int(p.window_seconds * US)
        first, second = _PY[type(p), p.name]
        for cid in {r[0] for r in rows}:
            A = [r[2] for r in rows if r[0] == cid and first(r)]
            B = [r[2] for r in rows if r[0] == cid and second(r)]
            for a in A:
                hits = [b for b in B if a < b <= a + W]
                if isinstance(p, FollowedBy):
                    pairs += [(p.name, cid, a, b) for b in hits]
                elif not hits:
                    alerts.append((p.name, cid, a, a + W))
    return sorted(pairs), sorted(alerts)


def _rows(tbl: pa.Table | None, schema: pa.Schema) -> list[tuple]:
    if tbl is None:
        return []
    assert tbl.schema.equals(schema)
    got = list(zip(*(tbl[f].cast(pa.string() if i < 2 else pa.int64()).to_pylist()
                     for i, f in enumerate(schema.names))))
    assert got == sorted(got), "epoch table not in (pattern, conv, ts, ts) order"
    return got


@settings(max_examples=300, deadline=None)
@given(streams())
def test_track_equals_bruteforce_join_and_antijoin(case):
    rows, cuts, W, W_idle = case
    spec = _spec(W, W_idle)
    tbl = pa.table({
        "conv_id": pa.array([r[0] for r in rows], pa.string()),
        "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
        "ts": pa.array([r[2] for r in rows], pa.int64()).cast(pa.timestamp("us")),
        "role": pa.array(["tool"] * len(rows), pa.string()),
        "tool": pa.array([r[3] for r in rows], pa.string()),
        "text": pa.array(["x"] * len(rows), pa.string()),
    })
    # stage 1 adds the hidden predicate columns the tracker reads
    tbl = compile_stateless(spec)(tbl)
    ts = np.array([r[2] for r in rows], dtype=np.int64)
    armed = NO_ARMED
    pairs, alerts = [], []
    prev = np.iinfo(np.int64).min
    for wm in [*cuts, I64_MAX]:
        released = tbl.filter(pa.array((ts > prev) & (ts <= wm)))
        prev = max(prev, wm)
        armed, p_tbl, a_tbl = track(armed, sort_and_dedup(released, {}), spec_patterns(spec), wm)
        assert armed.schema.equals(ARMED_SCHEMA)
        pairs += _rows(p_tbl, PAIR_SCHEMA)
        alerts += _rows(a_tbl, ALERT_SCHEMA)
    assert armed.num_rows == 0
    want_pairs, want_alerts = _bruteforce(rows, spec)
    assert sorted(pairs) == want_pairs
    assert sorted(alerts) == want_alerts
