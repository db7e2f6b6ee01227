"""Rule specification — the compiled "SML program" analogue.

A :class:`RuleSpec` is the declarative plan an osprey ruleset compiles to
(/root/reference/osprey_worker/src/osprey/engine/ast/sources.py +
ast_validator → execution graph): named features (expressions over columns),
stateful features (windows / labels / sequences — SURVEY §2.4), boolean
rules, and ``WhenRules`` triggers that fire effects.

Extraction semantics mirror the reference (grammar.py:339-394): every
feature whose name does not start with ``_`` is an extracted output column;
``_``-prefixed features are locals.

Rule semantics (stdlib/udfs/rules.py:84-110): ``value = all(when_all)`` with
failed conjuncts collapsing to falsey.  WhenRules (rules.py:120-166):
tolerates failed list items, fires every effect in ``then`` when any rule in
``rules_any`` is true.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from osprey_ray.expr import Expr, wrap


# -- effects (engine/language_types/verdicts.py:11-40, labels.py:17-66) -----


@dataclass(frozen=True)
class DeclareVerdict:
    verdict: str


@dataclass(frozen=True)
class LabelAdd:
    """Label-mutation effect (reference LabelEffect,
    engine/language_types/labels.py:17-66):

    - ``expires_after``: timed expiry of the reason, seconds of event time;
    - ``delay_action_by``: the mutation takes effect at ``turn ts + delay``
      (event-time offset, labels.py:35-36) — invisible to turns before
      that instant, applied like an external label event when the stream
      reaches it;
    - ``dependent_rule``: applied only if the named rule evaluated true on
      the firing turn (labels.py:38-39, output_sink.py:135-137); the rule
      name is recorded in the mutation-stream ``reason``;
    - ``suppressed``: computed but never applied — the rule author's
      dry-run escape hatch (labels.py:41-42, output_sink.py:129-131).
    """

    label: str
    entity: str = "conv_id"  # column holding the entity key
    expires_after: float | None = None  # seconds, event-time
    delay_action_by: float | None = None  # seconds, event-time offset
    dependent_rule: str | None = None
    suppressed: bool = False


@dataclass(frozen=True)
class LabelRemove:
    label: str
    entity: str = "conv_id"
    delay_action_by: float | None = None  # seconds, event-time offset
    dependent_rule: str | None = None
    suppressed: bool = False


Effect = DeclareVerdict | LabelAdd | LabelRemove


@dataclass
class Feature:
    name: str
    expr: Expr
    secret: bool = False
    # ``ExtractLiteral[T]`` / ``ExtractSecret[T]`` annotations
    # (grammar.py:355-394 should_extract / can_extract)
    extract_literal: bool = False
    extract_secret: bool = False

    def is_constant(self) -> bool:
        """Mirror the reference's IsConstant surface (grammar.py:120-133,
        292-297, 772-806): literals, lists of literals, and field-free
        format strings are constants; everything else is not."""
        from osprey_ray.expr import Fmt, Lit

        e = self.expr
        return isinstance(e, Lit) or (isinstance(e, Fmt) and not e.refs())

    @property
    def extracted(self) -> bool:
        """Taint-independent part of should_extract; callers that need the
        full semantics (incl. Secret-taint) use :func:`extracted_names`."""
        if self.extract_literal or self.extract_secret:
            return True
        return (
            not self.name.startswith("_")
            and not self.secret
            and not self.is_constant()
        )


def propagate_secret_taint(features: list[Feature]) -> set[str]:
    """Secret-taint propagation (grammar.py:339-394 ``can_extract``): a
    feature marked ``secret`` — or any feature whose expression references a
    tainted feature — is never extracted (it still evaluates and can gate
    rules).  ``ExtractSecret[...]`` launders the taint: the annotated
    feature extracts and its dependents are untainted (grammar.py:390-394
    returns can_extract=True before consulting the value).  Returns the
    tainted name set."""
    tainted: set[str] = set()
    for f in features:  # declaration order = dependency order
        if f.extract_secret:
            continue
        if f.secret or (f.expr.refs() & tainted):
            tainted.add(f.name)
    return tainted


def extracted_names(features: list[Feature]) -> set[str]:
    """The full should_extract decision (grammar.py:354-378) for every
    feature: ExtractLiteral/ExtractSecret force extraction; locals
    (``_``-prefixed — the reference's target.is_local), constants, Secret
    features and Secret-tainted dependents are filtered."""
    tainted = propagate_secret_taint(features)
    return {f.name for f in features if f.extracted and f.name not in tainted}


@dataclass
class Rule:
    name: str
    when_all: list[Expr]
    description: str = ""

    def __post_init__(self) -> None:
        self.when_all = [wrap(e) for e in self.when_all]


@dataclass
class WhenRules:
    rules_any: list[str]  # rule names
    then: list[Effect]


# -- stateful feature declarations (SURVEY §2.4) ----------------------------


@dataclass
class IncrementWindow:
    """Sliding-window velocity counter, event-time.

    Semantics of the reference's Redis-ZSET counter
    (example_plugins/src/udfs/cache.py:161-207): when ``when`` is true for a
    turn, the turn's ts is added to the per-``conv_id`` window and the
    feature value is the number of added events with
    ``ts in (turn_ts - window_seconds, turn_ts]`` (including this one),
    capped at ``max_events_cap``.  When ``when`` is false the feature is the
    current count without incrementing (GetWindowCount, cache.py:210-227).
    """

    name: str
    when: Expr
    window_seconds: float
    max_events_cap: int = 10_000


@dataclass
class TumblingCount:
    """Running count of ``when`` turns within the turn's tumbling bucket
    (bucket assignment = GetTimestampBucket, stdlib/udfs/time_bucket.py)."""

    name: str
    when: Expr
    bucket_seconds: float


@dataclass
class TumblingSum:
    """Running per-bucket SUM of an integer ``value`` expression within the
    turn's tumbling bucket — the weighted generalization of
    :class:`TumblingCount` (count = sum of 1s).  Null / failed / negative
    values contribute 0, so the running sum is monotone within a window;
    that monotonicity is what lets the streaming shard's window-stream
    accumulator merge cross-epoch partials by ``max`` exactly like counts
    (shard.py ``_accumulate_windows``).  The reference expresses weighted
    velocity by incrementing a counter N times per event on its Redis-ZSET
    path (example_plugins/src/udfs/cache.py:161-207); here the weight is a
    first-class vectorized expression."""

    name: str
    value: Expr
    bucket_seconds: float


@dataclass
class TumblingMax:
    """Running per-bucket MAX of an integer ``value`` expression within the
    turn's tumbling bucket — e.g. "largest message this hour".  Null /
    failed values contribute 0 and negatives are clamped to 0 (stage 1),
    so the running max is a monotone non-negative series within a window;
    like :class:`TumblingCount`/:class:`TumblingSum` the window stream
    merges cross-epoch partials by ``max`` (shard.py
    ``_accumulate_windows``) and hot-conversation salting merges block
    partials by ``max`` (salted.py ``merge_state``).  The reference has no
    direct analogue — its Redis counter path (example_plugins/src/udfs/
    cache.py:161-207) only increments — so this is an engine extension in
    the same family."""

    name: str
    value: Expr
    bucket_seconds: float


@dataclass
class TumblingDistinct:
    """Running per-bucket DISTINCT CARDINALITY of a string ``value``
    expression within the turn's tumbling bucket — e.g. "distinct tools
    used this hour".  Null / failed values contribute nothing.  The count
    saturates at ``max_distinct_cap``: once a bucket has seen cap distinct
    values the running count is pinned to cap and the seen-set is dropped
    (state per open bucket is bounded by cap strings, so a whale
    conversation cannot grow unbounded state — the same bound philosophy
    as IncrementWindow.max_events_cap).  Saturation is split-invariant:
    below cap the carried set is exact, at cap the count can never move
    again, so block/epoch splits commute with the merge.  Like the rest of
    the tumbling family the running value is monotone within a bucket, so
    cross-epoch window partials merge by max.  The reference's per-event
    Redis counters (example_plugins/src/udfs/cache.py:161-207) have no
    distinct variant — engine extension in the same family."""

    name: str
    value: Expr
    bucket_seconds: float
    max_distinct_cap: int = 1024


@dataclass
class SessionWindow:
    """Session id (0-based per conversation, new session when the gap from
    the previous turn exceeds ``gap_seconds``) and running count in session.

    Declaring ``SessionWindow('s', gap_seconds=1800)`` yields features
    ``s__id`` and ``s__count``.
    """

    name: str
    gap_seconds: float


@dataclass
class SequenceMatch:
    """CEP escalation: true on a turn matching ``second`` when some earlier
    turn of the same conversation matched ``first`` within ``within_turns``
    turns (turn_idx distance ≤ within_turns)."""

    name: str
    first: Expr
    second: Expr
    within_turns: int


@dataclass
class WindowCount:
    """Read-only view of another :class:`IncrementWindow`'s event buffer
    (GetWindowCount, example_plugins/src/udfs/cache.py:210-227): the number
    of source-window events in ``(turn_ts - window_seconds, turn_ts]``
    counting only events from *prior* turns.  Must be declared BEFORE its
    source window (validated) so batch and oracle agree on exclusivity."""

    name: str
    source: str
    window_seconds: float


@dataclass
class KvCache:
    """Per-conversation K/V cache with event-time TTL (CacheSet/CacheGet,
    example_plugins/src/udfs/cache.py:279-330).  The feature value is the
    cached value as of the turn start (a turn's own set is visible to later
    turns only — same write-after-classify ordering as labels); when
    ``set_when`` is true the turn stores ``value`` with ``ttl_seconds``."""

    name: str
    set_when: Expr
    value: Expr
    ttl_seconds: float | None = None


@dataclass
class HasLabel:
    """Stream-state join against per-entity label state
    (stdlib/udfs/labels.py:133-293 incl. expiry :176-224).  Reads the state
    as of the *start* of the turn — a turn's own LabelAdd is visible only to
    later turns (write-after-classify ordering, output_sink.py:156-350)."""

    name: str
    label: str
    status: str = "added"  # 'added' | 'removed'
    manual: str = "either"  # 'yes' | 'no' | 'either'


@dataclass
class AbsenceAlert:
    """CEP absence / negation timer: a turn matching ``first`` arms an
    event-time timer at ``ts + window_seconds``; a later turn of the SAME
    conversation matching ``second`` with ``ts in (first_ts, deadline]``
    disarms it; timers still armed when the watermark passes their
    deadline fire an ALERT on the absence stream.

    The reference expresses "A not followed by B" with a timed label that
    B's rule removes before expiry (labels.py:17-66 ``expires_after`` +
    remove effects); here it is a first-class watermark-driven emission —
    like window aggregates, an alert is a STREAM row, never a per-turn
    column, because the answer does not exist at the turn that armed it.

    ``first`` / ``second`` are stateless Exprs over the turn's columns and
    stage-1 features (state-dependent predicates would make the armed set
    depend on evaluation order across shards)."""

    name: str
    first: Expr
    second: Expr
    window_seconds: float


@dataclass
class FollowedBy:
    """CEP stream-stream interval join emitting PAIR rows: every turn
    matching ``second`` joins with every EARLIER turn of the SAME
    conversation matching ``first`` with ``second_ts in (first_ts,
    first_ts + window_seconds]`` — one row per (A, B) pair on the pairs
    stream.  The positive complement of :class:`AbsenceAlert` ("A then
    B" pairs vs "A with no B"), and the windowed stream-stream join
    emission the north-star names: like window aggregates and absence
    alerts, a pair is a STREAM row, never a per-turn column.

    Pairs are emitted at the B turn's release (deterministic: released
    slices are (conv, turn, ts)-sorted and any pairable A has
    ``a_ts < b_ts <= watermark``, so the A is in this slice or the
    carried arm state).  Carried state per (pattern, conv) is the armed
    A timestamps, evicted once ``a_ts + W <= watermark`` (no future
    released row can pair) — bounded by window × arrival rate.

    ``first`` / ``second`` are stateless Exprs over the turn's columns
    and stage-1 features (same restriction and reason as AbsenceAlert)."""

    name: str
    first: Expr
    second: Expr
    window_seconds: float


StatefulFeature = (
    IncrementWindow | TumblingCount | TumblingSum | TumblingMax
    | TumblingDistinct | SessionWindow | SequenceMatch | HasLabel
    | WindowCount | KvCache
)


@dataclass
class RuleSpec:
    """A full compiled ruleset.

    Evaluation order per turn (matching the reference executor's
    action lifecycle, worker/sinks/sink/rules_sink.py:121-177):
    stateless features → stateful features (state as of turn start) →
    rules → triggers → effects (label mutations applied after the turn).
    """

    features: list[Feature] = field(default_factory=list)
    stateful: list[StatefulFeature] = field(default_factory=list)
    rules: list[Rule] = field(default_factory=list)
    triggers: list[WhenRules] = field(default_factory=list)
    absences: list[AbsenceAlert] = field(default_factory=list)
    follows: list[FollowedBy] = field(default_factory=list)

    def stateful_names(self) -> list[str]:
        out: list[str] = []
        for s in self.stateful:
            if isinstance(s, SessionWindow):
                out += [f"{s.name}__id", f"{s.name}__count"]
            else:
                out.append(s.name)
        return out

    def label_feature_names(self) -> set[str]:
        return {s.name for s in self.stateful if isinstance(s, HasLabel)}

    def rule_by_name(self) -> dict[str, Rule]:
        return {r.name: r for r in self.rules}

    def validate(self) -> None:
        names: set[str] = set()
        for f in self.features:
            if f.name in names:
                raise ValueError(f"duplicate feature {f.name}")
            names.add(f.name)
        for n in self.stateful_names():
            if n in names:
                raise ValueError(f"duplicate stateful feature {n}")
            names.add(n)
        windows = set()
        for s in self.stateful:
            if isinstance(s, WindowCount):
                if s.source in windows:
                    raise ValueError(
                        f"WindowCount {s.name} must be declared before its "
                        f"source window {s.source}"
                    )
            if isinstance(s, IncrementWindow):
                windows.add(s.name)
        for s in self.stateful:
            if isinstance(s, WindowCount) and s.source not in windows:
                raise ValueError(f"WindowCount {s.name}: unknown source {s.source}")
        rules = set()
        for r in self.rules:
            if r.name in rules:
                raise ValueError(f"duplicate rule {r.name}")
            rules.add(r.name)
        ab_names = set()
        for a in self.absences:
            if a.name in ab_names:
                raise ValueError(f"duplicate absence alert {a.name}")
            ab_names.add(a.name)
            if a.window_seconds <= 0:
                raise ValueError(
                    f"absence alert {a.name}: window_seconds must be > 0"
                )
        fb_names = set()
        for fb in self.follows:
            if fb.name in fb_names:
                raise ValueError(f"duplicate followed-by pattern {fb.name}")
            fb_names.add(fb.name)
            if fb.window_seconds <= 0:
                raise ValueError(
                    f"followed-by {fb.name}: window_seconds must be > 0"
                )
        for t in self.triggers:
            for rn in t.rules_any:
                if rn not in rules:
                    raise ValueError(f"trigger references unknown rule {rn}")
            for e in t.then:
                dep = getattr(e, "dependent_rule", None)
                if dep is not None and dep not in rules:
                    raise ValueError(
                        f"label effect on {t.rules_any} references unknown "
                        f"dependent_rule {dep}"
                    )

    def merge(self, *others: "RuleSpec") -> "RuleSpec":
        """Compile-time plan merge — the ``Import`` analogue
        (stdlib/udfs/import_.py:17-82: static include, duplicate-checked).
        Feature/rule names must be globally unique across merged specs."""
        out = RuleSpec(
            features=list(self.features),
            stateful=list(self.stateful),
            rules=list(self.rules),
            triggers=list(self.triggers),
            absences=list(self.absences),
            follows=list(self.follows),
        )
        for o in others:
            out.features += o.features
            out.stateful += o.stateful
            out.rules += o.rules
            out.triggers += o.triggers
            out.absences += o.absences
            out.follows += o.follows
        out.validate()
        return out

    def gated(self, gate: Expr) -> "RuleSpec":
        """Runtime gating of a whole sub-spec — the ``Require``
        (require_if / per-action-name dispatch) analogue
        (stdlib/udfs/require.py:14-58 + the reference's
        ``Require(rule=f'actions/{ActionName}.sml')`` pattern,
        osprey_engine.py:182-196): every rule in this spec additionally
        requires ``gate`` (e.g. ``col('role') == 'tool'``), so the whole
        file's rules only fire for matching rows — dispatch becomes a
        vectorized mask, not control flow."""
        from osprey_ray.expr import and_

        return RuleSpec(
            features=self.features,
            stateful=self.stateful,
            rules=[
                Rule(r.name, [gate] + list(r.when_all), r.description) for r in self.rules
            ],
            triggers=self.triggers,
            # gate both absence predicates: a gated file's timers only arm
            # and disarm on its own rows
            absences=[
                AbsenceAlert(a.name, and_(gate, a.first), and_(gate, a.second),
                             a.window_seconds)
                for a in self.absences
            ],
            # same gating rule: a gated file's pairs only form on its rows
            follows=[
                FollowedBy(fb.name, and_(gate, fb.first), and_(gate, fb.second),
                           fb.window_seconds)
                for fb in self.follows
            ],
        )

    def uses_labels(self) -> bool:
        if any(isinstance(s, HasLabel) for s in self.stateful):
            return True
        return any(
            isinstance(e, (LabelAdd, LabelRemove)) for t in self.triggers for e in t.then
        )

    def content_hash(self) -> str:
        """Deterministic identity of the compiled ruleset — the analogue of
        the reference's content-hashed Sources (engine/ast/sources.py:99-118,
        used by the hot-reload watch in worker/lib/osprey_engine.py:127-149).
        Streaming manifests record it per epoch so resume can validate that
        the restored run is continuing under the ruleset that produced the
        committed lineage.  Pickle of the dataclass/Expr tree is stable for
        a given library version, which is exactly the identity wanted here
        (a code upgrade that changes compilation SHOULD change the hash)."""
        import hashlib

        from ray import cloudpickle

        # cloudpickle, not pickle: Expr trees may close over locally-defined
        # kernel classes (exactly what ships them to Ray actors today)
        parts = [self.features, self.stateful, self.rules, self.triggers]
        # absences/follows extend the tuple only when present so manifests
        # recorded before each feature existed keep their hashes valid
        if self.absences or self.follows:
            parts.append(self.absences)
        if self.follows:
            parts.append(self.follows)
        payload = cloudpickle.dumps(tuple(parts))
        return hashlib.blake2b(payload, digest_size=16).hexdigest()
