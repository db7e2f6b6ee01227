"""Per-entity label state — the engine's cross-event persistent state.

Event-time re-expression of the reference's label semantics
(/root/reference/osprey_worker/src/osprey/worker/lib/osprey_shared/labels.py:41-186
and stdlib/udfs/labels.py:176-224 HasLabel expiry logic):

- statuses carry weights ``REMOVED(0) < ADDED(1) < MANUALLY_REMOVED(2) <
  MANUALLY_ADDED(3)``; when one turn produces conflicting mutations for the
  same (entity, label), the highest weight wins;
- a *manual* status can only be overridden by another manual mutation — an
  automatic add/remove arriving while a non-expired manual status holds is
  dropped (labels.py:41-56);
- reasons carry ``(created_at, expires_at)``; a label whose reasons have all
  expired (every ``expires_at <= now``) counts as absent (udfs/labels.py:176-189);
- ``HasLabel(label, status='removed')`` is true for absent/expired labels
  (udfs/labels.py:190-192) unless ``manual='yes'``;
- everything is event-time: ``now`` is the current turn's ``ts``, never wall
  clock, so replays are bit-stable.

State is keyed ``entity_key -> {label -> _LabelState}``, next to the
label walk's per-conversation position: consumed label events (``lev``),
queued delayed self-mutations (``delayed``, a heap) and their counter
(``dseq``).  Snapshots (streaming checkpoints) are plain lists and dicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

STATUS_WEIGHT = {"removed": 0, "added": 1, "manually_removed": 2, "manually_added": 3}
_MANUAL = {"manually_added", "manually_removed"}
_EFFECTIVE_ADDED = {"added", "manually_added"}


@dataclass
class _LabelState:
    status: str
    reasons: list[tuple[int, int | None]] = field(default_factory=list)  # (created_us, expires_us)

    def all_expired(self, now_us: int) -> bool:
        return bool(self.reasons) and all(
            e is not None and e <= now_us for _, e in self.reasons
        )


class LabelStore:
    """Keyed label state for one shard (one hash partition of entities)."""

    def __init__(self) -> None:
        self.data: dict[str, dict[str, _LabelState]] = {}
        self.lev: dict[str, int] = {}
        self.delayed: dict[str, list[tuple]] = {}
        self.dseq: dict[str, int] = {}

    # -- mutation ----------------------------------------------------------

    def apply(self, entity: str, label: str, status: str, ts_us: int, expires_us: int | None) -> bool:
        """Apply one mutation; returns True if it took effect."""
        if status not in STATUS_WEIGHT:
            raise ValueError(f"bad label status {status}")
        labels = self.data.setdefault(entity, {})
        cur = labels.get(label)
        if cur is not None and cur.all_expired(ts_us):
            cur = None
        if cur is not None and cur.status in _MANUAL and status not in _MANUAL:
            return False  # automatic mutation cannot override a live manual status
        if cur is not None and cur.status == status:
            cur.reasons.append((ts_us, expires_us))
        else:
            labels[label] = _LabelState(status, [(ts_us, expires_us)])
        return True

    def apply_conflicting(
        self, entity: str, muts: list[tuple[str, str, int | None]], ts_us: int
    ) -> list[tuple[str, str]]:
        """Apply one turn's mutations; conflicting statuses for the same
        label resolved by weight (labels.py:49-56).  Returns the applied
        (label, status) pairs."""
        best: dict[str, tuple[str, int | None]] = {}
        for label, status, expires_us in muts:
            if label not in best or STATUS_WEIGHT[status] > STATUS_WEIGHT[best[label][0]]:
                best[label] = (status, expires_us)
        applied = []
        for label, (status, expires_us) in best.items():
            if self.apply(entity, label, status, ts_us, expires_us):
                applied.append((label, status))
        return applied

    # -- read (HasLabel) ---------------------------------------------------

    def has_label(
        self, entity: str, label: str, now_us: int, status: str = "added", manual: str = "either"
    ) -> bool:
        st = self.data.get(entity, {}).get(label)
        if st is not None and st.all_expired(now_us):
            st = None
        if st is None:
            return status == "removed" and manual != "yes"
        actual = "added" if st.status in _EFFECTIVE_ADDED else "removed"
        actual_manual = st.status in _MANUAL
        if status != actual:
            return False
        if manual == "either":
            return True
        return (manual == "yes") == actual_manual

    # -- snapshot (streaming checkpoints) ----------------------------------

    def snapshot(self) -> dict[str, Any]:
        return {
            "labels": [
                (e, lbl, st.status, st.reasons)
                for e, labels in self.data.items()
                for lbl, st in labels.items()
            ],
            "lev": dict(self.lev),
            "delayed": {c: list(q) for c, q in self.delayed.items()},
            "dseq": dict(self.dseq),
        }

    @classmethod
    def restore(cls, *snaps: dict, num_parts: int | None = None, part: int = 0) -> "LabelStore":
        """The store one snapshot describes — or, given ``num_parts``, the
        entities of every snapshot that route to ``part`` of ``num_parts``
        (``stages.stateful.route_keys``): a rescale's re-deal."""
        store = cls()
        for snap in snaps:
            keep = {e for e, *_ in snap["labels"]}.union(snap["lev"], snap["delayed"], snap["dseq"])
            if num_parts is not None:
                from osprey_ray.stages.stateful import route_keys

                ents = list(keep)
                keep = {e for e, p in zip(ents, route_keys(ents, num_parts)) if p == part}
            for e, lbl, status, reasons in snap["labels"]:
                if e in keep:
                    store.data.setdefault(e, {})[lbl] = _LabelState(status, list(map(tuple, reasons)))
            for name in ("lev", "delayed", "dseq"):
                getattr(store, name).update((e, v) for e, v in snap[name].items() if e in keep)
        return store
