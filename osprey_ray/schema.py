"""Arrow schemas for the engine's tables.

Input shape is the ``BASELINE.json`` input_hint ``(conv_id:string,
turn_idx:int32, role:string, text, tool:string, ts:timestamp[us])``, with
``text`` declared ``large_string``: what datagen writes and the engine
reads.  One row = one transcript turn = one osprey "Action"
(cf. /root/reference/osprey_worker/src/osprey/engine/executor/execution_context.py:296-332
where an Action is ``action_id, action_name, data, timestamp``; here
``role``/``tool`` play the role of ``action_name`` dispatch and the columns
replace the JSON payload).
"""

from __future__ import annotations

import pyarrow as pa

TRANSCRIPT_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("text", pa.large_string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
    ]
)

# Stream-stream join right side: label/verdict mutation events keyed by
# conv_id (stand-in for the reference's labels service write stream,
# /root/reference/osprey_worker/src/osprey/worker/lib/osprey_shared/labels.py:41-126).
LABEL_EVENT_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("ts", pa.timestamp("us")),
        ("label", pa.string()),
        ("status", pa.string()),  # added / removed / manually_added / manually_removed
        ("expires_at", pa.timestamp("us")),  # nullable
    ]
)

# Verdict sink contract (FIXTURES.md F4).  ``__error_count`` mirrors the
# reference's always-extracted custom feature
# (/root/reference/osprey_worker/src/osprey/engine/executor/executor.py:399-407).
VERDICT_BASE_FIELDS = [
    ("conv_id", pa.string()),
    ("turn_idx", pa.int32()),
    ("ts", pa.timestamp("us")),
    ("rule_name", pa.string()),
    ("verdicts", pa.list_(pa.string())),
    ("__error_count", pa.int32()),
]

VERDICT_SCHEMA = pa.schema(VERDICT_BASE_FIELDS)

ORDER_KEYS = ["conv_id", "turn_idx", "ts"]
