"""Open-loop event generator for the ``stream_live`` workload.

:class:`ScheduledSource` is an ``InputStream`` that wraps ``KafkaStream``
over a ``MockBroker``. Event ``i`` of the arrival-ordered log is due at
``start + i / rate``. Before each ``poll_epoch`` the source appends every
event now due, in arrival order; when none is waiting it sleeps until the
next one is due. It runs in the driver's thread, so the schedule never
waits on the engine: if an epoch takes long, the events due meanwhile
queue in the broker and are appended late, which the schedule lag shows.
"""

from __future__ import annotations

import time
import zlib
from contextlib import nullcontext

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from osprey_ray.streaming import InputStream, KafkaStream, MockBroker


def encode_events(stream_files: list[str], num_partitions: int):
    """JSON-encode the arrival-ordered log once, outside any timed region.
    Returns ``(messages, partition_per_message, keys)`` where keys is a
    table of ``(conv_id, turn_idx, ts, idx)`` mapping each message to its
    position in the schedule."""
    msgs: list[bytes] = []
    parts: list[int] = []
    keys = []
    for path in stream_files:
        t = pq.read_table(path).drop_columns(["_arrival_us"])
        df = t.to_pandas()
        lines = df.to_json(
            orient="records", lines=True, date_format="iso", date_unit="us"
        ).splitlines()
        msgs.extend(line.encode() for line in lines)
        parts.extend(zlib.crc32(c.encode()) % num_partitions for c in df["conv_id"])
        keys.append(t.select(["conv_id", "turn_idx", "ts"]))
    keys = pa.concat_tables(keys)
    keys = keys.append_column("idx", pa.array(np.arange(keys.num_rows, dtype=np.int64)))
    return msgs, np.array(parts, dtype=np.int64), keys


def release_index(ts: np.ndarray, parts: np.ndarray, num_partitions: int,
                  lateness_us: int) -> np.ndarray:
    """For each message, the index of the first message whose poll moves
    the job's watermark past its event time (``len(ts)`` if only the final
    flush does). Mirrors ``KafkaStream``: the watermark basis is the minimum
    over the partitions seen so far of each one's largest ts, less the
    allowed lateness, and the job never lets it go back."""
    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    basis = np.full(len(ts), hi)
    for p in range(num_partitions):
        mine = parts == p
        run = np.maximum.accumulate(np.where(mine, ts, lo))
        seen = np.logical_or.accumulate(mine)
        basis = np.minimum(basis, np.where(seen, run, hi))
    wm = np.maximum.accumulate(basis - lateness_us)
    return np.searchsorted(wm, ts, side="left")


class ScheduledSource(InputStream):
    def __init__(self, msgs, parts, rate: float, num_partitions: int,
                 rows_per_epoch: int, tracer=None):
        self.broker = MockBroker(num_partitions)
        self.inner = KafkaStream(self.broker.consumer(), rows_per_epoch=rows_per_epoch)
        self.msgs = msgs
        self.parts = parts
        self.rate = rate
        self.tracer = tracer
        n = len(msgs)
        self.appended_at = np.zeros(n)
        self.polled_at = np.zeros(n)
        self._part_idx: list[list[int]] = [[] for _ in range(num_partitions)]
        self._next = 0       # first event not yet appended
        self._consumed = 0   # events returned by poll_epoch so far
        self.poll_s = 0.0    # time inside KafkaStream.poll_epoch
        self.start = None

    def begin(self) -> None:
        self.start = time.time()

    def due(self, i):
        return self.start + np.asarray(i) / self.rate

    def _offer(self) -> None:
        now = time.time()
        n = len(self.msgs)
        k = n if self.rate == float("inf") else min(n, int((now - self.start) * self.rate) + 1)
        for i in range(self._next, k):
            p = int(self.parts[i])
            self.broker.produce(p, self.msgs[i])
            self._part_idx[p].append(i)
        if k > self._next:
            self.appended_at[self._next : k] = now
            self._next = k

    def poll_epoch(self):
        n = len(self.msgs)
        if self._consumed == n:
            return None
        self._offer()
        if self._consumed == self._next:
            time.sleep(max(0.0, float(self.due(self._next)) - time.time()))
            self._offer()
        t0 = time.perf_counter()
        with self.tracer.span("source.poll_epoch") if self.tracer else nullcontext():
            eb = self.inner.poll_epoch()
        self.poll_s += time.perf_counter() - t0
        now = time.time()
        got = 0
        for p, end in eb.end.items():
            idx = self._part_idx[int(p)][eb.start.get(p, 0) : end]
            self.polled_at[idx] = now
            got += len(idx)
        self._consumed += got
        return eb

    def schedule_lag_s(self) -> np.ndarray:
        """Per-event delay between due time and append."""
        return self.appended_at - self.due(np.arange(len(self.msgs)))

    def poll_lag_s(self) -> np.ndarray:
        """Per-event delay between due time and the poll that returned it."""
        return self.polled_at - self.due(np.arange(len(self.msgs)))

    # the rest of the InputStream contract is the wrapped connector's
    def replay(self, start, end):
        return self.inner.replay(start, end)

    def seek(self, offsets) -> None:
        self.inner.seek(offsets)

    def commit(self, offsets) -> None:
        self.inner.commit(offsets)

    def state(self):
        return self.inner.state()

    def restore_state(self, state) -> None:
        self.inner.restore_state(state)
