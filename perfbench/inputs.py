"""Benchmark inputs and the output check.

Inputs come from ``osprey_ray.datagen.ensure_dataset(turns, seed)``, cached
under the benchmark's work directory, so the same seed gives the same
inputs. The check compares, for the conversations with
``crc32(conv_id) % 64 == 0``, the engine's committed results with
``osprey_ray.oracle.oracle_results`` for the same spec: equal rows and
equal values in every oracle column.
"""

from __future__ import annotations

import glob
import os
import zlib

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

SAMPLE_MOD = 64
SORT_KEYS = [("conv_id", "ascending"), ("turn_idx", "ascending")]


class CheckFailed(RuntimeError):
    pass


class Dataset:
    """One generated dataset: both layouts plus the label-event side input."""

    def __init__(self, work: str, turns: int, seed: int):
        from osprey_ray.datagen import ensure_dataset
        from osprey_ray.pipelines.flagship import label_events_map

        self.turns = turns
        self.seed = seed
        self.dir = ensure_dataset(turns, seed, root=os.path.join(work, "data"))
        self.batch_files = sorted(glob.glob(os.path.join(self.dir, "batch", "*.parquet")))
        self.stream_files = sorted(glob.glob(os.path.join(self.dir, "stream", "*.parquet")))
        self.label_map = label_events_map(
            pq.read_table(os.path.join(self.dir, "label_events.parquet"))
        )
        self.rows = sum(pq.ParquetFile(f).metadata.num_rows for f in self.batch_files)
        for f in self.batch_files + self.stream_files:  # warm the page cache
            with open(f, "rb") as fh:
                while fh.read(1 << 22):
                    pass


def _as_string(arr) -> pa.ChunkedArray:
    if isinstance(arr, pa.Array):
        arr = pa.chunked_array([arr])
    return pc.cast(arr, pa.string()) if arr.type != pa.string() else arr


def _sample(tbl: pa.Table, ids: pa.Array) -> pa.Table:
    conv = _as_string(tbl["conv_id"])
    tbl = tbl.set_column(tbl.schema.get_field_index("conv_id"), "conv_id", conv)
    return tbl.filter(pc.is_in(conv, value_set=ids))


class OracleCheck:
    """The row-at-a-time oracle over the sampled conversations of one
    dataset and spec, computed once and compared against each run."""

    def __init__(self, ds: Dataset, spec, label_map: dict):
        from osprey_ray.oracle import oracle_results

        full = pa.concat_tables([pq.read_table(f) for f in ds.batch_files])
        uniq = pc.unique(full["conv_id"]).to_pylist()
        self.ids = pa.array(
            sorted(c for c in uniq if zlib.crc32(c.encode()) % SAMPLE_MOD == 0),
            pa.string(),
        )
        want = oracle_results(_sample(full, self.ids), spec, label_map)
        if not want:
            raise CheckFailed("the oracle sample is empty")
        self.columns = list(want[0])
        self.want = {k: [r[k] for r in want] for k in self.columns}
        self.rows = len(want)

    def check(self, files: list[str]) -> int:
        """Compare the sampled rows of ``files`` with the oracle; returns the
        number of rows checked, raises :class:`CheckFailed` otherwise."""
        if not files:
            raise CheckFailed("the run committed no result files")
        got = pa.concat_tables(
            [_sample(pq.read_table(f), self.ids) for f in files],
            promote_options="default",
        ).sort_by(SORT_KEYS)
        if got.num_rows != self.rows:
            raise CheckFailed(f"{got.num_rows} sampled result rows, oracle has {self.rows}")
        for k in self.columns:
            if k not in got.column_names:
                raise CheckFailed(f"result column {k!r} is missing")
            g = got[k].to_pylist()
            w = self.want[k]
            if g != w:
                i = next(i for i, (x, y) in enumerate(zip(g, w)) if x != y)
                raise CheckFailed(f"column {k!r} row {i}: {g[i]!r} != oracle {w[i]!r}")
        return got.num_rows
