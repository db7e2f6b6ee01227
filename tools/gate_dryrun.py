"""Driver-style correctness gate dry run: every ``queries()`` entry vs its
``oracle_sql()`` twin, timed, with the driver's compare semantics (sorted
columns, canonical dtypes).  Usage::

    PYTHONPATH=/root/repo python tools/gate_dryrun.py [sf_dir]

Defaults to /root/testdata/sf0.01 (the driver's gate scale); writes a
per-query JSON summary next to stdout at /tmp/gate_dryrun.json."""
import json
import math
import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd
import ray

# size the local cluster to the CPUs this process may run on, so Ray does
# not start a worker pool for cores the host does not give it
ray.init(address="local", num_cpus=len(os.sched_getaffinity(0)),
         include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext

DataContext.get_current().enable_progress_bars = False

sys.path.insert(0, "/root/repo")
import __ray_entry__ as entrymod

SF_DIR = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def _con():
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')"
        )
    return con


def _to_pdf(res):
    import pyarrow as pa

    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def _canon(df):
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif np.issubdtype(df[c].dtype, np.floating):
            df[c] = df[c].round(6)
        elif str(df[c].dtype).startswith("uint"):
            df[c] = df[c].astype("int64")
        else:
            try:
                df[c] = df[c].astype("int64")
            except (TypeError, ValueError):
                df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


QUERIES = entrymod.queries()
try:
    ORACLES = entrymod.oracle_sql(SF_DIR)
except TypeError:  # older signature without sf_dir
    ORACLES = entrymod.oracle_sql()

ONLY = [a for a in sys.argv[2:] if not a.startswith("-")]
if ONLY:
    QUERIES = {k: v for k, v in QUERIES.items() if k in ONLY}

results = {}
t_all = time.time()
for name in QUERIES:
    t0 = time.time()
    try:
        got = _to_pdf(QUERIES[name](SF_DIR))
        t_ray = time.time() - t0
        if name not in ORACLES:
            results[name] = {"ok": "rows_only", "rows": len(got), "t": round(t_ray, 2)}
            print(f"{name:28s} rows_only rows={len(got):>7} t={t_ray:6.2f}s", flush=True)
            continue
        want = _con().execute(ORACLES[name]).df()
        g, w = _canon(got), _canon(want)
        status = "PASS"
        detail = ""
        if list(g.columns) != list(w.columns):
            status, detail = "SCHEMA", f"{list(g.columns)} != {list(w.columns)}"
        elif len(g) != len(w):
            status, detail = "ROWS", f"{len(g)} != {len(w)}"
        else:
            for c in g.columns:
                gl, wl = g[c].tolist(), w[c].tolist()
                bad = [
                    i for i, (x, y) in enumerate(zip(gl, wl))
                    if x != y and not (
                        isinstance(x, float) and isinstance(y, float)
                        and math.isclose(x, y, rel_tol=1e-9)
                    )
                ]
                if bad:
                    status, detail = "HASH", f"{c}: {len(bad)} mismatches, first {gl[bad[0]]!r}!={wl[bad[0]]!r}"
                    break
        results[name] = {"ok": status, "rows": len(g), "t": round(t_ray, 2), "detail": detail}
        print(f"{name:28s} {status:9s} rows={len(g):>7} t={t_ray:6.2f}s {detail}", flush=True)
    except Exception as ex:
        results[name] = {"ok": "ERROR", "detail": repr(ex)[:200]}
        print(f"{name:28s} ERROR {repr(ex)[:200]}", flush=True)

n_pass = sum(1 for r in results.values() if r["ok"] == "PASS")
n_ro = sum(1 for r in results.values() if r["ok"] == "rows_only")
n_bad = len(results) - n_pass - n_ro
print(f"\nTOTAL {len(results)} queries: {n_pass} pass, {n_ro} rows-only, {n_bad} bad; wall {time.time()-t_all:.0f}s")
json.dump(results, open("/tmp/gate_dryrun.json", "w"), indent=1)
ray.shutdown()
