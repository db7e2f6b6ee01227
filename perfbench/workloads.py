"""The benchmark's workloads, set-up and metric computation.

Every workload drives the engine only through its public entry points:

- ``batch_backfill``: ``run_batch_exchange`` over the hash-partitioned
  ``batch/`` layout with ``flagship_spec()`` and the label-event join,
  writing partition files. Passes repeat until ``--seconds`` is used up.
- ``stream_catchup``: ``StreamingJob(segment_files=…)`` drains the
  arrival-ordered ``stream/`` log as a backlog, with ``rows_per_epoch``
  epochs, a snapshot every epoch and the label-free ``flagship_sql_spec()``.
  Each pass starts a fresh shard pool; passes repeat until ``--seconds``
  is used up.
- ``stream_live``: ``StreamingJob(source=…)`` over the open-loop
  :class:`perfbench.live.ScheduledSource` at a fixed rate for ``--seconds``
  seconds, with ``flagship_spec()`` and labels.

End-to-end metrics are the same for every workload:

- ``setup_s``: median ``ray.init`` time + the untimed warm-up pass +
  (stream workloads) median shard-pool spin-up.
- ``turns_per_s``: input turns per second of the timed region (median
  over passes). On ``stream_live`` it is the rate results were published.
- ``latency_p50_ms`` / ``latency_p99_ms``: per result row, the wall time
  of the commit that published it minus the time the row was due. Backlog
  workloads have every row due when the pass starts; the commit is the
  partition file's rename (batch) or the epoch manifest (streams).
- ``peak_rss_mb``: summed VmHWM of the driver and every Ray process.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import time
from contextlib import nullcontext

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from perfbench import host
from perfbench.inputs import Dataset, OracleCheck
from perfbench.live import ScheduledSource, encode_events, release_index

WORKLOADS = ("batch_backfill", "stream_catchup", "stream_live")

SCALES = {
    # turns: batch/catch-up dataset size; live_rate: offered turns/s
    "full": dict(turns=300_000, live_rate=3_000.0, setup_cycles=3, min_passes=3),
    "tiny": dict(turns=20_000, live_rate=2_000.0, setup_cycles=2, min_passes=1),
}
CATCHUP_ROWS_PER_EPOCH = 25_000
LIVE_ROWS_PER_EPOCH = 10_000
LIVE_PARTITIONS = 2
LIVE_LATENESS_S = 1000.0
LIVE_WINDOWS = 10
KEEP_DATASETS = 6
KEEP_RAY_SESSIONS = 12
WORKER_IMPORT_TIMEOUT_S = 60
ACTOR_EXIT_TIMEOUT_S = 10
RAY_EXIT_TIMEOUT_S = 10


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def _prune(pattern: str, keep: int) -> None:
    """Delete all but the ``keep`` most recent directories matching."""
    dirs = sorted(glob.glob(pattern), key=os.path.getmtime)
    for d in dirs[:-keep]:
        shutil.rmtree(d, ignore_errors=True)


def _manifests(job) -> list[tuple[float, list[str]]]:
    """(commit wall time, result files) per committed epoch manifest."""
    out = []
    for path in sorted(glob.glob(os.path.join(job.manifest_dir, "epoch-*.json"))):
        with open(path) as f:
            m = json.load(f)
        files = [os.path.join(job.data_dir, x) for x in m.get("outputs") or [] if x]
        out.append((os.stat(path).st_mtime_ns / 1e9, files))
    return out


def _schedule_lag_ms(src: ScheduledSource) -> float:
    """Median schedule lag of the last quarter of the events: how far the
    generator ran behind its schedule at the end of the run."""
    lag = src.schedule_lag_s()
    return _median(lag[len(lag) * 3 // 4 :]) * 1e3


def _rows(path: str) -> int:
    return pq.ParquetFile(path).metadata.num_rows


class _Barrier:
    """Releases its callers once ``n`` of them wait at the same time."""

    def __init__(self, n: int):
        import asyncio

        self.n = n
        self.arrived = 0
        self.all_in = asyncio.Event()

    async def wait(self) -> None:
        self.arrived += 1
        if self.arrived >= self.n:
            self.all_in.set()
        await self.all_in.wait()


def _actor_pid(actor) -> int:
    return os.getpid()


def _arrive(barrier) -> int:
    import ray

    import osprey_ray  # noqa: F401  — the worker must import the engine

    ray.get(barrier.wait.remote())
    return os.getpid()


class Bench:
    def __init__(self, root: str, work: str, workload: str, seed: int,
                 seconds: int, scale: str, tracer=None):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.root = root
        self.work = work
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.cfg = SCALES[scale]
        self.tracer = tracer
        self.sizing = host.ray_sizing(host.nproc())
        self.P = self.sizing["num_partitions"]
        self.S = self.sizing["num_shards"]
        self.run_dir = os.path.join(work, "runs", str(os.getpid()))
        shutil.rmtree(self.run_dir, ignore_errors=True)
        os.makedirs(self.run_dir)
        self.init_s: list[float] = []
        self.spinup_s: list[float] = []
        self.rss_mb = 0.0
        self.attempted = 0
        self._out_seq = 0

    # -- helpers -----------------------------------------------------------

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def fresh_dir(self, tag: str) -> str:
        self._out_seq += 1
        return os.path.join(self.run_dir, f"{tag}-{self._out_seq}")

    def sample_rss(self) -> None:
        self.rss_mb = max(self.rss_mb, host.group_hwm_mb())

    # -- inputs ------------------------------------------------------------

    def main_dataset(self) -> Dataset:
        _prune(os.path.join(self.work, "data", "turns*"), KEEP_DATASETS)
        return Dataset(self.work, self.cfg["turns"], self.seed)

    def live_dataset(self) -> Dataset:
        return Dataset(self.work, int(self.cfg["live_rate"] * self.seconds), self.seed)

    @staticmethod
    def batch_spec():
        from osprey_ray.pipelines.flagship import flagship_spec

        return flagship_spec()

    @staticmethod
    def catchup_spec():
        from osprey_ray.pipelines.flagship import flagship_sql_spec

        return flagship_sql_spec()

    # -- Ray runtime ---------------------------------------------------------

    def _ray_temp_dir(self) -> str | None:
        # Ray puts unix sockets under its temp dir; their paths must stay
        # under the 107-byte limit, so a deep checkout keeps Ray's default
        d = os.path.join(self.work, "ray")
        if len(d) > 40:
            return None
        _prune(os.path.join(d, "session_2*"), KEEP_RAY_SESSIONS)
        return d

    def start_ray(self) -> None:
        import ray

        pythonpath = os.pathsep.join(
            p for p in (self.root, os.environ.get("PYTHONPATH")) if p
        )
        t0 = time.perf_counter()
        with self.span("ray.init"):
            ray.init(
                address="local",
                num_cpus=self.sizing["num_cpus"],
                object_store_memory=self.sizing["object_store_mb"] << 20,
                include_dashboard=False,
                logging_level="ERROR",
                log_to_driver=False,
                # workers import osprey_ray from the checkout whatever the
                # driver's working directory
                runtime_env={"env_vars": {"PYTHONPATH": pythonpath}},
                _temp_dir=self._ray_temp_dir(),
                # a steady worker pool (see prestart_workers): no workers
                # but the ones the benchmark starts, started at once
                # rather than after a growing backoff, and kept for the run
                _system_config={
                    "enable_worker_prestart": False,
                    "prestart_worker_first_driver": False,
                    "worker_cap_enabled": False,
                    "idle_worker_killing_time_threshold_ms": 3_600_000,
                },
            )
        self.init_s.append(time.perf_counter() - t0)

    def prestart_workers(self, n: int) -> None:
        """Start ``n`` task workers that have imported the engine, and keep
        them for the run.

        An engine task that blocks in ``ray.get`` gives its CPU back, so
        Ray starts another worker for the next task. Left to the first
        passes, or to Ray's own prestart racing the first task, that made
        each run's pool size, and so its pass times and memory, depend on
        scheduling order. Each call here blocks on a barrier until all
        ``n`` run at once, so each gets a worker of its own. A worker that
        cannot import osprey_ray fails the run here instead of hanging
        it."""
        import ray

        barrier = ray.remote(num_cpus=0)(_Barrier).remote(n)
        arrive = ray.remote(_arrive)
        try:
            pids = ray.get([arrive.remote(barrier) for _ in range(n)],
                           timeout=WORKER_IMPORT_TIMEOUT_S)
        finally:
            self._kill_actors([barrier])
        if len(set(pids)) != n:
            raise RuntimeError(f"{n} workers asked for, {len(set(pids))} started")

    @staticmethod
    def stop_ray() -> None:
        """Shut Ray down and wait until every process it started has ended."""
        import ray

        try:
            if ray.is_initialized():
                ray.shutdown()
        finally:
            host.reap_children(RAY_EXIT_TIMEOUT_S)

    def spin_up(self, job) -> None:
        t0 = time.perf_counter()
        with self.span("shards.spinup"):
            job.warm()
        self.spinup_s.append(time.perf_counter() - t0)

    @staticmethod
    def _kill_actors(actors) -> None:
        """Kill actors and wait for their processes to end, so they neither
        run into the next pass nor count in its memory."""
        import ray

        pids = set(ray.get([a.__ray_call__.remote(_actor_pid) for a in actors]))
        for a in actors:
            ray.kill(a)
        host.wait_exited(pids, ACTOR_EXIT_TIMEOUT_S)

    def stop_pool(self, job) -> None:
        self._kill_actors(job.shards or [])

    def setup_cycles(self) -> None:
        """Start Ray ``setup_cycles`` times; the last session stays up."""
        for i in range(self.cfg["setup_cycles"]):
            self.start_ray()
            if i < self.cfg["setup_cycles"] - 1:
                self.stop_ray()

    # -- one pass of each workload -----------------------------------------

    def batch_pass(self, ds: Dataset, check: OracleCheck) -> dict:
        from osprey_ray.pipelines.flagship import run_batch_exchange

        out = self.fresh_dir("batch")
        start = time.time()
        t0 = time.perf_counter()
        with self.span("batch.run_batch_exchange"):
            files = run_batch_exchange(ds.batch_files, self.batch_spec(), ds.label_map,
                                       num_partitions=self.P, write_dir=out)
        wall = time.perf_counter() - t0
        self.sample_rss()
        check.check(files)
        lat = np.repeat([os.stat(f).st_mtime_ns / 1e9 - start for f in files],
                        [_rows(f) for f in files])
        self.attempted += 1
        shutil.rmtree(out, ignore_errors=True)
        return {"turns_per_s": ds.rows / wall, "lat_s": lat}

    def catchup_pass(self, ds: Dataset, check: OracleCheck, keep: bool = False) -> dict:
        from osprey_ray.streaming import StreamingJob

        out = self.fresh_dir("catchup")
        job = StreamingJob(self.catchup_spec(), ds.stream_files, out, {},
                           num_shards=self.S, rows_per_epoch=CATCHUP_ROWS_PER_EPOCH,
                           checkpoint_interval=1)
        self.spin_up(job)
        start = time.time()
        t0 = time.perf_counter()
        with self.span("job.run"):
            job.run()
        with self.span("job.finalize"):
            job.finalize()
        wall = time.perf_counter() - t0
        self.sample_rss()
        check.check(job.committed_files("results"))
        lat = []
        for commit, files in _manifests(job):
            lat.extend([commit - start] * sum(_rows(f) for f in files))
        self.attempted += 1 + len(job.metrics)
        res = {"turns_per_s": ds.rows / wall, "lat_s": np.array(lat), "job": job}
        if not keep:
            self.stop_pool(job)
            shutil.rmtree(out, ignore_errors=True)
        return res

    def live_pass(self, ds: Dataset, events, check: OracleCheck, rate: float,
                  keep: bool = False) -> dict:
        from osprey_ray.streaming import StreamingJob

        msgs, parts, keys = events
        src = ScheduledSource(msgs, parts, rate, LIVE_PARTITIONS, LIVE_ROWS_PER_EPOCH,
                              tracer=self.tracer)
        out = self.fresh_dir("live")
        job = StreamingJob(self.batch_spec(), None, out, ds.label_map,
                           num_shards=self.S, allowed_lateness_s=LIVE_LATENESS_S,
                           source=src)
        self.spin_up(job)
        src.begin()
        with self.span("job.run"):
            job.run()
        with self.span("job.finalize"):
            job.finalize()
        self.sample_rss()
        check.check(job.committed_files("results"))
        # a result row is due when the last message it waits for is due:
        # the later of its turn's first message and the message whose poll
        # moved the watermark past it (the allowed lateness is a setting,
        # like a window length, so its event-time wait is not latency)
        ts = keys["ts"].cast(pa.int64()).to_numpy()
        rel = release_index(ts, parts, LIVE_PARTITIONS, int(LIVE_LATENESS_S * 1e6))
        keys = keys.append_column("rel", pa.array(np.maximum(rel, np.arange(len(ts)))))
        first = keys.group_by(["conv_id", "turn_idx"]).aggregate(
            [("idx", "min"), ("rel", "min")])
        published = []
        last_commit = 0.0
        for commit, files in _manifests(job):
            for f in files:
                t = pq.read_table(f, columns=["conv_id", "turn_idx"])
                t = t.set_column(0, "conv_id", pc.cast(t["conv_id"], pa.string()))
                published.append(t.append_column(
                    "commit", pa.array(np.full(t.num_rows, commit))))
            last_commit = max(last_commit, commit)
        pub = pa.concat_tables(published).join(first, ["conv_id", "turn_idx"])
        if pub["idx_min"].null_count:
            raise RuntimeError("a published turn was never offered")
        due = src.due(np.minimum(pub["rel_min"].to_numpy(), len(ts) - 1))
        lat = pub["commit"].to_numpy() - due
        # consecutive schedule windows stand in for passes: the median of
        # their percentiles is not moved by one slow epoch
        window = np.minimum(((due - src.start) * LIVE_WINDOWS / self.seconds).astype(int),
                            LIVE_WINDOWS - 1)
        self.attempted += 1 + len(job.metrics)
        rate_out = pub.num_rows / (last_commit - src.start)
        res = {
            "windows": [{"turns_per_s": rate_out, "lat_s": lat[window == k]}
                        for k in range(LIVE_WINDOWS) if (window == k).any()],
            "source": src,
            "job": job,
        }
        if not keep:
            self.stop_pool(job)
            shutil.rmtree(out, ignore_errors=True)
        return res

    # -- end-to-end run ------------------------------------------------------

    def run_e2e(self) -> dict:
        w = self.workload
        if w == "stream_live":
            ds = self.live_dataset()
            spec, label_map = self.batch_spec(), ds.label_map
        else:
            ds = self.main_dataset()
            if w == "batch_backfill":
                spec, label_map = self.batch_spec(), ds.label_map
            else:
                spec, label_map = self.catchup_spec(), {}
        check = OracleCheck(ds, spec, label_map)
        events = encode_events(ds.stream_files, LIVE_PARTITIONS) if w == "stream_live" else None

        self.setup_cycles()
        # untimed warm-up pass (reported inside setup_s): the first pass in
        # a process pays worker start-up and imports
        t0 = time.perf_counter()
        self.prestart_workers(self.P + 1 if w == "batch_backfill" else 1)
        if w == "batch_backfill":
            self.batch_pass(ds, check)
            warm = time.perf_counter() - t0
        elif w == "stream_catchup":
            n = len(self.spinup_s)
            self.catchup_pass(ds, check)
            warm = time.perf_counter() - t0 - self.spinup_s[n]
        else:
            # the warm-up drains the same events as a backlog (every event
            # due at once) instead of replaying the schedule
            n = len(self.spinup_s)
            self.live_pass(ds, events, check, rate=float("inf"))
            warm = time.perf_counter() - t0 - self.spinup_s[n]
        self.attempted = 0

        passes = []
        t_end = time.perf_counter() + self.seconds
        if w == "stream_live":
            passes = self.live_pass(ds, events, check, rate=self.cfg["live_rate"])["windows"]
        else:
            one = self.batch_pass if w == "batch_backfill" else self.catchup_pass
            while time.perf_counter() < t_end or len(passes) < self.cfg["min_passes"]:
                passes.append(one(ds, check))

        setup = _median(self.init_s) + warm
        if w != "batch_backfill":
            setup += _median(self.spinup_s)
        rates = [p["turns_per_s"] for p in passes]
        p50s = [_pct(p["lat_s"], 50) * 1e3 for p in passes]
        p99s = [_pct(p["lat_s"], 99) * 1e3 for p in passes]
        metrics = {
            "setup_s": (setup, "s"),
            "turns_per_s": (_median(rates), "1/s"),
            "latency_p50_ms": (_median(p50s), "ms"),
            "latency_p99_ms": (_median(p99s), "ms"),
            "peak_rss_mb": (self.rss_mb, "MB"),
        }
        detail = {
            "passes": len(passes),
            "pass_turns_per_s": rates,
            "pass_latency_p50_ms": p50s,
            "pass_latency_p99_ms": p99s,
            "ray_init_s": self.init_s,
            "spinup_s": self.spinup_s,
            "warmup_s": warm,
            "rows_checked": check.rows,
            "turns": ds.rows,
        }
        return {"metrics": metrics, "detail": detail}

    # -- traced run ----------------------------------------------------------

    def run_trace(self) -> dict:
        """Serial pass over this workload's input, then traced Ray runs. The
        Ray part runs every workload once, so each layer is measured on the
        workload that exercises it: the exchange on the batch input, epochs,
        state and commits on the catch-up, the source on the live stream."""
        from perfbench.serial import (
            UNATTRIBUTED_TOLERANCE, kernel_pass, route_skew, serial_pass)

        t = self.tracer
        w = self.workload
        main = self.main_dataset()
        live = self.live_dataset()
        checks = {
            "batch": OracleCheck(main, self.batch_spec(), main.label_map),
            "catchup": OracleCheck(main, self.catchup_spec(), {}),
            "live": OracleCheck(live, self.batch_spec(), live.label_map),
        }
        events = encode_events(live.stream_files, LIVE_PARTITIONS)
        if w == "batch_backfill":
            files, spec, lmap, chk = main.batch_files, self.batch_spec(), main.label_map, checks["batch"]
        elif w == "stream_catchup":
            files, spec, lmap, chk = main.stream_files, self.catchup_spec(), {}, checks["catchup"]
        else:
            files, spec, lmap, chk = live.stream_files, self.batch_spec(), live.label_map, checks["live"]

        root, c, tables, written = serial_pass(
            t, files, spec, lmap, self.P, self.fresh_dir("serial"))
        chk.check(written)
        kernel_pass(t, tables, self.batch_spec())
        del tables

        self.start_ray()
        self.prestart_workers(self.P + 1)
        import ray

        with self.span("exchange.put_get"):
            ray.get([ray.put(x) for x in c["routed"]])
        exchange_mb = sum(x.nbytes for x in c["routed"]) / 2**20
        exchange_objects = len(c["routed"])
        skew = route_skew(c.pop("routed"), self.P)
        if w == "batch_backfill":
            self.batch_pass(main, checks["batch"])
        cu = self.catchup_pass(main, checks["catchup"], keep=True)
        job = cu["job"]
        with self.span("shard.snapshot"):
            ray.get([s.snapshot.remote(self.fresh_dir("snap"), 0) for s in job.shards])
        with self.span("shard.state_size"):
            carried = sum(ray.get([s.state_size.remote() for s in job.shards]))
        mans = sorted(glob.glob(os.path.join(job.manifest_dir, "epoch-*.json")))
        snaps = glob.glob(os.path.join(job.ckpt_dir, "state-*.pkl"))
        snap_epochs = {os.path.basename(p).split("-")[1] for p in snaps}
        epoch_walls = [m["wall_s"] for m in job.metrics]
        self.stop_pool(job)
        lv = self.live_pass(live, events, checks["live"], rate=self.cfg["live_rate"], keep=True)
        live_walls = [m["wall_s"] for m in lv["job"].metrics]
        src = lv["source"]
        self.stop_pool(lv["job"])

        selfs = t.self_times(root)
        wall = t.duration(t.spans[root])
        unattributed = selfs.get("serial", 0.0) / wall
        if unattributed > UNATTRIBUTED_TOLERANCE:
            raise RuntimeError(
                f"serial layer self times leave {unattributed:.1%} of the pass "
                f"unattributed (tolerance {UNATTRIBUTED_TOLERANCE:.0%})")
        m = {
            "io.read_s": (selfs["io"], "s"),
            "io.read_mb": (c["read_bytes"] / 2**20, "MB"),
            "kernels.StringContains.s": (t.total("kernels.StringContains"), "s"),
            "kernels.CheckCensorized.s": (t.total("kernels.CheckCensorized"), "s"),
            "kernels.RegexMatch.s": (t.total("kernels.RegexMatch"), "s"),
            "kernels.StringLength.s": (t.total("kernels.StringLength"), "s"),
            "kernels.error_rows": (c["error_rows"], "count"),
            "stateless.s": (selfs["stateless"], "s"),
            "stateless.narrowing": (c["bytes_out"] / c["bytes_in"], "ratio"),
            "route.s": (selfs["route"], "s"),
            "route.skew": (skew, "ratio"),
            "exchange.mb": (exchange_mb, "MB"),
            "exchange.objects": (exchange_objects, "count"),
            "exchange.put_get_s": (t.total("exchange.put_get"), "s"),
            "stateful.dedup_s": (selfs["stateful.dedup"], "s"),
            "stateful.dup_rows": (c["dup_rows"], "count"),
            "stateful.eval_s": (selfs["stateful.eval"], "s"),
            "sink.write_s": (selfs["sink"], "s"),
            "sink.mb": (c["sink_bytes"] / 2**20, "MB"),
            "epoch.count": (len(epoch_walls), "count"),
            "epoch.wall_p50_ms": (_pct(epoch_walls, 50) * 1e3, "ms"),
            "epoch.wall_p90_ms": (_pct(epoch_walls, 90) * 1e3, "ms"),
            "epoch.rows_mean": (float(np.mean([x["released_rows"] for x in job.metrics])), "rows"),
            "epoch.live_wall_p50_ms": (_pct(live_walls, 50) * 1e3, "ms"),
            "state.pending_rows_max": (max(x["pending_rows"] for x in job.metrics), "rows"),
            "state.late_dropped": (sum(x["late_dropped"] for x in job.metrics)
                                   + sum(x["late_dropped"] for x in lv["job"].metrics), "count"),
            "state.carried_convs": (carried, "count"),
            "state.snapshot_mb_per_epoch": (
                sum(os.path.getsize(p) for p in snaps) / 2**20 / max(1, len(snap_epochs)), "MB"),
            "state.snapshot_s": (t.total("shard.snapshot"), "s"),
            "commit.manifest_kb_per_epoch": (
                sum(os.path.getsize(p) for p in mans) / 1024 / len(mans), "KB"),
            "source.poll_s": (src.poll_s, "s"),
            "source.poll_lag_p99_ms": (_pct(src.poll_lag_s(), 99) * 1e3, "ms"),
            "source.schedule_lag_ms": (_schedule_lag_ms(src), "ms"),
            "ray.init_s": (_median(self.init_s), "s"),
            "shards.spinup_s": (_median(self.spinup_s), "s"),
            "serial.turns_per_s": (c["rows_in"] / wall, "1/s"),
            "serial.unattributed_share": (unattributed, "ratio"),
        }
        return {"metrics": m, "detail": {"serial_wall_s": wall, "self_times": selfs,
                                         "sizing": self.sizing}}

    def close(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)
