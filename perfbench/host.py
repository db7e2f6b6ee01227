"""Host fingerprint, Ray sizing, process-group memory and child reaping."""

from __future__ import annotations

import ctypes
import errno
import hashlib
import os
import signal
import subprocess
import sys
import time


def _meminfo_kb(key: str) -> int:
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(key)


def loadavg() -> list[float]:
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def nproc() -> int:
    """What ``nproc`` reports: the usable CPUs, capped by OMP_NUM_THREADS
    when it is set (coreutils honours it, and so does this sizing)."""
    cpus = len(os.sched_getaffinity(0))
    try:
        omp = int(os.environ.get("OMP_NUM_THREADS", ""))
    except ValueError:
        return cpus
    return max(1, min(cpus, omp))


def _git_sha(root: str) -> str | None:
    # the ceiling stops git from reporting an enclosing repository when the
    # checkout itself is not one
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(root: str) -> str:
    """sha256 over the engine's Python sources, for checkouts without git."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "osprey_ray")
    for d, dirs, files in sorted(os.walk(pkg)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint(root: str) -> dict:
    import pyarrow
    import ray

    return {
        "nproc": nproc(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "mem_total_mb": _meminfo_kb("MemTotal") // 1024,
        "loadavg_before": loadavg(),
        "python": sys.version.split()[0],
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "git_sha": _git_sha(root),
        "source_digest": source_digest(root),
    }


def ray_sizing(cpus: int) -> dict:
    """Ray resources and parallelism derived from the host, not fixed."""
    mem_mb = _meminfo_kb("MemTotal") // 1024
    return {
        "num_cpus": cpus,
        "object_store_mb": min(512 * cpus, mem_mb // 4),
        "num_partitions": 4 * cpus,
        "num_shards": 2 * cpus,
    }


def group_pids() -> set[int]:
    """This process group: the driver plus the Ray processes it started
    (``ray.init`` makes the driver a group leader)."""
    pgid = os.getpgrp()
    out = set()
    for pid in os.listdir("/proc"):
        if pid.isdigit():
            try:
                if os.getpgid(int(pid)) == pgid:
                    out.add(int(pid))
            except OSError:
                continue  # the process exited while we looked
    return out


def group_hwm_mb() -> float:
    """Sum of VmHWM over :func:`group_pids`."""
    total_kb = 0
    for pid in group_pids():
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except (OSError, ValueError):
            continue
    return total_kb / 1024


def wait_exited(pids: set[int], timeout_s: float) -> None:
    """Wait until none of ``pids`` is alive, or the timeout passes."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if not any(os.path.exists(f"/proc/{p}") for p in pids):
            return
        time.sleep(0.02)


PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Make every orphaned descendant a child of this process.

    Ray's task workers are children of the raylet; when ``ray.shutdown``
    stops the raylet they would pass to init and could outlive the run.
    As a subreaper this process inherits them, so :func:`reap_children`
    can wait for each one."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        e = ctypes.get_errno()
        raise OSError(e, os.strerror(e))


def _descendants() -> set[int]:
    """Live (not yet reaped) processes below this one."""
    parent = {}
    for pid in os.listdir("/proc"):
        if pid.isdigit():
            try:
                with open(f"/proc/{pid}/stat") as f:
                    # the command name may hold spaces; fields after it don't
                    parent[int(pid)] = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue  # the process exited while we looked
    out, frontier = set(), {os.getpid()}
    while frontier:
        frontier = {p for p, pp in parent.items() if pp in frontier} - out
        out |= frontier
    return out


def _reap() -> bool:
    """Reap every child that has ended; False once there is no child left."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return False
        except OSError as e:
            if e.errno == errno.EINTR:
                continue
            raise
        if pid == 0:
            return True


def reap_children(grace_s: float) -> None:
    """Wait until every process started below this one has ended and been
    reaped: ``grace_s`` seconds for them to end on their own, then SIGKILL.
    Needs :func:`become_subreaper` to see workers whose parent ended."""
    deadline = time.monotonic() + grace_s
    while _reap() and time.monotonic() < deadline:
        time.sleep(0.02)
    while _reap():
        for pid in _descendants():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.02)
