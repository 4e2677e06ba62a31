"""Machine and provenance block, and the copy bandwidth the search kernel is read against."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path
from typing import Callable

import numpy as np

import afga

MIB = 2**20
# make each bandwidth array 4x the last-level cache for a DRAM figure: with
# L3 = 300 MiB that is 1.2 GiB, beyond the 256 MiB vector of MAX_NB = 24,
# so every bandwidth figure here is computed and cache-resident
BANDWIDTH_NOTE = (
    "bytes are computed from array sizes; 4 MiB and 64 MiB copies stay within L3, "
    "so figures are cache-resident, not DRAM"
)


class SpeedProbe:
    """A fixed kernel that shares no code with afga, timed right after each op.

    The speed of a core on this kind of shared host drifts by up to 25%
    over seconds as other tenants come and go, which is more than any bound
    worth having.  The benchmark runs pinned to one CPU, times the kernel
    after every op (outside the timed region), and scales each op time by
    nominal_s / (running median of the kernel's time).  Times then read as
    on a machine that runs the kernel in nominal_s; the raw times are
    printed beside them.  The kernel matches the op's bottleneck: scalar
    float math for the sweep and the continuum, memory streams for the big
    search, and a fresh interpreter importing numpy for the CLI.
    """

    def __init__(self, kernel: Callable[[], object], nominal_s: float, repeats: int = 3) -> None:
        self.kernel = kernel
        self.nominal_s = nominal_s
        self.repeats = repeats

    def sample(self) -> float:
        """Best of `repeats` timings of the kernel."""
        best = math.inf
        for _ in range(self.repeats):
            start = time.perf_counter()
            self.kernel()
            best = min(best, time.perf_counter() - start)
        return best


def _interpreter_kernel() -> float:
    """Integer and scalar float math through the interpreter.

    Each half alone followed some drifts and missed others; together they
    followed the sweep and the continuum within a few percent.
    """
    total = 0
    for i in range(2500):
        total += i * i
    a, b, c = 2.9, 1.3, -0.7
    for _ in range(300):
        d = math.cos(a) * math.cos(b) + math.sin(a) * math.sin(b) * c
        b = 0.5 * (a + b - math.atan2(math.sqrt(max(0.0, 1.0 - d * d)), d)) + 0.01
    return total + b


class _CopyKernel:
    """Two copies of a 4 MiB array: the size of one 2^18-state amplitude vector."""

    def __init__(self) -> None:
        self.src = self.dst = None

    def __call__(self) -> None:
        if self.src is None:
            self.src = np.ones(4 * MIB // 8)
            self.dst = np.empty_like(self.src)
        np.copyto(self.dst, self.src)
        np.copyto(self.src, self.dst)


def interpreter_probe() -> SpeedProbe:
    return SpeedProbe(_interpreter_kernel, 400e-6)


def memory_probe() -> SpeedProbe:
    return SpeedProbe(_CopyKernel(), 700e-6)


def pin_to_one_cpu() -> int:
    """Run this process and its children on one CPU, so that the speed probe
    sees the core the ops ran on."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def copy_gbps(nbytes: int, reps: int) -> float:
    """Median rate of np.copyto over nbytes, counting the read and the write."""
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - start)
    return 2 * nbytes / statistics.median(times) / 1e9


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches() -> dict[str, str]:
    """Cache sizes as lscpu reports them, e.g. {"L2": "4 MiB (2 instances)"}."""
    try:
        out = subprocess.run(
            ["lscpu"], capture_output=True, text=True, timeout=10, env=dict(os.environ, LC_ALL="C")
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    caches = {}
    for line in out.splitlines():
        key, _, value = line.partition(":")
        if key.strip().endswith(" cache"):
            caches[key.strip().removesuffix(" cache")] = value.strip()
    return caches


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():  # git would report an enclosing repository
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "afga").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(root: Path, blas_vars: tuple[str, ...]) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "afga": afga.__version__,
        # the benchmark's checkout need not be a git repository; the source
        # digest identifies the program either way
        "git_commit": _git_commit(root),
        "src_sha256": _src_digest(root / "src"),
        "blas_threads": {k: os.environ.get(k) for k in blas_vars},
        "bandwidth_note": BANDWIDTH_NOTE,
    }
