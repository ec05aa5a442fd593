"""Shared pieces of the benchmark: paths, inputs, verdicts, statistics.

Everything here is benchmark-side.  The program under test is imported only
through :func:`bootstrap`, which points ``sys.path`` at the checkout's
``src`` tree and keeps every file the program writes (the native-kernel
cache, result stores, span dumps) inside the checkout.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for one checkout: the native-kernel cache, store files,
#: span dumps and result records.  Listed in the root ``.gitignore``.
OUT = ROOT / ".perfbench-out"

#: The seeded request mix every served workload draws topologies from
#: (``repro.service.loadgen.DEFAULT_MIX``, the service's acceptance mix).
SERVICE_MIX = (
    ("hypercube", {"dimension": 12}),
    ("hypercube", {"dimension": 14}),
    ("star", {"n": 7}),
)


class MissingProgram(RuntimeError):
    """The checkout holds no program to measure."""


def bootstrap() -> None:
    """Make ``import repro`` load the checkout's sources, or refuse.

    Must run before the first ``repro`` import.  ``XDG_CACHE_HOME`` moves
    the native kernel's build cache into the checkout and ``TMPDIR`` the
    compiler's and SQLite's temporary files; a subprocess the benchmark
    starts inherits the same environment.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program sources under {SRC}")
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["XDG_CACHE_HOME"] = str(OUT / "cache")
    os.environ["TMPDIR"] = str(OUT / "tmp")
    os.environ["PYTHONPATH"] = str(SRC) + (
        os.pathsep + os.environ["PYTHONPATH"]
        if os.environ.get("PYTHONPATH") else ""
    )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def topology_name(family: str, params: dict) -> str:
    return family + "-" + "-".join(str(v) for _, v in sorted(params.items()))


# --------------------------------------------------------------- the oracle
def choose_faults(rng: np.random.Generator, num_nodes: int, delta: int) -> frozenset[int]:
    """``delta`` distinct faulty nodes: the most Theorem 1 allows."""
    return frozenset(int(v) for v in rng.choice(num_nodes, size=delta, replace=False))


def explicit_syndrome(csr, faults, rng: np.random.Generator):
    """A full MM syndrome built by the benchmark itself.

    Slot ``k`` holds tester ``pu[k]``'s verdict on the pair ``(pv[k], pw[k])``
    from :meth:`CSRAdjacency.pair_members`.  A healthy tester reports
    ``f[v] | f[w]``; a faulty tester reports a bit drawn from ``rng``.
    Returns the ``uint8`` buffer and the faulty-tester slot indices (the
    slots whose value no healthy-tester rule fixes).
    """
    pu, pv, pw = csr.pair_members()
    mask = np.zeros(csr.num_nodes, dtype=bool)
    mask[list(faults)] = True
    values = (mask[pv] | mask[pw]).astype(np.uint8)
    faulty_slots = np.flatnonzero(mask[pu])
    values[faulty_slots] = rng.integers(0, 2, size=faulty_slots.size, dtype=np.uint8)
    return values, faulty_slots


def verdict(accused, expected: frozenset[int], delta: int) -> bool:
    """Theorem 1: with ``|F| <= delta`` the accused set is exactly ``F``."""
    return len(expected) <= delta and frozenset(accused) == expected


def corrupted(accused, num_nodes: int) -> frozenset[int]:
    """A deliberately wrong answer: one accused node swapped for another."""
    accused = sorted(accused)
    if not accused:
        return frozenset({0})
    wrong = (accused[0] + 1) % num_nodes
    while wrong in accused:
        wrong = (wrong + 1) % num_nodes
    return frozenset(accused[1:]) | {wrong}


class Checker:
    """Every answer of a run goes through :meth:`check`.

    ``corrupt`` answers (the first ones checked) are replaced by
    :func:`corrupted` before the verdict: the self-check that a wrong
    response is counted as failed, end to end through the same path.
    """

    def __init__(self, corrupt: int = 0) -> None:
        self.corrupt_left = corrupt

    def check(self, accused, expected: frozenset[int], delta: int, num_nodes: int) -> bool:
        if self.corrupt_left > 0:
            self.corrupt_left -= 1
            accused = corrupted(accused, num_nodes)
        return verdict(accused, expected, delta)

    @staticmethod
    def catches_corruption(expected: frozenset[int], delta: int, num_nodes: int) -> bool:
        """Whether the verdict rejects a corrupted copy of a right answer."""
        return verdict(expected, expected, delta) and not verdict(
            corrupted(expected, num_nodes), expected, delta)


# --------------------------------------------------------------- statistics
def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100); 0 for no values."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return float(statistics.median(list(values)))


#: Length of one segment of a measured pass.  Latency percentiles are worked
#: out per segment and reported as the median over segments, so one stall on
#: a shared machine moves one segment, not the run.
SEGMENT_S = 5.0


class Pass:
    """The outcome of one measured pass over a workload."""

    def __init__(self, limit_s: float, seconds: float) -> None:
        self.limit_s = limit_s
        self.segments = max(1, int(round(seconds / SEGMENT_S)))
        self.segment_s = seconds / self.segments
        self.ops: list[tuple[float, bool, float]] = []  # (offset, verified, latency)
        self.elapsed = 0.0
        self.setup: list[float] = []
        self.rss_mb = 0.0
        self.self_check = False  # the verdict rejects a corrupted answer
        self.extra: dict = {}    # what the traced analysis needs

    def record(self, ok: bool, latency: float, offset: float) -> None:
        """One operation, ``offset`` seconds after the pass started."""
        self.ops.append((offset, ok, latency))

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.ops if not ok)

    @property
    def latencies(self) -> list[float]:
        return [latency for _, ok, latency in self.ops if ok]

    def _segment(self, offset: float) -> int:
        return min(self.segments - 1, max(0, int(offset // self.segment_s)))

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        parts: list[list[float]] = [[] for _ in range(self.segments)]
        for offset, ok, latency in self.ops:
            if ok:
                parts[self._segment(offset)].append(latency)
        attempted = max(1, self.attempted)
        verified = self.latencies
        within = sum(1 for latency in verified if latency <= self.limit_s)
        return {
            "throughput_rps": (len(verified) / self.elapsed, "1/s"),
            "latency_p50_ms": (1e3 * median(percentile(p, 50) for p in parts), "ms"),
            "latency_p90_ms": (1e3 * median(percentile(p, 90) for p in parts), "ms"),
            "verified_share": (len(verified) / attempted, "share"),
            "within_limit_share": (within / attempted, "share"),
            "setup_s": (median(self.setup), "s"),
            "peak_rss_mb": (self.rss_mb, "MiB"),
        }


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


# -------------------------------------------------------------- environment
def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (from ``/proc/mounts``)."""
    path = path.resolve()
    best, best_type = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                point = fields[1]
                inside = str(path) == point or str(path).startswith(point.rstrip("/") + "/")
                if inside and len(point) > len(best):
                    best, best_type = point, fields[2]
    except OSError:
        pass
    return best_type


def environment(seed: int, store_dir: Path) -> dict:
    """What a result depends on besides the code (recorded with each result)."""
    from repro.core.native import native_kernel_active

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "native_kernel_active": bool(native_kernel_active()),
        "store_filesystem": filesystem_of(store_dir),
        "seed": seed,
    }
