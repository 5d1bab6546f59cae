"""Shared plumbing for the perfbench workloads.

Everything here lives on the benchmark side of the line: the program
under test (``src/repro``) is only ever *called*, never edited or
instrumented.  Timing, peak-RSS sampling and the fixture-store cache
are all implemented in this directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
#: Scratch space inside the checkout: fixture stores and per-run
#: directories (listed in the root .gitignore).
WORK = ROOT / ".perfbench-work"

#: ``--scale`` of the 1M-record store that report-1m and serve-live
#: read (about 1.0M records).
SCALE = 38.0
#: ``--scale`` of the gen-110k generations (about 110k records, 2-4 s
#: each on a 2-vCPU VM), short enough to time several in one run.  A
#: scale-38 generation takes about 34 s, one sample per run.
GEN_SCALE = 4.0
#: Generator seed of every generated trace.  A trace's cost swings
#: with the failure bursts its seed draws (burst injection is 40-75% of
#: generation time; on a 2-vCPU VM seed 2 generates 15% faster than
#: seed 1 in 6% fewer records, with 10% less peak RSS), so one fixed
#: trace keeps run-to-run spread about the program rather than about
#: the draw.  ``--seed`` drives serve-live's requests and appends.
TRACE_SEED = 1
#: How many times set-up is repeated per run (``setup_s`` is the median).
SETUP_REPEATS = 5
#: Hard cap on any single worker subprocess.
WORKER_TIMEOUT_S = 170.0


class BenchError(Exception):
    """An output check failed or the program could not be run."""


def require_source() -> None:
    """Refuse to run without the program's source tree next to us."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"program source not found at {SRC}; run from a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_FS_FAULTS", None)
    return env


# -- statistics -------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] (numpy's default)."""
    if not values:
        raise BenchError("percentile of an empty sample")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    if not values:
        raise BenchError("median of an empty sample")
    return float(statistics.median(values))


# -- peak RSS ----------------------------------------------------------------


def reset_peak_rss(pid: str = "self") -> None:
    """Reset the kernel's VmHWM so later reads exclude earlier set-up."""
    with open(f"/proc/{pid}/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb(pid: str = "self") -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for process {pid}")


# -- subprocess workers -------------------------------------------------------


def run_worker(task: str, **kwargs) -> Tuple[float, dict]:
    """Run ``worker.py <task>`` to completion.

    Returns ``(wall seconds from spawn to exit, the worker's JSON
    result)``.  A failing worker raises :class:`BenchError` carrying
    its stderr tail.
    """
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(WORKER), task, json.dumps(kwargs)],
        env=child_env(),
        cwd=str(ROOT),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"worker {task} exited {proc.returncode}:\n{tail}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {task} printed no result")
    return wall, json.loads(lines[-1])


# -- run directories and the fixture cache -----------------------------------


def run_dir(workload: str) -> Path:
    path = WORK / "runs" / f"{workload}-{os.getpid()}"
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def source_digest(scale: float) -> str:
    """Digest of the program's package and the fixture's parameters."""
    digest = hashlib.sha256(f"scale={scale} seed={TRACE_SEED}".encode())
    for path in sorted((SRC / "repro").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\x00")
            digest.update(path.read_bytes() + b"\x00")
    return digest.hexdigest()[:16]


def fixture_path(scale: float = SCALE) -> Path:
    """Where the fixture store of ``scale`` made by this source tree lives.

    Keyed by :func:`source_digest`, so a store written by other code
    (another commit in the same checkout) is never reused.
    """
    return WORK / f"fixture-{source_digest(scale)}"


def fixture_store(scale: float = SCALE) -> Tuple[Path, float]:
    """The two-worker store of :data:`TRACE_SEED` at ``scale``, built on
    first use.

    Returns ``(path, build seconds)``; the build time is 0.0 when the
    store already exists.  The store is an input, like a downloaded
    dataset: its build is not part of any workload's set-up, and
    ``gen-110k`` measures the generation path itself.
    """
    fixture = fixture_path(scale)
    if (fixture / "manifest.json").is_file():
        return fixture, 0.0
    staging = WORK / f".fixture-{os.getpid()}"
    if staging.exists():
        shutil.rmtree(staging)
    WORK.mkdir(parents=True, exist_ok=True)
    wall, _ = run_worker(
        "build-fixture", seed=TRACE_SEED, scale=scale, out=str(staging)
    )
    if fixture.exists():
        shutil.rmtree(fixture)
    os.replace(staging, fixture)
    return fixture, wall


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# -- digests ---------------------------------------------------------------


def sha256_text(parts: Iterable[str]) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def store_digest(manifest) -> str:
    """Content digest: shard rows and per-column checksums, manifest order.

    Sound once ``verify_store(deep=True)`` has matched every column file
    against its manifest checksum.
    """
    return sha256_text(
        f"{shard.name}:{shard.rows}:{json.dumps(shard.checksums, sort_keys=True)}"
        for shard in manifest.shards
    )


# -- results -------------------------------------------------------------------


class Result:
    """Metrics of one run plus the attempted/failed tally and checks."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics: Dict[str, Tuple[float, str, Optional[int]]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.notes: List[str] = []

    def put(
        self, name: str, value: float, unit: str, samples: Optional[int] = None
    ) -> None:
        self.metrics[name] = (float(value), unit, samples)

    def check(self, ok: bool, message: str) -> None:
        """Record an output check; a failed one makes the run exit non-zero."""
        if not ok:
            self.failures.append(message)

    def note(self, message: str) -> None:
        self.notes.append(message)

    def emit(self, metrics: Sequence[dict], zero_missing: bool) -> None:
        """Human-readable lines, then the one-line JSON result.

        ``metrics`` are the ``BENCHMARK.json`` entries to report; with
        ``zero_missing`` an entry this workload did not measure (a layer
        it never calls) reports 0, otherwise it is an error.
        """
        for note in self.notes:
            print(f"# {note}")
        for name, (value, unit, samples) in self.metrics.items():
            count = "" if samples is None else f"  (n={samples})"
            print(f"{self.workload:<11} {name:<34} {value:>16.6f} {unit}{count}")
        print(
            f"{self.workload:<11} operations: attempted={self.attempted} "
            f"failed={self.failed}"
        )
        for failure in self.failures:
            print(f"CHECK FAILED: {failure}")
        values = {}
        for metric in metrics:
            name, unit = metric["name"], metric["unit"]
            measured = self.metrics.get(name)
            if measured is None:
                if not zero_missing:
                    raise BenchError(f"metric {name} was not measured")
                measured = (0.0, unit, None)
            if measured[1] != unit:
                raise BenchError(f"{name}: unit {measured[1]} != {unit}")
            values[name] = {"value": measured[0], "unit": unit}
        payload = {
            "correct": not self.failures,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": values,
        }
        print(json.dumps(payload), flush=True)
