"""Subprocess side of the benchmark: one measured task per process.

Usage: ``python3 perfbench/worker.py <task> '<json kwargs>'`` with
``PYTHONPATH`` pointing at the program's ``src``.  Prints one JSON line.

Each task runs in a fresh interpreter, away from the benchmark's own
process.  The repeated tasks (``gen``, ``report``) make one untimed
warm-up call first, then time each call on its own; the kernel's
peak-RSS high-water mark is reset before every call, so it covers that
call alone.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_common import (  # noqa: E402
    dir_bytes,
    peak_rss_mb,
    reset_peak_rss,
    sha256_text,
    store_digest,
)

#: Relative tolerance for float state when a shard-by-shard merge is
#: compared with a single pass (chunk-order float sums differ in ulps).
MERGE_REL_TOL = 1e-9


def self_times(events) -> dict:
    """Per-span-name self wall time and summed counters."""
    from repro.obs.profile import build_span_tree

    totals: dict = {}
    for root in build_span_tree(events):
        for node in root.walk():
            entry = totals.setdefault(node.name, {"self_s": 0.0, "counters": {}})
            entry["self_s"] += node.self_wall
            for key, value in (node.event.get("counters") or {}).items():
                entry["counters"][key] = entry["counters"].get(key, 0) + value
    return totals


# -- set-up probes (timed from the parent, spawn to exit) ----------------------


def task_setup_gen(seed: int, scale: float, out: str) -> dict:
    from repro.store.writer import StoreWriter  # noqa: F401
    from repro.synth.generator import TraceGenerator
    from repro.synth.scenario import scaled_lanl_systems

    generator = TraceGenerator(seed=seed, systems=scaled_lanl_systems(scale))
    Path(out).mkdir(parents=True, exist_ok=False)
    return {"systems": len(generator.systems)}


def task_setup_report(store: str) -> dict:
    from repro.report.streaming import run_store_report  # noqa: F401
    from repro.store.reader import ColumnarStore

    return {"rows": len(ColumnarStore(store))}


def task_build_fixture(seed: int, scale: float, out: str) -> dict:
    from repro.synth.generator import TraceGenerator
    from repro.synth.scenario import scaled_lanl_systems

    manifest = TraceGenerator(
        seed=seed, systems=scaled_lanl_systems(scale)
    ).generate_store(out, workers=2)
    return {"records": manifest.row_count}


def repeat(once, seconds: float, traced: bool) -> dict:
    """One untimed warm-up call, timed calls for ``seconds``, then one
    traced call when ``traced``.  ``once(index, traced)`` returns a dict
    with at least ``seconds``."""
    warmup = once("warmup", False)
    timed = []
    deadline = time.perf_counter() + seconds
    while len(timed) < 2 or time.perf_counter() < deadline:
        timed.append(once(len(timed), False))
    return {
        "warmup": warmup,
        "timed": timed,
        "traced": once("traced", True) if traced else None,
    }


# -- gen ------------------------------------------------------------------------


def task_gen(seed: int, scale: float, out: str, seconds: float, traced: bool) -> dict:
    """Repeated serial ``generate_store`` calls in this process.

    Each store is verified, digested and removed before the next one.
    """
    from repro import obs
    from repro.store.reader import verify_store
    from repro.synth.generator import TraceGenerator
    from repro.synth.scenario import scaled_lanl_systems

    def once(index, traced_call: bool) -> dict:
        path = Path(out) / f"store-{index}"
        generator = TraceGenerator(seed=seed, systems=scaled_lanl_systems(scale))
        tracer = obs.Tracer() if traced_call else None
        reset_peak_rss()
        start = time.perf_counter()
        if traced_call:
            with obs.observing(tracer, obs.MetricsRegistry()):
                manifest = generator.generate_store(path)
        else:
            manifest = generator.generate_store(path)
        seconds_taken = time.perf_counter() - start
        result = {
            "seconds": seconds_taken,
            "peak_rss_mb": peak_rss_mb(),
            "records": manifest.row_count,
            "shards": len(manifest.shards),
            "store_bytes": dir_bytes(path),
            "digest": store_digest(manifest),
            "verify": verify_store(path, deep=True),
        }
        if traced_call:
            result["spans"] = self_times(tracer.events)
        shutil.rmtree(path)
        return result

    return repeat(once, seconds, traced)


def task_spawn_replay(seed: int, scale: float, out: str) -> dict:
    """Record every ``RngStream.spawn_generator`` call of a generation,
    then time replaying them (the generation itself is not timed)."""
    from repro.simulate.rng import RngStream
    from repro.synth.generator import TraceGenerator
    from repro.synth.scenario import scaled_lanl_systems

    spawns = []
    original = RngStream.spawn_generator

    def recording(stream, *labels):
        spawns.append((stream, labels))
        return original(stream, *labels)

    RngStream.spawn_generator = recording
    try:
        manifest = TraceGenerator(
            seed=seed, systems=scaled_lanl_systems(scale)
        ).generate_store(out)
    finally:
        RngStream.spawn_generator = original
    start = time.perf_counter()
    for stream, labels in spawns:
        stream.spawn_generator(*labels)
    return {
        "spawn_s": time.perf_counter() - start,
        "spawn_calls": len(spawns),
        "digest": store_digest(manifest),
    }


# -- report-1m ------------------------------------------------------------------


def report_digest(store_report) -> str:
    return sha256_text(
        f"{s.name}|{s.status}|{s.error}|{s.text}"
        for s in store_report.report.sections
    )


def task_report(store: str, seconds: float, traced: bool) -> dict:
    """Repeated serial ``run_store_report`` calls in this process, each
    on a freshly opened store handle."""
    from repro import obs
    from repro.report.streaming import run_store_report
    from repro.store.reader import ColumnarStore

    def once(index, traced_call: bool) -> dict:
        handle = ColumnarStore(store)
        tracer = obs.Tracer() if traced_call else None
        reset_peak_rss()
        start = time.perf_counter()
        if traced_call:
            with obs.observing(tracer, obs.MetricsRegistry()):
                store_report = run_store_report(handle)
        else:
            store_report = run_store_report(handle)
        seconds_taken = time.perf_counter() - start
        result = {
            "seconds": seconds_taken,
            "peak_rss_mb": peak_rss_mb(),
            "rows": handle.manifest.row_count,
            "sections": [
                [s.name, s.status, s.error] for s in store_report.report.sections
            ],
            "digest": report_digest(store_report),
        }
        if traced_call:
            events = tracer.events
            result["scan_s"] = sum(
                e["wall_s"] for e in events if e["name"] == "report.scan"
            )
            result["section_s"] = {
                e["attrs"]["section"]: e["wall_s"]
                for e in events
                if e["name"] == "report.section"
            }
        return result

    runs = repeat(once, seconds, traced)
    if traced:
        runs["layers"] = replay_layers(store)
    return runs


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def replay_layers(store: str) -> dict:
    """Time the store read and each fold kernel on the same chunks."""
    import numpy as np

    from repro.analysis.outofcore import (
        REPAIR_CLAMP_MINUTES,
        REPORT_COLUMNS,
        GapSegment,
        PaperAccumulator,
    )
    from repro.stats.sketch import GroupedCounts, GroupedSums, SampleSketch
    from repro.store.reader import ColumnarStore
    from repro.store.schema import ColumnBatch

    opens = []
    for _ in range(5):
        opens.append(_timed(lambda: ColumnarStore(store)))
    handle = ColumnarStore(store)

    chunks = []
    scan_bytes = 0

    def scan() -> None:
        nonlocal scan_bytes
        for chunk in handle.iter_batches(columns=REPORT_COLUMNS):
            copied = {name: np.array(chunk[name]) for name in REPORT_COLUMNS}
            scan_bytes += sum(array.nbytes for array in copied.values())
            chunks.append(ColumnBatch(copied))

    scan_s = _timed(scan)

    single = PaperAccumulator.from_store(handle)

    def fold() -> None:
        for chunk in chunks:
            single.observe(chunk)

    observe_s = _timed(fold)

    # Inputs each kernel receives inside PaperAccumulator.observe,
    # prepared outside the timers so only the kernels are timed.
    prepared = []
    for chunk in chunks:
        starts = np.asarray(chunk["start_time"], dtype=float)
        systems = np.asarray(chunk["system_id"], dtype=np.int64)
        causes = np.asarray(chunk["root_cause"], dtype=np.int64)
        nodes = np.asarray(chunk["node_id"], dtype=np.int64)
        repairs = np.asarray(chunk["end_time"], dtype=float) - starts
        prepared.append((starts, systems, causes, nodes, repairs))
    fig3, fig6, node6 = single.fig3_system, single.fig6_system, single.fig6_node

    def grouped_counts() -> None:
        by_cause, by_node = GroupedCounts(), GroupedCounts()
        for starts, systems, causes, nodes, repairs in prepared:
            by_cause.observe(systems, causes)
            by_node.observe(nodes[systems == fig3])

    def grouped_sums() -> None:
        downtime = GroupedSums()
        for starts, systems, causes, nodes, repairs in prepared:
            downtime.observe(repairs, systems, causes)

    def sample_sketch() -> None:
        overall = SampleSketch(clamp_epsilon=REPAIR_CLAMP_MINUTES)
        by_key: dict = {}
        for starts, systems, causes, nodes, repairs in prepared:
            minutes = repairs / 60.0
            overall.observe(minutes)
            for column, tag in ((causes, "c"), (systems, "s")):
                for code in np.unique(column).tolist():
                    sketch = by_key.setdefault(
                        (tag, code), SampleSketch(clamp_epsilon=REPAIR_CLAMP_MINUTES)
                    )
                    sketch.observe(minutes[column == code])

    def gap_segment() -> None:
        segments = [GapSegment() for _ in range(4)]
        for starts, systems, causes, nodes, repairs in prepared:
            mask = systems == fig6
            seg_starts, seg_nodes = starts[mask], nodes[mask]
            early = (seg_starts >= single.data_start) & (
                seg_starts < single.era_boundary
            )
            late = (seg_starts >= single.era_boundary) & (
                seg_starts < single.data_end
            )
            node_mask = seg_nodes == node6
            segments[0].observe_sorted(seg_starts[node_mask & early])
            segments[1].observe_sorted(seg_starts[node_mask & late])
            segments[2].observe_sorted(seg_starts[early])
            segments[3].observe_sorted(seg_starts[late])

    def calendar() -> None:
        grids = PaperAccumulator.from_store(handle).lifecycle
        for starts, systems, causes, nodes, repairs in prepared:
            for system_id, state in grids.items():
                mask = systems == system_id
                if mask.any():
                    state.observe(starts[mask], causes[mask])

    kernels = {
        "grouped_counts_s": _timed(grouped_counts),
        "grouped_sums_s": _timed(grouped_sums),
        "sample_sketch_s": _timed(sample_sketch),
        "gap_segment_s": _timed(gap_segment),
        "calendar_s": _timed(calendar),
    }

    parts = []
    for index in range(len(handle.manifest.shards)):
        part = PaperAccumulator.from_store(handle)
        for chunk in handle.iter_batches(columns=REPORT_COLUMNS, shards=[index]):
            part.observe(chunk)
        parts.append(part)
    merged = PaperAccumulator.from_store(handle)

    def merge() -> None:
        for part in parts:
            merged.merge_ordered(part)

    merge_s = _timed(merge)
    mismatch = state_mismatch(
        accumulator_state(single), accumulator_state(merged), "accumulator"
    )
    return {
        "open_s": sorted(opens)[len(opens) // 2],
        "scan_s": scan_s,
        "scan_bytes": scan_bytes,
        "chunks": len(chunks),
        "observe_s": observe_s,
        "merge_s": merge_s,
        "merge_parts": len(parts),
        "merge_mismatch": mismatch,
        **kernels,
    }


def accumulator_state(acc) -> dict:
    """Every piece of fold state, as plain JSON-able values."""
    def gap(segment):
        return {
            "count": segment.count,
            "first": segment.first,
            "last": segment.last,
            "gaps": segment.gaps.to_dict(),
        }

    return {
        "rows": acc.rows,
        "hourly": acc.hourly.tolist(),
        "weekday": acc.weekday.tolist(),
        "cause_counts": acc.cause_counts.to_dict(),
        "cause_downtime": acc.cause_downtime.to_dict(),
        "repairs": acc.repairs.to_dict(),
        "repair_by_cause": {
            str(k): v.to_dict() for k, v in sorted(acc.repair_by_cause.items())
        },
        "repair_by_system": {
            str(k): v.to_dict() for k, v in sorted(acc.repair_by_system.items())
        },
        "node_counts": acc.node_counts.to_dict(),
        "node_workloads": sorted(acc.node_workloads.items()),
        "lifecycle": {
            str(k): [v.grid.tolist(), v.min_start]
            for k, v in sorted(acc.lifecycle.items())
        },
        "gaps": [
            gap(acc.gap_node_early),
            gap(acc.gap_node_late),
            gap(acc.gap_system_early),
            gap(acc.gap_system_late),
        ],
    }


def state_mismatch(left, right, path: str):
    """First difference between two state trees, or None when equal.

    Integers and structure must match exactly; floats within
    :data:`MERGE_REL_TOL` relative.
    """
    if isinstance(left, dict) and isinstance(right, dict):
        if sorted(left) != sorted(right):
            return f"{path}: keys differ"
        for key in left:
            found = state_mismatch(left[key], right[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        if len(left) != len(right):
            return f"{path}: lengths {len(left)} != {len(right)}"
        for index, (a, b) in enumerate(zip(left, right)):
            found = state_mismatch(a, b, f"{path}[{index}]")
            if found:
                return found
        return None
    if isinstance(left, float) or isinstance(right, float):
        if left == right or (
            isinstance(left, (int, float))
            and isinstance(right, (int, float))
            and math.isclose(left, right, rel_tol=MERGE_REL_TOL)
        ):
            return None
        return f"{path}: {left!r} != {right!r}"
    return None if left == right else f"{path}: {left!r} != {right!r}"


TASKS = {
    "setup-gen": task_setup_gen,
    "setup-report": task_setup_report,
    "build-fixture": task_build_fixture,
    "gen": task_gen,
    "spawn-replay": task_spawn_replay,
    "report": task_report,
}


def main(argv) -> int:
    task, kwargs = argv[1], json.loads(argv[2])
    print(json.dumps(TASKS[task](**kwargs)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
