"""``report-1m``: the full serial ``run_store_report`` over a 1M store.

The reports run in one process, each on a freshly opened store handle
(the program keeps no report cache between calls): one untimed
warm-up, then as many as fit the window.  Almost all the work is reading, folding, finishing and
rendering.
"""

from __future__ import annotations

from bench_common import (
    SETUP_REPEATS,
    Result,
    dir_bytes,
    fixture_store,
    median,
    run_worker,
)

NAME = "report-1m"


def run(seed: int, seconds: float, traced: bool) -> Result:
    """``seed`` is unused: the reported store is fixed (see TRACE_SEED)."""
    result = Result(NAME)
    store, build_s = fixture_store()
    if build_s:
        result.note(f"built the fixture store in {build_s:.1f} s (not set-up)")
    setups = [
        run_worker("setup-report", store=str(store))[0]
        for _ in range(SETUP_REPEATS)
    ]
    result.put("setup_s", median(setups), "s", len(setups))

    _, runs = run_worker("report", store=str(store), seconds=seconds, traced=traced)
    reps, traced_rep = runs["timed"], runs["traced"]

    checked = [runs["warmup"]] + reps + ([traced_rep] if traced_rep else [])
    for rep in checked:
        result.attempted += len(rep["sections"])
        result.failed += sum(1 for _, status, _ in rep["sections"] if status != "ok")
    digests = {rep["digest"] for rep in checked}
    result.check(len(digests) == 1, f"report text differs between repetitions: {len(digests)} variants")
    not_ok = [f"{name}={status}" for name, status, _ in reps[0]["sections"] if status != "ok"]
    result.note(f"sections not ok: {', '.join(not_ok) or 'none'}")

    times = [rep["seconds"] for rep in reps]
    p50 = median(times)
    rows = reps[0]["rows"]
    rss = median([rep["peak_rss_mb"] for rep in reps])
    result.put("latency_ms", p50 * 1000.0, "ms", len(times))
    result.put("throughput_per_s", rows / p50, "1/s", len(times))
    result.put("peak_rss_mb", rss, "MB", len(reps))
    result.note(
        f"report_p50_s={p50:.4f} (n={len(times)}, slowest {max(times):.3f} s) "
        f"report_peak_rss_mb={rss:.1f} rows={rows}"
    )

    if traced_rep is not None:
        layers = runs["layers"]
        total = traced_rep["seconds"]
        result.put("store.open_s", layers["open_s"], "s")
        result.put("store.scan_s", layers["scan_s"], "s")
        result.put("store.scan_bytes", layers["scan_bytes"], "B")
        result.put("store.chunks", layers["chunks"], "count")
        result.put("fold.observe_s", layers["observe_s"], "s")
        for kernel in ("grouped_counts", "grouped_sums", "sample_sketch", "gap_segment", "calendar"):
            result.put(f"fold.{kernel}_s", layers[f"{kernel}_s"], "s")
        result.put("fold.merge_s", layers["merge_s"], "s")
        result.check(
            layers["merge_mismatch"] is None,
            f"shard-by-shard merge_ordered != single pass: {layers['merge_mismatch']}",
        )
        result.put("fold_over_scan", layers["observe_s"] / layers["scan_s"], "ratio")
        result.put("report.scan_s", traced_rep["scan_s"], "s")
        sections = traced_rep["section_s"]
        for name, _, _ in traced_rep["sections"]:
            result.put(f"report.section.{name}_s", sections[name], "s")
        result.put(
            "report.unattributed_s",
            total - traced_rep["scan_s"] - sum(sections.values()),
            "s",
        )
        result.put("input.records", rows, "count")
        result.put("input.store_bytes", dir_bytes(store), "B")
        result.put("input.shards", layers["merge_parts"], "count")
        result.put("trace_overhead_pct", (total - p50) / p50 * 100.0, "%")
    return result
