"""``gen-110k``: repeated serial ``TraceGenerator.generate_store`` at scale 4.

Almost all the work is in ``repro.synth`` and ``repro.store.writer``;
the read path only runs for the output check.  The generations run in
one process: one untimed warm-up, then as many as fit the window.
"""

from __future__ import annotations

import shutil

from bench_common import (
    GEN_SCALE,
    SETUP_REPEATS,
    TRACE_SEED,
    Result,
    fixture_store,
    median,
    run_dir,
    run_worker,
    store_digest,
)

NAME = "gen-110k"
GEN_LAYERS = ("synth.arrivals", "synth.marks", "synth.bursts", "store.write")


def run(seed: int, seconds: float, traced: bool) -> Result:
    """``seed`` is unused: the generated trace is fixed (see TRACE_SEED)."""
    from repro.store.manifest import Manifest

    result = Result(NAME)
    fixture, build_s = fixture_store(GEN_SCALE)
    if build_s:
        result.note(f"built the two-worker fixture store in {build_s:.1f} s (not set-up)")
    work = run_dir(NAME)
    setups = [
        run_worker("setup-gen", seed=TRACE_SEED, scale=GEN_SCALE, out=str(work / f"setup-{i}"))[0]
        for i in range(SETUP_REPEATS)
    ]
    result.put("setup_s", median(setups), "s", len(setups))

    _, runs = run_worker(
        "gen", seed=TRACE_SEED, scale=GEN_SCALE, out=str(work),
        seconds=seconds, traced=traced,
    )
    gens, traced_gen = runs["timed"], runs["traced"]
    spawns = None
    if traced:
        # Spawn label paths are recorded on a generation of their own,
        # so the traced generation holds only the program's spans.
        _, spawns = run_worker(
            "spawn-replay", seed=TRACE_SEED, scale=GEN_SCALE, out=str(work / "store-spawns")
        )

    checked = [runs["warmup"]] + gens + ([traced_gen] if traced_gen else [])
    result.attempted = len(checked)
    for index, gen in enumerate(checked):
        ok = not gen["verify"] and gen["records"] > 0
        result.check(ok, f"verify_store(deep=True) on generation {index}: {gen['verify'][:3]}")
        result.failed += 0 if ok else 1
    digests = {gen["digest"] for gen in checked}
    result.check(len(digests) == 1, f"store digests differ within the run: {sorted(digests)}")
    expected = store_digest(Manifest.load(fixture / "manifest.json"))
    result.check(expected == gens[0]["digest"], "serial store differs from the two-worker fixture store")
    if spawns is not None:
        result.check(
            spawns["digest"] == gens[0]["digest"],
            "the spawn-recording generation wrote a different store",
        )

    gen_s = [gen["seconds"] for gen in gens]
    p50 = median(gen_s)
    records = gens[0]["records"]
    result.put("latency_ms", p50 * 1000.0, "ms", len(gen_s))
    result.put("throughput_per_s", records / p50, "1/s", len(gen_s))
    rss = median([gen["peak_rss_mb"] for gen in gens])
    result.put("peak_rss_mb", rss, "MB", len(gens))
    result.note(
        f"gen_records_per_s={records / p50:.1f} (n={len(gen_s)}, slowest "
        f"{max(gen_s):.3f} s) gen_peak_rss_mb={rss:.1f} records={records} "
        f"shards={gens[0]['shards']} store_bytes={gens[0]['store_bytes']}"
    )

    if traced_gen is not None:
        spans = traced_gen["spans"]

        def self_s(name: str) -> float:
            return spans.get(name, {}).get("self_s", 0.0)

        def counter(name: str, key: str) -> float:
            return spans.get(name, {}).get("counters", {}).get(key, 0)

        total = traced_gen["seconds"]
        result.put("synth.arrivals_s", self_s("synth.arrivals"), "s")
        result.put("synth.arrivals_events", counter("synth.arrivals", "events"), "count")
        result.put("synth.marks_s", self_s("synth.marks"), "s")
        result.put("synth.bursts_s", self_s("synth.bursts"), "s")
        result.put("synth.bursts_added", counter("synth.bursts", "added"), "count")
        result.put("rng.spawn_s", spawns["spawn_s"], "s")
        result.put("rng.spawn_calls", spawns["spawn_calls"], "count")
        result.put("store.write_s", self_s("store.write"), "s")
        result.put(
            "store.write_bytes_per_record",
            traced_gen["store_bytes"] / traced_gen["records"],
            "B/record",
        )
        result.put("store.shards_written", traced_gen["shards"], "count")
        result.put(
            "gen.unattributed_s",
            total - sum(self_s(name) for name in GEN_LAYERS),
            "s",
        )
        result.put("input.records", traced_gen["records"], "count")
        result.put("input.store_bytes", traced_gen["store_bytes"], "B")
        result.put("input.shards", traced_gen["shards"], "count")
        result.put("trace_overhead_pct", (total - p50) / p50 * 100.0, "%")

    shutil.rmtree(work, ignore_errors=True)
    return result
