"""``serve-live``: ``repro serve`` out of process under a dashboard mix.

Two closed-loop clients (each waits for its reply) send ``/v1/analyze``
over 22 systems x 4 fixed windows plus ``/v1/summary`` with a fixed
Zipf skew; one of them asks once per window for the full
``/v1/report`` with a deadline long enough for it to finish.  Every
:data:`APPEND_EVERY` requests the client that sent it appends a small
seeded batch of new failures with ``append_trace``, as a live service
ingests them; each append changes the store generation, so every
cached key goes cold again.  The server runs with its default settings
in its own process, so the clients and the server do not share an
interpreter lock.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from bench_common import (
    SETUP_REPEATS,
    BenchError,
    Result,
    child_env,
    dir_bytes,
    fixture_store,
    median,
    peak_rss_mb,
    percentile,
    reset_peak_rss,
    run_dir,
)

NAME = "serve-live"
HOST = "127.0.0.1"
CLIENTS = 2
#: Fixed query windows per system (equal slices of the data window).
WINDOWS = 4
#: Zipf exponent of the key popularity (ranks: a fixed permutation).
ZIPF_S = 1.5
#: Client REPORT_CLIENT asks for the full report once, as its first
#: request after REPORT_AT of the window has passed (a timed refresh).
REPORT_CLIENT = 0
REPORT_AT = 0.25
#: The report in the mix asks for the server's largest deadline, so
#: it completes.  Under the default 5 s budget a cold report next to
#: the other client came back ``partial`` in 8 of 10 windows and ``ok``
#: in 2 on a 2-vCPU VM, so the failure count of the same code would
#: differ from run to run.  The traced run probes the default deadline
#: separately (``serve.report_default_*``).
REPORT_PATH = "/v1/report?deadline_ms=60000"
#: One append per APPEND_EVERY requests (both clients counted).
APPEND_EVERY = 50
APPEND_ROWS = 32
#: Largest gap between consecutive appended failures of one system.
APPEND_GAP_S = 3600.0
#: Rows per live system that appended failures are modelled on.
TEMPLATE_ROWS = 4096
#: Pre-drawn key indices per client (far more than a window uses).
DRAWS = 50_000
#: Keys re-fetched after the window and compared with a local
#: ``summarize_store`` (every SAMPLE_STRIDE-th key, summary first).
SAMPLE_STRIDE = 11
HEALTHZ_PROBES = 100
GENERATION_PROBES = 200
REQUEST_TIMEOUT_S = 60.0


def pin_to_one_cpu() -> int:
    """Confine this process, and the server it starts, to one CPU.

    On a 2-vCPU VM, seven pinned and seven unpinned runs, interleaved,
    gave a median of 136 req/s pinned against 116 unpinned, and their
    range was 18% of the median against 33%.  Unpinned, a request
    often waits for the other vCPU to wake up.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Server:
    """``python -m repro serve <root> --port 0`` in its own process."""

    def __init__(self, root: Path, log: Path) -> None:
        self._log = open(log, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(root), "--port", "0"],
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        try:
            self.port = self._read_port(timeout=60.0)
            self._wait_healthy(timeout=30.0)
        except BaseException:
            self.stop()
            raise

    def _read_port(self, timeout: float) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if "http://" not in line:
            raise BenchError(f"repro serve did not start: {line!r}")
        return int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def _wait_healthy(self, timeout: float) -> None:
        from repro.serve.client import get

        limit = time.monotonic() + timeout
        while time.monotonic() < limit:
            try:
                if get(HOST, self.port, "/healthz", timeout=5.0).status == 200:
                    return
            except OSError:
                time.sleep(0.02)
        raise BenchError("repro serve never answered /healthz")

    def get(self, path: str):
        from repro.serve.client import get

        return get(HOST, self.port, path, timeout=REQUEST_TIMEOUT_S)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


@dataclass
class Sample:
    kind: str  # summary | analyze | report
    cache: str
    outcome: str  # meta status, "shed", "http<code>" or "connection"
    ms: float
    elapsed_ms: Optional[float]
    end: float


class Mix:
    """The seeded request mix and append batches of one run."""

    def __init__(self, seed: int, store_root: Path) -> None:
        import numpy as np

        from repro.store.reader import ColumnarStore

        self.seed = seed
        store = ColumnarStore(store_root)
        manifest = self.manifest = store.manifest
        edges = np.linspace(manifest.data_start, manifest.data_end, WINDOWS + 1)
        self.keys = [("/v1/summary", None)]
        for system_id in sorted(manifest.systems):
            for w in range(WINDOWS):
                t_min = float(edges[w])
                # The latest window is open-ended ("up to now"), so the
                # failures appended during the run show in its answers.
                t_max = float(edges[w + 1]) if w < WINDOWS - 1 else None
                path = f"/v1/analyze?system={system_id}&t_min={t_min!r}"
                if t_max is not None:
                    path += f"&t_max={t_max!r}"
                self.keys.append((path, (system_id, t_min, t_max)))
        # The popularity order is fixed (not seeded) so every seed sees
        # the same skew over the same keys; seeds vary the draws.
        ranks = np.random.default_rng(0).permutation(len(self.keys))
        weights = 1.0 / (ranks + 1.0) ** ZIPF_S
        self.client_draws = [
            np.random.default_rng([seed, 10 + c]).choice(
                len(self.keys), size=DRAWS, p=weights / weights.sum()
            ).tolist()
            for c in range(CLIENTS)
        ]
        # Appends model live ingestion: new failures of the systems
        # still in production, after each one's last failure in the
        # store.  Each system's first TEMPLATE_ROWS rows supply the
        # nodes, causes and repair times of its new failures.
        live = sorted(
            system_id for system_id, config in manifest.systems.items()
            if any(c.production_end == "now" for c in config.categories)
        )
        self._batches = None
        self.templates = {}
        self.last_start = {}
        for index, shard in enumerate(manifest.shards):
            system_id = shard.stats["system_id"][0]  # shards hold one system
            latest = shard.stats["start_time"][1]
            self.last_start[system_id] = max(self.last_start.get(system_id, latest), latest)
            if system_id in live and system_id not in self.templates:
                self.templates[system_id] = next(
                    store.iter_batches(shards=[index], batch_rows=TEMPLATE_ROWS)
                )

    def path(self, client: int, index: int) -> str:
        return self.keys[self.client_draws[client][index % DRAWS]][0]

    def sample_keys(self):
        return self.keys[::SAMPLE_STRIDE]

    def next_batch(self):
        """The next append batch of :meth:`batches`."""
        if self._batches is None:
            self._batches = self.batches()
        return next(self._batches)

    def batches(self):
        """Endless seeded append batches, starting from the store as opened.

        Each batch is APPEND_ROWS new failures of one live system,
        spaced by seeded gaps of up to APPEND_GAP_S, starting after that
        system's latest failure so far; the data window grows with them.
        """
        import numpy as np

        from repro.records.trace import FailureTrace
        from repro.store.schema import ColumnBatch, records_from_batch

        rng = np.random.default_rng([self.seed, 2])
        systems = sorted(self.templates)
        last_start = dict(self.last_start)
        data_end = self.manifest.data_end
        while True:
            system_id = systems[int(rng.integers(len(systems)))]
            template = self.templates[system_id]
            rows = rng.choice(len(template), APPEND_ROWS, replace=False)
            chunk = template.take(np.sort(rows))
            starts = last_start[system_id] + np.cumsum(
                rng.uniform(1.0, APPEND_GAP_S, APPEND_ROWS)
            )
            columns = {name: chunk[name] for name in chunk.names}
            columns["start_time"] = starts
            columns["end_time"] = starts + (chunk["end_time"] - chunk["start_time"])
            last_start[system_id] = float(starts[-1])
            data_end = max(data_end, float(starts[-1]))
            yield FailureTrace(
                list(records_from_batch(ColumnBatch(columns))),
                systems={system_id: self.manifest.systems[system_id]},
                data_start=self.manifest.data_start,
                data_end=data_end,
            )


def drive(server: Server, mix: Mix, root: Path, seconds: float):
    """Run the closed loop for ``seconds``.

    Returns ``(samples, append times in ms, wall seconds, server error
    messages)``.
    """
    from repro.store.federate import append_trace

    lock = threading.Lock()
    append_lock = threading.Lock()
    samples: List[Sample] = []
    appends: List[float] = []
    crashes: List[BaseException] = []
    server_errors: List[str] = []
    start = time.perf_counter()
    stop_at = start + seconds

    def request(path: str) -> Sample:
        kind = path.split("?")[0].rsplit("/", 1)[1]
        t0 = time.perf_counter()
        try:
            response = server.get(path)
        except OSError:
            status, meta, outcome = 0, {}, "connection"
        else:
            status, meta = response.status, response.meta()
            outcome = meta.get("status", "error")
            if status == 429:
                outcome = "shed"
            elif status != 200:
                outcome = f"http{status}"
                server_errors.append(str(response.body.get("error"))[:300])
        end = time.perf_counter()
        return Sample(
            kind, meta.get("cache", "none"), outcome,
            (end - t0) * 1000.0, meta.get("elapsed_ms"), end,
        )

    def client(c: int) -> None:
        index = 0
        report_due = start + REPORT_AT * seconds if c == REPORT_CLIENT else None
        try:
            while time.perf_counter() < stop_at:
                if report_due is not None and time.perf_counter() >= report_due:
                    path, report_due = REPORT_PATH, None
                else:
                    path = mix.path(c, index)
                    index += 1
                sample = request(path)
                with lock:
                    samples.append(sample)
                    due = len(samples) % APPEND_EVERY == 0
                if due:
                    with append_lock:
                        batch = mix.next_batch()
                        t0 = time.perf_counter()
                        append_trace(root, batch)
                        appends.append((time.perf_counter() - t0) * 1000.0)
        except BaseException as error:  # re-raised by the caller
            crashes.append(error)

    threads = [threading.Thread(target=client, args=(c,)) for c in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if crashes:
        raise BenchError(f"client failed: {crashes[0]!r}")
    wall = max(s.end for s in samples) - start
    return samples, appends, wall, server_errors


def probe_default_report(server: Server, mix: Mix, root: Path) -> Sample:
    """One cold ``/v1/report`` at the default deadline while the other
    client keeps sending its analyze and summary requests.

    An append first makes every cached key cold, as in the mix.
    """
    from repro.store.federate import append_trace

    append_trace(root, mix.next_batch())
    stop = threading.Event()

    def background() -> None:
        index = 0
        while not stop.is_set():
            server.get(mix.path(1, index))
            index += 1

    thread = threading.Thread(target=background)
    thread.start()
    try:
        t0 = time.perf_counter()
        response = server.get("/v1/report")
        end = time.perf_counter()
    finally:
        stop.set()
        thread.join()
    meta = response.meta()
    outcome = meta.get("status", "error") if response.status == 200 else f"http{response.status}"
    return Sample("report", meta.get("cache", "none"), outcome, (end - t0) * 1000.0, meta.get("elapsed_ms"), end)


def _p(values, q):
    return percentile(values, q) if values else 0.0


def check_sample_keys(result: Result, server: Server, mix: Mix, root: Path) -> List[float]:
    """Re-fetch the sample keys; each must equal a local summarize_store.

    Returns the local ``summarize_store`` times (ms).
    """
    from repro.serve.gateway import Query, StoreGateway
    from repro.store.analytics import summarize_store
    from repro.store.reader import ColumnarStore

    generation = StoreGateway(root=root).generation()
    summarize_ms = []
    for path, spec in mix.sample_keys():
        response = server.get(path)
        meta = response.meta()
        if spec is None:
            query = Query.build(kind="summary")
        else:
            system_id, t_min, t_max = spec
            query = Query.build(kind="analyze", systems=[system_id], t_min=t_min, t_max=t_max)
        t0 = time.perf_counter()
        local = summarize_store(ColumnarStore(root), predicate=query.predicate())
        summarize_ms.append((time.perf_counter() - t0) * 1000.0)
        expected = json.dumps(json.loads(json.dumps(local.to_dict())), sort_keys=True)
        served = json.dumps(response.body.get("data"), sort_keys=True)
        result.check(
            response.status == 200 and meta.get("status") == "ok"
            and meta.get("generation") == generation and served == expected,
            f"{path}: served answer differs from summarize_store at generation {generation}",
        )
    return summarize_ms


def run(seed: int, seconds: float, traced: bool) -> Result:
    from repro.serve.gateway import StoreGateway
    from repro.store.reader import ColumnarStore

    result = Result(NAME)
    fixture, build_s = fixture_store()
    if build_s:
        result.note(f"built the fixture store in {build_s:.1f} s (not set-up)")
    result.note(f"clients and server pinned to CPU {pin_to_one_cpu()}")
    work = run_dir(NAME)
    servers: List[Server] = []
    try:
        # Set-up, repeated: copy the fixture, start a server, wait until
        # it answers.  The last server is the one measured.
        setups = []
        for i in range(SETUP_REPEATS):
            for server in servers:
                server.stop()
            t0 = time.perf_counter()
            root = work / f"store-{i}"
            shutil.copytree(fixture, root)
            servers.append(Server(root, work / f"server-{i}.log"))
            setups.append(time.perf_counter() - t0)
        server = servers[-1]
        result.put("setup_s", median(setups), "s", len(setups))
        mix = Mix(seed, root)
        input_bytes = dir_bytes(root)

        before = server.get("/v1/stats").body
        reset_peak_rss(str(server.proc.pid))
        samples, appends, wall, errors = drive(server, mix, root, seconds)
        server_rss = peak_rss_mb(str(server.proc.pid))
        after = server.get("/v1/stats").body
        # Not an operation of the mix: whether it ends partial depends
        # on the host's speed at that moment.
        probe = probe_default_report(server, mix, root) if traced else None
        summarize_ms = check_sample_keys(result, server, mix, root)

        result.attempted = len(samples)
        result.failed = sum(1 for s in samples if s.outcome != "ok")
        for message in sorted(set(errors)):
            result.note(f"server error: {message}")

        everything = [s.ms for s in samples]
        queries = [s for s in samples if s.kind != "report"]
        hit_samples = [s for s in queries if s.cache == "hit"]
        miss_samples = [s for s in queries if s.cache == "miss"]
        hits = [s.ms for s in hit_samples]
        misses = [s.ms for s in miss_samples]
        reports = [s for s in samples if s.kind == "report"]
        partial_reports = sum(1 for s in reports if s.outcome == "partial")
        result.put("latency_ms", median(everything), "ms", len(everything))
        result.put("throughput_per_s", len(samples) / wall, "1/s", len(samples))
        result.put("peak_rss_mb", server_rss, "MB")
        result.note(
            f"serve_hit_p50_ms={_p(hits, 50):.3f} serve_hit_p99_ms={_p(hits, 99):.3f} (n={len(hits)}) "
            f"serve_miss_p50_ms={_p(misses, 50):.3f} serve_miss_p90_ms={_p(misses, 90):.3f} (n={len(misses)}) "
            f"serve_report_p50_ms={_p([s.ms for s in reports], 50):.1f} "
            f"(n={len(reports)}, partial={partial_reports}) "
            f"serve_rps={len(samples) / wall:.2f} append_p50_ms={_p(appends, 50):.3f} (n={len(appends)}) "
            f"serve_peak_rss_mb={server_rss:.1f}"
        )
        result.note(
            f"keys={len(mix.keys)} hit_share={len(hits) / max(1, len(queries)):.3f} "
            f"appends={len(appends)} outcomes={dict(Counter(f'{s.kind}:{s.outcome}' for s in samples))}"
        )

        if traced:
            healthz = []
            for _ in range(HEALTHZ_PROBES):
                t0 = time.perf_counter()
                server.get("/healthz")
                healthz.append((time.perf_counter() - t0) * 1000.0)
            gateway = StoreGateway(root=root)
            generations = []
            for _ in range(GENERATION_PROBES):
                t0 = time.perf_counter()
                gateway.generation()
                generations.append((time.perf_counter() - t0) * 1e6)
            result.put("serve.healthz_p50_ms", median(healthz), "ms", len(healthz))
            result.put(
                "serve.elapsed_hit_p50_ms",
                _p([s.elapsed_ms for s in hit_samples], 50), "ms", len(hit_samples),
            )
            result.put(
                "serve.elapsed_miss_p50_ms",
                _p([s.elapsed_ms for s in miss_samples], 50), "ms", len(miss_samples),
            )
            transport = [s.ms - s.elapsed_ms for s in samples if s.elapsed_ms is not None]
            result.put("serve.transport_p50_ms", _p(transport, 50), "ms", len(transport))
            result.put("serve.cache_hit_ratio", len(hits) / max(1, len(queries)), "ratio")
            result.put("serve.hit_requests", len(hits), "count")
            result.put("serve.miss_requests", len(misses), "count")
            partials = sum(1 for s in samples if s.outcome == "partial")
            result.put("serve.partial_responses", partials, "count")
            for key in ("stale_reads", "degraded_reads"):
                result.put(f"serve.{key}", after["gateway"][key] - before["gateway"][key], "count")
            shed = after["responses"].get("shed", 0) - before["responses"].get("shed", 0)
            result.put("serve.shed", shed, "count")
            result.put("gateway.generation_us", median(generations), "us", len(generations))
            result.put("analytics.summarize_miss_ms", median(summarize_ms), "ms", len(summarize_ms))
            result.put("store.shards_after_run", len(ColumnarStore(root).manifest.shards), "count")
            result.put("serve.p90_ms", percentile(everything, 90), "ms", len(everything))
            result.put("serve.p99_ms", percentile(everything, 99), "ms", len(everything))
            result.put("serve.hit_p50_ms", _p(hits, 50), "ms", len(hits))
            result.put("serve.hit_p99_ms", _p(hits, 99), "ms", len(hits))
            result.put("serve.miss_p50_ms", _p(misses, 50), "ms", len(misses))
            result.put("serve.miss_p90_ms", _p(misses, 90), "ms", len(misses))
            result.put("serve.report_p50_ms", _p([s.ms for s in reports], 50), "ms", len(reports))
            result.put("serve.report_requests", len(reports), "count")
            result.put("serve.report_partial", partial_reports, "count")
            result.put("serve.report_default_ms", probe.ms, "ms")
            result.put("serve.report_default_partial", int(probe.outcome == "partial"), "count")
            result.note(
                f"default-deadline /v1/report probe: {probe.outcome} in {probe.ms:.1f} ms "
                f"(cache {probe.cache})"
            )
            result.put("serve.append_p50_ms", _p(appends, 50), "ms", len(appends))
            result.put("serve.appends", len(appends), "count")
            result.put("serve.keys", len(mix.keys), "count")
            result.put("input.records", mix.manifest.row_count, "count")
            result.put("input.store_bytes", input_bytes, "B")
            result.put("input.shards", len(mix.manifest.shards), "count")
            # `repro serve` has no tracing switch, so the program's span
            # cost cannot be measured on this workload.
            result.put("trace_overhead_pct", 0.0, "%")
            result.note("trace_overhead_pct: not measurable, `repro serve` has no tracing switch")
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)
    return result
