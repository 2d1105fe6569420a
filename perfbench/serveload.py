"""The online workload: ``serve-router``.

The program runs as ``python -m repro serve --workers 2``: a router
process plus two spawned replicas that map the published RPROBIN1
sidecar.  This process publishes a synthetic serving-scale model,
launches the server, and acts as one single-threaded open-loop load
generator: requests go out on a fixed schedule at each rate of a
ladder, at most ``os.cpu_count()`` connections are in flight, and each
request is timed from the moment it was due.  Every body is distinct,
so the response cache never answers for the predictor.

The traced run reads the spans the program already writes under
``serve --trace-dir`` and the router's ``/statz`` counters; nothing in
the program is changed.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import arith
import envinfo
from repro.core.predict import predict_view
from repro.core.rules import TranslationRule
from repro.core.table import TranslationTable
from repro.data.dataset import Side
from repro.obs.trace import read_spans
from repro.serve import CompiledPredictor, ModelArtifact, ModelRegistry, map_artifact

MODEL_NAME = "bench"
N_RULES = 2048
N_ITEMS = 384
DENSITY = 0.2
ROWS_PER_REQUEST = 32
WORKERS = 2

#: Offered rates (requests/s).  The reference rate sits well below
#: saturation; the latency numbers are taken there.
LADDER = (20, 40, 80, 160)
REFERENCE_RATE = 40
#: p99 limit of a passing ladder step; a failed request misses it.
P99_LIMIT_MS = 100.0
#: Share of ``--seconds`` spent at the reference rate; the rest is split
#: over the other ladder steps.
REFERENCE_SHARE = 0.6
#: Percentile of the bounded end-to-end latency.  Other tenants of a
#: shared machine (CPU steal) stretch every request that crosses three
#: processes, and the median moves with them; the lower decile moves
#: least and still carries every per-request cost of the program.
STEADY_PERCENTILE = 10.0
#: Every n-th response is checked against the per-rule loop oracle.
ORACLE_EVERY = 16
SETUP_REPEATS = 3
REQUEST_TIMEOUT_S = 10.0
START_TIMEOUT_S = 90.0
STOP_TIMEOUT_S = 20.0


def synthetic_table(rng: np.random.Generator) -> TranslationTable:
    """A random serving-scale table: antecedents of 1-4, consequents of 1-3 items."""
    rules: set[tuple] = set()
    while len(rules) < N_RULES:
        lhs = tuple(sorted(rng.choice(N_ITEMS, size=int(rng.integers(1, 5)), replace=False)))
        rhs = tuple(sorted(rng.choice(N_ITEMS, size=int(rng.integers(1, 4)), replace=False)))
        rules.add((lhs, rhs, ("->", "<-", "<->")[int(rng.integers(0, 3))]))
    return TranslationTable(
        TranslationRule(tuple(map(int, lhs)), tuple(map(int, rhs)), direction)
        for lhs, rhs, direction in sorted(rules)
    )


def make_artifact(table: TranslationTable) -> ModelArtifact:
    names = tuple(f"i{index}" for index in range(N_ITEMS))
    return ModelArtifact(MODEL_NAME, table, names, names)


def make_rows(rng: np.random.Generator, n_requests: int) -> list[list[list[int]]]:
    """Distinct request row sets (item-index lists over the left view)."""
    requests = []
    for __ in range(n_requests):
        matrix = rng.random((ROWS_PER_REQUEST, N_ITEMS)) < DENSITY
        requests.append([np.flatnonzero(row).tolist() for row in matrix])
    return requests


def request_body(rows: list[list[int]]) -> bytes:
    return json.dumps({"model": MODEL_NAME, "target": "R", "rows": rows}).encode()


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


async def http(port: int, method: str, path: str, body: bytes = b""):
    """One ``Connection: close`` exchange; returns ``(status, body)``."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n".encode()
            + body
        )
        await writer.drain()
        raw = await reader.read(-1)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    head, sep, payload = raw.partition(b"\r\n\r\n")
    if not sep:
        raise ConnectionError("torn response")
    return int(head.split()[1]), payload


def http_request(port: int, method: str, path: str, body: bytes = b""):
    """Blocking form of :func:`http` for set-up and ``/statz``."""
    return asyncio.run(asyncio.wait_for(http(port, method, path, body), REQUEST_TIMEOUT_S))


def _proc_stat(pid: str) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name, or None."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None


def _session_members(group: int) -> list[int]:
    """Live (non-zombie) processes of a process group."""
    members = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            fields = _proc_stat(entry.name)
            if fields and int(fields[2]) == group and fields[0] != "Z":
                members.append(int(entry.name))
    return members


class ServerProcess:
    """``python -m repro serve --workers 2`` in its own session."""

    def __init__(self, root: Path, registry: Path, log: Path, trace_dir: Path | None = None):
        self.root = root
        self.registry = registry
        self.log = log
        self.trace_dir = trace_dir
        self.port = _free_port()
        self.process: subprocess.Popen | None = None

    def start(self) -> None:
        command = [
            sys.executable, "-m", "repro", "serve",
            "--registry", str(self.registry),
            "--port", str(self.port),
            "--workers", str(WORKERS),
        ]
        if self.trace_dir is not None:
            command += ["--trace-dir", str(self.trace_dir)]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        with open(self.log, "ab") as log:
            self.process = subprocess.Popen(
                command, cwd=self.root, env=env, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, start_new_session=True,
            )

    def wait_first_ok(self, body: bytes) -> None:
        """Poll ``/predict`` until the first 200 (the cold start's end)."""
        deadline = time.perf_counter() + START_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited early:\n{self.log_tail()}")
            try:
                status, __ = http_request(self.port, "POST", "/predict", body)
            except (OSError, asyncio.TimeoutError):
                time.sleep(0.01)
                continue
            if status == 200:
                return
            time.sleep(0.01)
        raise RuntimeError(f"server gave no 200 in {START_TIMEOUT_S}s:\n{self.log_tail()}")

    def pids(self) -> list[int]:
        """The router and every process it spawned (its session)."""
        return _session_members(self.process.pid)

    def rss_mb(self) -> float:
        """Summed resident set size of the router and its children (MB = 1e6 bytes)."""
        total_kb = 0
        for pid in self.pids():
            try:
                for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                    if line.startswith("VmRSS:"):
                        total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb * 1024 / 1e6

    def thread_env(self) -> dict:
        """BLAS thread variables as the server processes see them."""
        seen = {}
        for pid in self.pids():
            try:
                raw = Path(f"/proc/{pid}/environ").read_bytes().split(b"\0")
            except OSError:
                continue
            env = dict(item.decode(errors="replace").split("=", 1) for item in raw if b"=" in item)
            seen[pid] = {name: env.get(name) for name in envinfo.THREAD_VARIABLES}
        return seen

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL what is left; wait for all of it."""
        if self.process is None:
            return
        group = self.process.pid
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        deadline = time.perf_counter() + STOP_TIMEOUT_S
        while _session_members(group):
            if time.perf_counter() > deadline:
                raise RuntimeError(f"server processes of session {group} did not exit")
            try:
                os.killpg(group, signal.SIGKILL)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        self.process = None

    def log_tail(self) -> str:
        try:
            return self.log.read_text(errors="replace")[-2000:]
        except OSError:
            return ""


class Step:
    """One ladder step's per-request records."""

    def __init__(self, rate: float, records: list[tuple]) -> None:
        self.rate = rate
        # (due, woke, done, ok, payload-or-None), due order
        self.records = records

    @property
    def sent(self) -> int:
        return len(self.records)

    @property
    def ok(self) -> int:
        return sum(1 for record in self.records if record[3])

    @property
    def failed(self) -> int:
        return self.sent - self.ok

    def latencies_ms(self) -> list[float]:
        """Due-time latencies; a failed request counts as infinitely late."""
        due, __, done, ok, __ = zip(*self.records)
        return [value * 1e3 for value in arith.due_latencies(due, done, ok)]

    def late_ms(self) -> list[float]:
        """How late the generator itself woke for each request."""
        return [(record[1] - record[0]) * 1e3 for record in self.records]

    def backlog_growth_ms(self) -> float:
        """Median latency of the last quarter minus that of the first quarter."""
        latencies = self.latencies_ms()
        quarter = max(1, len(latencies) // 4)
        return statistics.median(latencies[-quarter:]) - statistics.median(latencies[:quarter])

    def summary(self) -> dict:
        latencies = self.latencies_ms()
        tail_q = arith.tail_percentile(len(latencies)) or 50.0
        p99 = arith.percentile(latencies, 99.0)
        growth = self.backlog_growth_ms()
        return {
            "rate": self.rate,
            "steady_ms": arith.percentile(latencies, STEADY_PERCENTILE),
            "sent": self.sent,
            "ok": self.ok,
            "failed": self.failed,
            "p50_ms": arith.percentile(latencies, 50.0),
            "p98_ms": arith.percentile(latencies, 98.0),
            "p99_ms": p99,
            "p99_supported": arith.supports_percentile(len(latencies), 99.0),
            "tail_q": tail_q,
            "tail_ms": arith.percentile(latencies, tail_q),
            "late_p99_ms": arith.percentile(self.late_ms(), 99.0),
            "backlog_growth_ms": growth,
            "passes": p99 <= P99_LIMIT_MS and growth <= P99_LIMIT_MS / 2,
        }


async def _open_loop(port: int, bodies: list[bytes], rate: float, keep: set[int]) -> list[tuple]:
    loop = asyncio.get_running_loop()
    slots = asyncio.Semaphore(os.cpu_count() or 1)
    start = loop.time() + 0.05

    async def one(index: int, body: bytes) -> tuple:
        due = start + index / rate
        await asyncio.sleep(max(0.0, due - loop.time()))
        woke = loop.time()
        payload = None
        async with slots:
            try:
                status, payload = await asyncio.wait_for(
                    http(port, "POST", "/predict", body), REQUEST_TIMEOUT_S
                )
                ok = status == 200
            except (OSError, asyncio.TimeoutError, ValueError, IndexError):
                ok = False
            done = loop.time()
        return due, woke, done, ok, payload if index in keep else None

    tasks = [asyncio.create_task(one(index, body)) for index, body in enumerate(bodies)]
    return list(await asyncio.gather(*tasks))


def run_step(port: int, rng: np.random.Generator, rate: float, seconds: float, oracle) -> Step:
    """Offer ``rate`` requests/s for ``seconds`` and check sampled answers."""
    n_requests = max(1, int(round(rate * seconds)))
    rows = make_rows(rng, n_requests)
    bodies = [request_body(request) for request in rows]
    keep = set(range(0, n_requests, ORACLE_EVERY))
    records = asyncio.run(_open_loop(port, bodies, rate, keep))
    for index in sorted(keep):
        if records[index][3]:
            oracle.check(rows[index], records[index][4])
    return Step(rate, records)


class Oracle:
    """Compares served predictions with ``predict_view(engine="loop")``."""

    def __init__(self, table: TranslationTable) -> None:
        self.table = table
        self.checked = 0
        self.failures: list[str] = []

    def check(self, rows: list[list[int]], payload: bytes) -> None:
        self.checked += 1
        matrix = np.zeros((len(rows), N_ITEMS), dtype=bool)
        for index, row in enumerate(rows):
            matrix[index, row] = True
        expected = predict_view(matrix, self.table, Side.RIGHT, N_ITEMS, engine="loop")
        try:
            served = json.loads(payload)["predictions"]
        except (ValueError, KeyError, TypeError) as error:
            self.failures.append(f"undecodable /predict response: {error}")
            return
        wanted = [np.flatnonzero(row).tolist() for row in expected]
        if served != wanted:
            self.failures.append("served predictions differ from the loop oracle")


def _setup(root: Path, workdir: Path, artifact: ModelArtifact, tag: str, trace_dir=None):
    """Publish, spawn, first 200: returns ``(server, seconds)``."""
    started = time.perf_counter()
    registry_dir = workdir / f"registry-{tag}"
    ModelRegistry(registry_dir).publish(artifact)
    server = ServerProcess(root, registry_dir, workdir / f"server-{tag}.log", trace_dir)
    try:
        server.start()
        server.wait_first_ok(request_body([[0, 1, 2]]))
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started


def _statz(port: int) -> dict:
    status, payload = http_request(port, "GET", "/statz")
    if status != 200:
        raise RuntimeError(f"/statz answered {status}")
    return json.loads(payload)


def run_untraced(root: Path, seed: int, seconds: float, workdir: Path) -> dict:
    """End-to-end run: set-up three times, the reference rate, the other rates."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    table = synthetic_table(rng)
    artifact = make_artifact(table)
    oracle = Oracle(table)
    setup = []
    server = None
    try:
        for repeat in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            server, elapsed = _setup(root, workdir, artifact, f"s{repeat}")
            setup.append(elapsed)
        reference_s = seconds * REFERENCE_SHARE
        step_s = (seconds - reference_s) / (len(LADDER) - 1)
        steps = {REFERENCE_RATE: run_step(server.port, rng, REFERENCE_RATE, reference_s, oracle)}
        # After the reference step, so the response cache holds the same
        # number of entries on every run.
        rss = server.rss_mb()
        for rate in LADDER:
            if rate == REFERENCE_RATE:
                continue
            if rate > REFERENCE_RATE and not all(
                steps[lower].summary()["passes"] for lower in steps if lower < rate
            ):
                break  # a lower rate already missed the limit
            steps[rate] = run_step(server.port, rng, rate, step_s, oracle)
        thread_env = server.thread_env()
    finally:
        if server is not None:
            server.stop()
    summaries = [steps[rate].summary() for rate in sorted(steps)]
    reference = steps[REFERENCE_RATE].summary()
    passing = [s["rate"] for s in summaries if s["passes"]]
    attempted = sum(s["sent"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    return {
        "metrics": {
            "latency_ms": (reference["steady_ms"], "ms"),
            "peak_memory_mb": (rss, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        },
        "named": {
            "latency_p50_ms": (reference["p50_ms"], "ms"),
            "latency_p99_ms": (reference["p99_ms"], "ms"),
            "max_rate_rps": (max(passing) if passing else 0, "req/s"),
            "error_rate": (failed / attempted, "fraction"),
            "serve_rss_mb": (rss, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        },
        "report": {
            "latency_p10_ms": reference["steady_ms"],
            "p99_supported": reference["p99_supported"],
            "latency_tail_q": reference["tail_q"],
            "latency_tail_ms": reference["tail_ms"],
            "setup_samples_s": setup,
            "steps": summaries,
            "server_thread_env": thread_env,
            "oracle_checked": oracle.checked,
        },
        "attempted": attempted,
        "failed": failed,
        "failures": oracle.failures,
    }


def cold_start_samples(artifact_dir: Path, repeats: int = 5) -> list[float]:
    """``map_artifact`` plus ``CompiledPredictor.from_mapped``, in this process."""
    registry = ModelRegistry(artifact_dir)
    sidecar = registry.sidecar_path(MODEL_NAME, registry.latest_version(MODEL_NAME))
    samples = []
    for __ in range(repeats):
        started = time.perf_counter()
        mapped = map_artifact(sidecar)
        predictor = CompiledPredictor.from_mapped(mapped, Side.RIGHT)
        samples.append(time.perf_counter() - started)
        del predictor
        with mapped:
            pass
    return samples


def _read_all_spans(trace_dir: Path) -> list[dict]:
    records = []
    for path in sorted(trace_dir.glob("spans-*.jsonl")):
        records.extend(read_spans(str(path)))
    return records


def _model_stats(statz: dict) -> dict:
    return statz.get("models", {}).get(MODEL_NAME, {})


def run_traced(root: Path, seed: int, seconds: float, workdir: Path) -> dict:
    """Reference rate untraced, then under ``--trace-dir``; spans give the layers."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    table = synthetic_table(rng)
    artifact = make_artifact(table)
    oracle = Oracle(table)
    half = seconds / 2
    trace_dir = workdir / "spans"
    server = None
    try:
        server, __ = _setup(root, workdir, artifact, "plain")
        plain = run_step(server.port, rng, REFERENCE_RATE, half, oracle).summary()
        server.stop()
        server, __ = _setup(root, workdir, artifact, "traced", trace_dir)
        before = _statz(server.port)
        step_started = time.time()  # spans carry wall-clock times
        traced_step = run_step(server.port, rng, REFERENCE_RATE, half, oracle)
        after = _statz(server.port)
    finally:
        if server is not None:
            server.stop()
    traced = traced_step.summary()
    cold = cold_start_samples(workdir / "registry-traced")
    layers = arith.serve_span_layers(
        [span for span in _read_all_spans(trace_dir) if span["start_time"] >= step_started]
    )
    stats_before, stats_after = _model_stats(before), _model_stats(after)
    requests = stats_after.get("requests", 0) - stats_before.get("requests", 0)
    hits = stats_after.get("cache_hits", 0) - stats_before.get("cache_hits", 0)
    router_before, router_after = before.get("router", {}), after.get("router", {})
    units = {"trace.requests": "count", "batcher.rows_per_flush": "rows/flush",
             "batcher.requests_per_flush": "requests/flush"}
    metrics = {
        "binfmt.cold_start_s": (statistics.median(cold), "s"),
        **{key: (value, units.get(key, "ms")) for key, value in layers.items()},
        "router.rerouted": (router_after.get("rerouted", 0) - router_before.get("rerouted", 0), "count"),
        "router.rejected": (router_after.get("rejected", 0) - router_before.get("rejected", 0), "count"),
        "cache.hit_ratio": (hits / requests if requests else 0.0, "ratio"),
        "loadgen.sent": (traced["sent"], "count"),
        "loadgen.ok": (traced["ok"], "count"),
        "loadgen.failed": (traced["failed"], "count"),
        "loadgen.late_p99_ms": (traced["late_p99_ms"], "ms"),
        "serve.latency_p50_ms": (plain["p50_ms"], "ms"),
        "serve.latency_p98_ms": (plain["p98_ms"], "ms"),
        "trace.overhead_ms": (traced["steady_ms"] - plain["steady_ms"], "ms"),
    }
    return {
        "layers": metrics,
        "report": {"untraced_step": plain, "traced_step": traced, "cold_start_s": cold},
        "attempted": plain["sent"] + traced["sent"],
        "failed": plain["failed"] + traced["failed"],
        "failures": oracle.failures,
    }
