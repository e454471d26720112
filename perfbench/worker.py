"""One benchmark workload, run in a fresh interpreter.

``run.py`` starts this script once per set-up probe (``--mode setup``)
and once for the measured run (``--mode run``).  It drives the program
only through its public surfaces: ``repro.harness.run_experiment`` for
sweeps, ``python -m repro serve`` plus ``repro.service.AlignmentService``
for the service.  The last line on standard output is one JSON object
with ``setup_s`` and, in run mode, the measured metrics and check
counts.

Untraced runs (``--trace 0``) measure the end-to-end metrics.  Traced
runs (``--trace 1``) time the benchmark's own calls into each layer's
public functions with :class:`spans.SpanRecorder`, read the stage timers
and counters the program already records, and compare every replayed
result with the program's own.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import ExitStack, nullcontext
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(1, str(ROOT / "src"))

from metrics import (  # noqa: E402
    highest_supported_percentile,
    idle_share,
    open_loop_summary,
)
from spans import SpanRecorder  # noqa: E402

from repro.algorithms import get_algorithm  # noqa: E402
from repro.assignment import extract_alignment  # noqa: E402
from repro.cache import ArtifactCache, artifact_cache, caching  # noqa: E402
from repro.graphs.generators import powerlaw_cluster_graph  # noqa: E402
from repro.harness import (  # noqa: E402
    ExperimentConfig,
    cell_seed,
    run_cell,
    run_experiment,
)
from repro.measures import evaluate_all  # noqa: E402
from repro.noise import GraphPair, make_pair  # noqa: E402
from repro.observability import counter_totals, stage_rollup  # noqa: E402
from repro.service import (  # noqa: E402
    AlignmentRequest,
    AlignmentService,
    ServiceUnavailable,
    read_health,
)
from repro.sketch import sketching  # noqa: E402

DATASET = "powerlaw-cluster"
WORK_DIR = ROOT / ".perfbench" / "work"
TRACE_DIR = ROOT / ".perfbench" / "traces"
MEASURES = ("accuracy", "s3", "mnc")


def derive_seed(seed: int, *parts: object) -> int:
    """A 31-bit seed for one named input, stable across processes."""
    return random.Random(f"{seed}|" + "|".join(map(str, parts))).getrandbits(31)


def rss_mb() -> Dict[str, float]:
    """Peak resident set of this process and of its reaped children."""
    # ru_maxrss is KiB on Linux.
    return {"self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "children": resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss / 1024}


def peak_rss_mb() -> float:
    """Largest resident set of this process and of its reaped children."""
    return max(rss_mb().values())


def measures_ok(measures: Dict[str, float], expected) -> bool:
    """Every expected measure is present, finite, and inside [0, 1]."""
    for name in expected:
        value = measures.get(name)
        if value is None or not math.isfinite(value) or not 0 <= value <= 1:
            return False
    return True


def maybe_span(tracer: Optional[SpanRecorder], name: str, cell: str):
    """A span when the run is traced, else a no-op context."""
    return tracer.span(name, cell=cell) if tracer is not None else nullcontext()


def spectral_wall(payload) -> float:
    """Wall time of every ``spectral`` span in a program trace payload."""
    total = 0.0
    stack = list((payload or {}).get("spans", []))
    while stack:
        entry = stack.pop()
        if entry.get("stage") == "spectral":
            total += float(entry.get("wall_time", 0.0))
        stack.extend(entry.get("children", []))
    return total


def sum_counters(payloads) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for payload in payloads:
        for name, value in counter_totals(payload).items():
            totals[name] = totals.get(name, 0) + value
    return totals


def counter_metrics(counters: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics read from the program's own trace counters."""
    hits = counters.get("cache_hits", 0)
    misses = counters.get("cache_misses", 0)
    return {
        "assignment.jv_augmenting_steps": counters.get("jv_augmenting_steps", 0),
        "assignment.densified": counters.get("assignment_densified", 0),
        "spectral.eigensolver_calls": counters.get("eigensolver_calls", 0),
        "spectral.sketched_kernels": counters.get("sketched_kernels", 0),
        "sketch.dense_bypass": counters.get("dense_bypass", 0),
        "ot.sinkhorn_iterations": counters.get("sinkhorn_iterations", 0),
        "ot.gw_outer_iterations": counters.get("gw_outer_iterations", 0),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.misses": misses,
    }


def layer_times(totals: Dict[str, float]) -> Dict[str, float]:
    """Roll ``<layer>.<stage>.<algorithm>`` span totals up per layer."""
    out: Dict[str, float] = {}
    for name, seconds in totals.items():
        for prefix, metric in (("algorithms.similarity.", "algorithms.similarity_s"),
                               ("assignment.extract.", "assignment.extract_s")):
            if name.startswith(prefix):
                algorithm = name[len(prefix):]
                out[metric] = out.get(metric, 0.0) + seconds
                out[f"{metric}.{algorithm}"] = (
                    out.get(f"{metric}.{algorithm}", 0.0) + seconds)
    for name, metric in (("noise.make_pair", "noise.make_pair_s"),
                         ("measures.evaluate", "measures.evaluate_s")):
        if name in totals:
            out[metric] = totals[name]
    return out


class SweepWorkload:
    """``run_experiment`` sweeps, each over its own seeded base graph.

    Set-up builds the base graph of every sweep a run may make and runs
    one warm-up sweep on a small graph, so lazy imports and first-call
    costs land in ``setup_s`` rather than in the first timed sweep.
    """

    def __init__(self, name: str, params: dict, model: dict,
                 noise_type: str, seed: int, warmup_n: int):
        self.name = name
        self.params = params
        self.model = model
        self.noise_type = noise_type
        self.seed = seed
        self.warmup_n = warmup_n
        self.graphs = []

    def base_graph(self, n: int, *parts: object):
        return powerlaw_cluster_graph(
            n, int(self.model["m"]), float(self.model["p"]),
            seed=derive_seed(self.seed, *parts))

    def setup(self, tracer: Optional[SpanRecorder]) -> None:
        self.graphs = [self.base_graph(int(self.params["n"]), "graph", index)
                       for index in range(int(self.params["max_sweeps"]))]
        run_experiment(self.config(0), {
            DATASET: self.base_graph(self.warmup_n, "warm-up")})

    def close(self) -> None:
        pass

    def config(self, index: int, trace: bool = False) -> ExperimentConfig:
        params = self.params
        return ExperimentConfig(
            name=f"{self.name}-{index}",
            algorithms=tuple(params["algorithms"]),
            assignment=params["assignment"],
            noise_types=(self.noise_type,),
            noise_levels=tuple(params["noise_levels"]),
            repetitions=int(params["repetitions"]),
            measures=MEASURES,
            seed=derive_seed(self.seed, "sweep", index),
            cache=bool(params["cache"]),
            workers=int(params["workers"]),
            sketch=bool(params["sketch"]),
            trace=trace,
        )

    def sweep(self, index: int, trace: bool = False):
        start = time.perf_counter()
        table = run_experiment(self.config(index, trace),
                               {DATASET: self.graphs[index]})
        return table.records, time.perf_counter() - start

    def cell_ok(self, record) -> bool:
        return not record.failed and measures_ok(record.measures, MEASURES)

    def run(self, seconds: float) -> dict:
        """Back-to-back sweeps for about ``seconds``.

        Another sweep starts while it would end no later than half a
        sweep past ``seconds``.  Throughput is the median over sweeps,
        so one sweep slowed by a neighbour on the machine does not move
        it.
        """
        records, walls, rates, cell_walls = [], [], [], []
        while len(walls) < len(self.graphs):
            batch, wall = self.sweep(len(walls))
            records.extend(batch)
            walls.append(wall)
            rates.append(len(batch) / wall)
            # A cell's result reaches the caller when its sweep returns.
            cell_walls.extend([wall] * len(batch))
            if sum(walls) + 0.5 * statistics.fmean(walls) > seconds:
                break
        ok = [self.cell_ok(r) for r in records]
        latency = [wall for wall, good in zip(cell_walls, ok) if good]
        limit = float(self.params["latency_limit_s"])
        failed = ok.count(False)
        metrics = {
            "cells_per_s": statistics.median(rates),
            "accuracy_mean": statistics.fmean(
                r.measures["accuracy"] if good else 0.0
                for r, good in zip(records, ok)),
            "success_share": 1.0 - failed / len(records),
            "peak_rss_mb": peak_rss_mb(),
            "within_limit_share": sum(lat <= limit for lat in latency)
            / len(records),
        }
        if latency:
            metrics["latency_p50_s"] = float(np.percentile(latency, 50))
            metrics["latency_p90_s"] = float(np.percentile(latency, 90))
        return {"attempted": len(records), "failed": failed,
                "metrics": metrics,
                "report": {"sweeps": len(walls), "cells": len(records),
                           "latency_samples": len(latency),
                           "supported_percentile":
                               highest_supported_percentile(len(latency)),
                           "sweep_walls_s": walls, "rss_mb": rss_mb()}}

    def run_traced(self, tracer: SpanRecorder) -> dict:
        """Untraced, traced and untraced sweeps of the same cells, then a
        per-layer replay.

        The tracing overhead compares the traced sweep with the mean of
        the untraced ones around it, so warm-up inside the process does
        not count as overhead.

        The replay rebuilds every cell of the traced sweep from the
        layers' public functions — noise, similarity, assignment,
        measures — under the same per-instance artifact cache and sketch
        scope the harness opens, and checks that each cell's measures
        equal the sweep's.
        """
        before, before_wall = self.sweep(0)
        with tracer.span("harness.run_experiment", cell="sweep-0"):
            records, wall = self.sweep(0, trace=True)
        after, after_wall = self.sweep(0)
        plain_wall = (before_wall + after_wall) / 2
        by_cell = {(r.noise_level, r.repetition, r.algorithm): r
                   for r in records}
        mismatched = sum(
            a.measures != by_cell[(a.noise_level, a.repetition,
                                   a.algorithm)].measures
            for a in before + after)
        config = self.config(0)
        policy = config.sketch_policy()
        for level in config.noise_levels:
            for rep in range(config.repetitions):
                seed = cell_seed(config.seed, DATASET, self.noise_type,
                                 level, rep)
                instance = f"{level}/{rep}"
                with tracer.span("instance", cell=instance), \
                        ExitStack() as scope:
                    with tracer.span("noise.make_pair"):
                        pair = make_pair(self.graphs[0], self.noise_type,
                                         level, seed=seed)
                    if config.cache:
                        scope.enter_context(caching(True))
                        scope.enter_context(artifact_cache(ArtifactCache()))
                    if policy is not None:
                        scope.enter_context(sketching(policy))
                    for name in config.algorithms:
                        with tracer.span("cell", cell=f"{instance}/{name}"):
                            values = replay_cell(tracer, name, pair, seed,
                                                 config.assignment)
                        record = by_cell[(level, rep, name)]
                        mismatched += any(
                            float(values[m]) != record.measures.get(m)
                            for m in config.measures)
        failed = sum(not self.cell_ok(r) for r in records) + mismatched
        counters = sum_counters(r.trace for r in records)
        busy = sum(stage["wall_time"] for r in records
                   for stage in stage_rollup(r.trace).values())
        metrics = counter_metrics(counters)
        metrics.update(layer_times(tracer.self_time_by_name()))
        metrics.update({
            "spectral.eigenpairs_s": sum(spectral_wall(r.trace)
                                         for r in records),
            "harness.busy_s": busy,
            "harness.idle_share": idle_share(busy, config.workers, wall),
            "trace.overhead_share": wall / plain_wall - 1.0,
        })
        return {"attempted": len(records), "failed": failed,
                "metrics": metrics,
                "report": {"cells": len(records), "mismatched": mismatched,
                           "untraced_wall_s": plain_wall,
                           "traced_wall_s": wall,
                           "workers": config.workers}}


def replay_cell(tracer: SpanRecorder, name: str, pair: GraphPair,
                seed: int, assignment: str) -> Dict[str, float]:
    """One cell through the algorithm, assignment and measures layers."""
    algorithm = get_algorithm(name)
    with tracer.span(f"algorithms.similarity.{name}"):
        similarity = algorithm.similarity(pair.source, pair.target,
                                          seed=seed)
    with tracer.span(f"assignment.extract.{name}"):
        mapping = extract_alignment(similarity, assignment)
    with tracer.span("measures.evaluate"):
        return evaluate_all(pair.source, pair.target, mapping,
                            pair.ground_truth)


class ServiceWorkload:
    """Open-loop traffic against ``python -m repro serve`` at its defaults.

    Arrival times are a seeded Poisson process conditioned on its count:
    ``rate * seconds`` arrivals placed uniformly at random in the window,
    so every run of a given length offers the same load.
    """

    def __init__(self, name: str, params: dict, model: dict,
                 noise_type: str, seed: int, seconds: float, env: dict):
        self.name = name
        self.params = params
        self.model = model
        self.noise_type = noise_type
        self.seed = seed
        self.seconds = float(seconds)
        self.env = env
        self.requests: List[AlignmentRequest] = []
        self.tiers: List[str] = []
        self.keys: List[str] = []
        self.by_key: Dict[str, int] = {}
        self.schedule: List[tuple] = []
        self.server = None
        self.client = None
        self.service_dir: Optional[Path] = None
        self._dirs: List[Path] = []

    # -- set-up ------------------------------------------------------------

    def setup(self, tracer: Optional[SpanRecorder]) -> None:
        params = self.params
        rng = random.Random(derive_seed(self.seed, "service"))
        # Base graphs whose sizes are spread evenly over each tier's
        # range; new requests of a tier take them in turn.
        pools = {}
        for tier in ("cheap", "expensive"):
            low, high = params[tier]["n"]
            size = int(params[tier]["graphs"])
            pools[tier] = [
                powerlaw_cluster_graph(
                    low + (high - low) * k // max(1, size - 1),
                    int(self.model["m"]), float(self.model["p"]),
                    seed=derive_seed(self.seed, tier, k))
                for k in range(size)]
        count = max(1, round(float(params["rate_per_s"]) * self.seconds))
        offsets = sorted(rng.uniform(0.0, self.seconds) for _ in range(count))
        # The mix is stratified, not drawn: every ``resubmit_every``-th
        # send repeats an earlier request, every ``every``-th new request
        # is expensive, and algorithms take turns within their tier.  So
        # the seed moves the inputs and the timing, not the shares.
        made = {"cheap": 0, "expensive": 0}
        every = int(params["expensive"]["every"])
        for position, offset in enumerate(offsets):
            if self.requests and (position + 1) % params["resubmit_every"] == 0:
                index = rng.randrange(len(self.requests))
            else:
                tier = ("expensive" if len(self.requests) % every == every - 1
                        else "cheap")
                algorithms = params[tier]["algorithms"]
                algorithm = algorithms[made[tier] % len(algorithms)]
                graph = pools[tier][made[tier] % len(pools[tier])]
                made[tier] += 1
                request_seed = rng.getrandbits(31)
                index = len(self.requests)
                with maybe_span(tracer, "noise.make_pair", f"request-{index}"):
                    pair = make_pair(graph, self.noise_type,
                                     float(params["noise_level"]),
                                     seed=request_seed)
                self.requests.append(AlignmentRequest(
                    source=pair.source, target=pair.target,
                    algorithm=algorithm, seed=request_seed,
                    ground_truth=pair.ground_truth,
                    measures=tuple(params["measures"])))
                self.tiers.append(tier)
            self.schedule.append((offset, index))
        self.keys = [request.key() for request in self.requests]
        self.by_key = {key: index for index, key in enumerate(self.keys)}
        self.start_server()

    def start_server(self) -> None:
        """A fresh service directory and server, up to its first heartbeat."""
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        self.service_dir = WORK_DIR / (
            f"{self.name}-{os.getpid()}-{len(self._dirs)}")
        shutil.rmtree(self.service_dir, ignore_errors=True)
        self._dirs.append(self.service_dir)
        # The client opens (and recovers) the empty directory before the
        # server starts, so its recovery pass never races the server.
        self.client = AlignmentService(self.service_dir)
        log = open(self.service_dir / "server.log", "wb")
        try:
            self.server = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--service-dir", str(self.service_dir)],
                cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT)
        finally:
            log.close()
        limit = time.monotonic() + float(self.params["server_start_timeout_s"])
        while True:
            health = read_health(self.service_dir)
            if health is not None and health.get("pid") == self.server.pid:
                return
            if self.server.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.server.returncode} before "
                    f"its first heartbeat; see {self.service_dir}/server.log")
            if time.monotonic() > limit:
                raise RuntimeError("server published no heartbeat in time")
            time.sleep(0.01)

    def stop_server(self) -> None:
        """SIGTERM (graceful drain), then wait; SIGKILL if it hangs."""
        if self.server is not None and self.server.poll() is None:
            self.server.send_signal(signal.SIGTERM)
            try:
                self.server.wait(timeout=float(self.params["drain_timeout_s"]))
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
        self.server = None
        if self.client is not None:
            self.client.close()
            self.client = None

    def close(self) -> None:
        self.stop_server()
        for path in self._dirs:
            shutil.rmtree(path, ignore_errors=True)

    # -- the open loop -----------------------------------------------------

    def open_loop(self, tracer: Optional[SpanRecorder]) -> dict:
        """Send the schedule, poll to terminal states, fetch every result."""
        client = self.client
        poll = float(self.params["poll_interval_s"])
        start = time.time() + poll
        hard_stop = start + self.seconds + float(self.params["drain_timeout_s"])
        log: List[dict] = []
        outstanding: Dict[str, List[dict]] = {}
        records: Dict[str, object] = {}
        timings = {"submit": [], "result": []}
        submitted = set()
        backlog_max = 0
        next_send = 0
        last_poll = 0.0

        def finish(entry, ticket, floor):
            entry["state"] = ticket.state
            entry["completed"] = max(ticket.updated_at, floor)
            if ticket.state in ("done", "failed"):
                t0 = time.perf_counter()
                with maybe_span(tracer, "service.result", entry["cell"]):
                    entry["record"] = client.result_sync(entry["key"])
                timings["result"].append(time.perf_counter() - t0)
                records[entry["key"]] = entry["record"]

        while next_send < len(self.schedule) or outstanding:
            now = time.time()
            if now > hard_stop:
                for entries in outstanding.values():
                    for entry in entries:
                        entry["state"] = "lost"
                break
            while (next_send < len(self.schedule)
                   and start + self.schedule[next_send][0] <= now):
                offset, index = self.schedule[next_send]
                key = self.keys[index]
                entry = {"due": start + offset, "sent": time.time(),
                         "key": key, "cell": f"request-{next_send}",
                         "state": None, "completed": None, "record": None,
                         "dedup": key in submitted}
                submitted.add(key)
                t0 = time.perf_counter()
                try:
                    with maybe_span(tracer, "service.submit", entry["cell"]):
                        ticket = client.submit_sync(self.requests[index])
                except ServiceUnavailable:
                    entry["state"] = "refused"
                else:
                    if ticket.terminal:
                        finish(entry, ticket, time.time())
                    else:
                        outstanding.setdefault(entry["key"], []).append(entry)
                timings["submit"].append(time.perf_counter() - t0)
                log.append(entry)
                next_send += 1
                now = time.time()
            backlog_max = max(backlog_max, len(outstanding))
            if outstanding and now - last_poll >= poll:
                last_poll = now
                refresh = True
                for key in list(outstanding):
                    with maybe_span(tracer, "service.status",
                                    outstanding[key][0]["cell"]):
                        ticket = client.status_sync(key, refresh=refresh)
                    refresh = False
                    if ticket.terminal:
                        for entry in outstanding.pop(key):
                            finish(entry, ticket, entry["sent"])
            wake = last_poll + poll
            if next_send < len(self.schedule):
                wake = min(wake, start + self.schedule[next_send][0])
            time.sleep(max(0.0, min(wake - time.time(), poll)))
        summary = open_loop_summary(log, float(self.params["latency_limit_s"]))
        finished = [e["completed"] for e in log if e["completed"] is not None]
        summary["window_s"] = (max(finished) if finished else time.time()) - start
        return {"log": log, "records": records, "summary": summary,
                "timings": timings, "backlog_max": backlog_max}

    def entry_ok(self, entry) -> bool:
        record = entry["record"]
        return (entry["state"] == "done" and record is not None
                and not record.failed
                and measures_ok(record.measures, self.params["measures"]))

    def direct(self, key: str):
        """The documented bit-identity reference: a direct ``run_cell``."""
        request = self.requests[self.by_key[key]]
        pair = GraphPair(request.source, request.target,
                         request.ground_truth, noise_type="service",
                         noise_level=0.0)
        return run_cell(request.algorithm, pair, "service", 0,
                        assignment=request.assignment,
                        measures=tuple(request.measures),
                        seed=int(request.seed), trace=True)

    def verify(self, loop: dict, keys: List[str],
               tracer: Optional[SpanRecorder]) -> tuple:
        """Keys whose service result differs from a direct ``run_cell``."""
        mismatched, traces = set(), []
        for key in keys:
            with maybe_span(tracer, "harness.run_cell", key[:12]):
                direct = self.direct(key)
            traces.append((self.requests[self.by_key[key]].algorithm,
                           direct.trace))
            if direct.measures != loop["records"][key].measures:
                mismatched.add(key)
        return mismatched, traces

    def score(self, loop: dict, mismatched: set) -> dict:
        log = loop["log"]
        ok = [self.entry_ok(e) and e["key"] not in mismatched for e in log]
        summary = loop["summary"]
        done = sum(e["state"] == "done" for e in log)
        metrics = {
            "cells_per_s": done / summary["window_s"],
            "accuracy_mean": statistics.fmean(
                e["record"].measures["accuracy"] if good else 0.0
                for e, good in zip(log, ok)),
            "success_share": sum(ok) / len(log),
            "within_limit_share": summary["within_limit_share"],
        }
        for name in ("latency_p50_s", "latency_p90_s"):
            if name in summary:
                metrics[name] = summary[name]
        return {"attempted": len(log), "failed": ok.count(False),
                "metrics": metrics}

    def run(self, seconds: float) -> dict:
        """One open loop, then every distinct result served is checked
        against a direct ``run_cell`` after the server has stopped."""
        loop = self.open_loop(None)
        self.stop_server()
        keys = sorted(loop["records"])
        mismatched, _ = self.verify(loop, keys, None)
        result = self.score(loop, mismatched)
        result["metrics"]["peak_rss_mb"] = peak_rss_mb()
        result["report"] = {
            "requests": len(loop["log"]), "distinct": len(self.requests),
            "latency_samples": int(loop["summary"]["done"]),
            "supported_percentile": highest_supported_percentile(
                int(loop["summary"]["done"])),
            "window_s": loop["summary"]["window_s"],
            "generator_lag_s": loop["summary"]["generator_lag_s"],
            "verified": len(keys), "mismatched": len(mismatched),
            "rss_mb": rss_mb()}
        return result

    def run_traced(self, tracer: SpanRecorder) -> dict:
        """An untraced loop, then a traced loop on a fresh server, checked
        as in ``run``."""
        plain = self.open_loop(None)
        self.stop_server()
        self.start_server()
        loop = self.open_loop(tracer)
        journal = read_ticket_journal(self.service_dir / "tickets")
        self.stop_server()
        keys = sorted(loop["records"])
        mismatched, traces = self.verify(loop, keys, tracer)
        result = self.score(loop, mismatched)
        # The verifying cells' own stage timers stand in for replay spans.
        totals = tracer.self_time_by_name()
        for algorithm, payload in traces:
            stages = stage_rollup(payload)
            for stage, name in (("similarity",
                                 f"algorithms.similarity.{algorithm}"),
                                ("assignment", f"assignment.extract.{algorithm}"),
                                ("evaluate", "measures.evaluate")):
                totals[name] = (totals.get(name, 0.0)
                                + stages.get(stage, {}).get("wall_time", 0.0))
        metrics = counter_metrics(sum_counters(t for _, t in traces))
        metrics.update(layer_times(totals))
        metrics["spectral.eigenpairs_s"] = sum(spectral_wall(t)
                                               for _, t in traces)
        log = loop["log"]
        waits = [journal[k]["leased"] - journal[k]["pending"]
                 for k in keys if {"leased", "pending"} <= set(journal[k])]
        runs = [journal[k]["terminal"] - journal[k]["leased"]
                for k in keys if {"leased", "terminal"} <= set(journal[k])]
        metrics.update({
            "service.submit_s": statistics.median(loop["timings"]["submit"]),
            "service.result_s": (statistics.median(loop["timings"]["result"])
                                 if loop["timings"]["result"] else 0.0),
            "service.queue_wait_s": statistics.median(waits) if waits else 0.0,
            "service.run_s": statistics.median(runs) if runs else 0.0,
            "service.dedup_share": sum(e["dedup"] for e in log) / len(log),
            "service.rejected": sum(e["state"] == "refused" for e in log),
            "service.backlog_max": loop["backlog_max"],
            "service.generator_lag_s": loop["summary"]["generator_lag_s"],
            "trace.overhead_share": (loop["summary"].get("latency_p50_s", 0.0)
                                     / plain["summary"]["latency_p50_s"]
                                     - 1.0),
        })
        return {"attempted": result["attempted"],
                "failed": result["failed"], "metrics": metrics,
                "report": {"requests": len(log), "verified": len(keys),
                           "mismatched": len(mismatched)}}


def read_ticket_journal(root: Path) -> Dict[str, Dict[str, float]]:
    """Per ticket: when it was created, first leased, and finished.

    Reads the service's fsynced ticket journal segments (one JSON entry
    per line) and keeps the first ``pending``/``leased`` and the first
    terminal time of each key.
    """
    marks: Dict[str, Dict[str, float]] = {}
    for path in sorted(root.glob("*.jsonl")):
        for line in path.read_text().splitlines():
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            state = entry.get("state")
            slot = "terminal" if state in ("done", "failed", "expired",
                                           "cancelled") else state
            if slot in ("pending", "leased", "terminal"):
                times = marks.setdefault(entry.get("key", ""), {})
                stamp = float(entry.get("time", 0.0))
                times[slot] = min(times.get(slot, stamp), stamp)
    return marks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((HERE / "spec.json").read_text())
    params = spec["workloads"][args.workload]
    tracer = SpanRecorder() if args.trace and args.mode == "run" else None
    if params["kind"] == "service":
        workload = ServiceWorkload(args.workload, params, spec["graph_model"],
                                   spec["noise_type"], args.seed,
                                   args.seconds, dict(os.environ))
    else:
        workload = SweepWorkload(args.workload, params, spec["graph_model"],
                                 spec["noise_type"], args.seed,
                                 int(spec["warmup_n"]))
    try:
        workload.setup(tracer)
        setup_s = time.time() - args.spawned_at
        result = {}
        if args.mode == "run":
            result = (workload.run_traced(tracer) if tracer is not None
                      else workload.run(args.seconds))
    finally:
        workload.close()
    if tracer is not None:
        tracer.write(TRACE_DIR / f"{args.workload}-seed{args.seed}.json")
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
