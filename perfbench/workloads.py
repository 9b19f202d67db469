"""The benchmark's three workloads and the checks on their outputs.

Each workload builds its inputs from the workload seed, sets itself up, and
then runs a fixed list of requests in one closed loop: the next request is
sent only when the previous one has returned.  The program sees only the
generated jobs.  Every simulation runs through the production path
(``SweepClient.run_jobs`` -> ``execute_job`` -> ``run_single``), in this
process for ``fig4_cold`` and ``warm_replay`` and in a ``repro serve``
process for ``service_roundtrip``.

Work per run is a fixed function of ``--seconds``, never a time limit, so
two runs with the same arguments do the same work.  The constants that size
it were chosen on a 2-CPU host (Python 3.11) so that the timed phase takes
about ``--seconds`` there.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import shutil
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.client import LocalClient
from repro.experiments.config import reduced_scale, smoke_scale
from repro.experiments.metrics import RunMetrics
from repro.experiments.runner import ExperimentResult
from repro.experiments.scenarios import (
    DUTY_CYCLE_PROTOCOLS,
    LATENCY_PROTOCOLS,
    REDUCED_BASE_RATES,
    REDUCED_QUERY_COUNTS,
    query_count_workload,
    rate_sweep_workload,
)
from repro.obs.adapters import WALL_CLOCK_COUNTERS
from repro.orchestrator.api import ExperimentSpec
from repro.orchestrator.jobs import RunJob, metrics_to_dict
from repro.orchestrator.store import ResultStore
from repro.service.client import ServiceClient, ServiceError

from tracer import (
    Tracer,
    install_local_hooks,
    install_service_client_hooks,
    read_spans,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Host canary samples taken per timed phase, spread evenly between requests.
CANARY_SAMPLES = 25

#: fig4_cold: seconds of ``--seconds`` per sweep of the 18-job grid.
FIG4_SECONDS_PER_SWEEP = 5.0
#: warm_replay: seconds of ``--seconds`` per pass over the four figures.
REPLAY_SECONDS_PER_FIGURE_PASS = 0.5
#: warm_replay: replications per figure point held in the store.
REPLAY_STORE_REPLICATIONS = 3
#: service_roundtrip: seconds of ``--seconds`` per pass over the job grid.
SERVICE_SECONDS_PER_GRID_PASS = 4.5
#: service_roundtrip: store hits per sweep, beside one new job.
SERVICE_REPEATS = 2
#: service_roundtrip: services launched during set-up (median reported).
SERVICE_LAUNCHES = 3
#: Constant status-poll interval, well below the ~70 ms round trip.
SERVICE_POLL_SECONDS = 0.005
#: Longest wait for a service to come up or a sweep to finish.
SERVICE_DEADLINE_SECONDS = 60.0
#: Jobs per warm-up sweep; the first timed sweep repeats two of them.
SERVICE_WARMUP_JOBS = 2

#: The reduced-scale sweep points of the rate and query-count figures.
RATE_WORKLOADS = [rate_sweep_workload(rate) for rate in REDUCED_BASE_RATES]
COUNT_WORKLOADS = [query_count_workload(count) for count in REDUCED_QUERY_COUNTS]
#: The figures warm_replay replays: (name, protocols, workloads).
FIGURE_GRIDS = (
    ("fig3", DUTY_CYCLE_PROTOCOLS, RATE_WORKLOADS),
    ("fig4", DUTY_CYCLE_PROTOCOLS, COUNT_WORKLOADS),
    ("fig6", LATENCY_PROTOCOLS, RATE_WORKLOADS),
    ("fig7", LATENCY_PROTOCOLS, COUNT_WORKLOADS),
)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def fingerprint(metrics: RunMetrics, extras: Dict[str, float]) -> str:
    """Digest of one run's simulated outcome.

    The wall-clock counters are left out: they record what the run cost,
    not what it simulated, and the program's own determinism checks skip
    exactly these keys.
    """
    encoded = metrics_to_dict(metrics)
    encoded["counters"] = {
        key: value
        for key, value in encoded["counters"].items()
        if key not in WALL_CLOCK_COUNTERS
    }
    payload = json.dumps([encoded, extras], sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def experiment_fingerprint(results: Sequence[ExperimentResult]) -> str:
    """Digest of assembled experiments: every replication plus the average."""
    parts = []
    for result in results:
        parts.append(fingerprint(result.metrics, result.extras))
        parts.extend(fingerprint(run, {}) for run in result.per_run_metrics)
    return hashlib.sha256("".join(parts).encode("ascii")).hexdigest()


def in_unit_range(metrics: RunMetrics) -> bool:
    """Duty cycle and delivery ratio are shares, so they lie in [0, 1]."""
    return 0.0 <= metrics.average_duty_cycle <= 1.0 and 0.0 <= metrics.delivery_ratio <= 1.0


# ---------------------------------------------------------------------------
# The host canary
# ---------------------------------------------------------------------------

def _canary_text() -> str:
    rows = [
        {
            "id": index,
            "name": f"node-{index}",
            "position": [index * 0.5, index * 0.25],
            "neighbours": [index - 1, index + 1, index + 2],
            "duty_cycle": index / 7.0,
            "parent": index // 2,
        }
        for index in range(8000)
    ]
    return json.dumps(rows)


CANARY_TEXT = _canary_text()


def host_canary() -> float:
    """Seconds for a fixed memory-heavy step: parse ~1 MB of JSON, index it."""
    started = time.perf_counter()
    rows = json.loads(CANARY_TEXT)
    index = {row["id"]: row for row in rows}
    elapsed = time.perf_counter() - started
    if len(index) != len(rows):
        raise AssertionError("canary index lost rows")
    return elapsed


# ---------------------------------------------------------------------------
# The timed phase
# ---------------------------------------------------------------------------

@dataclass
class Phase:
    """What one timed phase did and measured."""

    #: Seconds per request, in request order.
    latencies: List[float] = field(default_factory=list)
    #: Indices of requests that raised or failed an output check.
    failed: Set[int] = field(default_factory=set)
    #: Host canary samples, seconds.
    canary: List[float] = field(default_factory=list)
    #: Metrics of every job the simulator executed, in order.
    executed: List[RunMetrics] = field(default_factory=list)
    #: Output fingerprints, in request order.
    outputs: List[str] = field(default_factory=list)
    jobs_executed: int = 0
    jobs_cached: int = 0
    #: Workload-specific per-layer values (store size, service counters).
    extra: Dict[str, float] = field(default_factory=dict)
    #: Traced run only: spans recorded during the phase.
    spans: List[Any] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        """Time spent in requests; the canary and the checks are excluded."""
        return sum(self.latencies)

    @property
    def digest(self) -> str:
        return hashlib.sha256("".join(self.outputs).encode("ascii")).hexdigest()


def closed_loop(
    requests: Sequence[Any],
    send: Callable[[int, Any], Any],
    check: Callable[[int, Any, Any], bool],
    tracer: Optional[Tracer],
) -> Phase:
    """Send each request once the previous one has returned, and check it."""
    phase = Phase()
    canary_every = max(1, len(requests) // CANARY_SAMPLES)
    for index, request in enumerate(requests):
        if tracer is not None:
            tracer.request = index
        started = time.perf_counter()
        try:
            answer = send(index, request)
        except Exception as error:  # noqa: BLE001 - a failed request is counted, not fatal
            phase.failed.add(index)
            print(f"request {index} failed: {error!r}", file=sys.stderr)
            answer = None
        finally:
            phase.latencies.append(time.perf_counter() - started)
            if tracer is not None:
                tracer.request = None
        if answer is not None and not check(index, answer, phase):
            phase.failed.add(index)
        if index % canary_every == 0:
            phase.canary.append(host_canary())
    if tracer is not None:
        phase.spans = list(tracer.spans)
    return phase


@contextmanager
def hooks(tracer: Optional[Tracer], install: Callable[[Tracer], None]) -> Iterator[None]:
    """Install a tracer's hooks for the duration, if there is a tracer."""
    if tracer is None:
        yield
        return
    install(tracer)
    try:
        yield
    finally:
        tracer.restore()


class Workload:
    """Inputs, set-up, and a timed phase that can run traced or untraced."""

    name = ""

    def __init__(self, seed: int, seconds: int, work_dir: Path, fault: str) -> None:
        self.seed = seed
        self.seconds = seconds
        self.work_dir = work_dir
        self.fault = fault
        #: Seconds of each set-up sample (inputs plus the workload's own).
        self.setup_samples: List[float] = []
        #: Per-layer set-up values.
        self.setup_layers: Dict[str, float] = {}

    def set_up(self) -> None:
        raise NotImplementedError

    def run(self, tracer: Optional[Tracer]) -> Phase:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        """Peak resident set size of this process, MiB."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Fig4Cold(Workload):
    """The paper's multi-query workload (Figures 4 and 7), run cold.

    Reduced scale, 0.2 Hz base rate, 1/4/8 queries per class, all six
    latency protocols.  One request is one sweep of that 18-point grid, run
    the way a figure runs it: open the cache directory, then
    ``run_experiments``.  Every point draws its own seed from the workload
    seed, so no request finds a stored result and the work of a run varies
    little from seed to seed.  Sweeps run serially in this process through
    ``LocalClient(workers=1)``, over a store that is fresh for each pass.
    """

    name = "fig4_cold"

    def set_up(self) -> None:
        started = time.perf_counter()
        rng = random.Random(self.seed)
        scenario = reduced_scale()
        self.sweeps = [
            [
                ExperimentSpec(
                    scenario=scenario.with_overrides(seed=rng.randrange(1, 2**31)),
                    protocol=protocol,
                    workload=workload,
                    num_runs=1,
                )
                for protocol in LATENCY_PROTOCOLS
                for workload in COUNT_WORKLOADS
            ]
            for _ in range(max(1, round(self.seconds / FIG4_SECONDS_PER_SWEEP)))
        ]
        self.passes = 0
        self.setup_samples.append(time.perf_counter() - started)

    def run(self, tracer: Optional[Tracer]) -> Phase:
        self.passes += 1
        store_dir = self.work_dir / f"fig4-store-{self.passes}"

        def send(index: int, specs: List[ExperimentSpec]) -> Tuple[List[Any], int]:
            client = LocalClient(workers=1, store=store_dir)
            _, results = client.run_experiments_with_jobs(specs, label=self.name)
            return results, client.last_executed

        def check(index: int, answer: Tuple[List[Any], int], phase: Phase) -> bool:
            results, executed = answer
            for result in results:
                phase.executed.append(result.metrics)
                phase.outputs.append(fingerprint(result.metrics, result.extras))
            phase.jobs_executed += executed
            phase.jobs_cached += len(results) - executed
            return executed == len(results) and all(
                not result.cached and in_unit_range(result.metrics) for result in results
            )

        with hooks(tracer, install_local_hooks):
            phase = closed_loop(self.sweeps, send, check, tracer)
        # The same job must simulate the same events again.
        first = self.sweeps[0][0].expand()
        again = LocalClient(workers=1).run_jobs(first, label="repeat")[0]
        if phase.outputs and fingerprint(again.metrics, again.extras) != phase.outputs[0]:
            print("fig4_cold: a repeated job simulated differently", file=sys.stderr)
            phase.failed.add(0)
        phase.extra["orchestrator.store_records"] = float(len(ResultStore(store_dir)))
        phase.extra["orchestrator.store_mb"] = directory_mb(store_dir)
        return phase


class WarmReplay(Workload):
    """Figure replays from a warm store: the orchestrator's read side.

    Set-up fills a store with one cold pass over the smoke-scale rate and
    query-count grids of all six protocols, three replications each.  Each
    request then opens the store afresh and replays one figure's grid
    (Figures 3, 4, 6 and 7 in turn) with ``run_experiments``; no request
    may execute a job.  Not gated in ``BENCHMARK.json``: it follows the
    host's speed drift too closely (see ``README.md``).
    """

    name = "warm_replay"

    def set_up(self) -> None:
        started = time.perf_counter()
        rng = random.Random(self.seed)
        scenario = smoke_scale().with_overrides(seed=rng.randrange(1, 2**31))

        def spec(protocol: str, workload: Any) -> ExperimentSpec:
            return ExperimentSpec(
                scenario=scenario,
                protocol=protocol,
                workload=workload,
                num_runs=REPLAY_STORE_REPLICATIONS,
            )

        self.figures = {
            name: [spec(protocol, workload) for protocol in protocols for workload in workloads]
            for name, protocols, workloads in FIGURE_GRIDS
        }
        fill_specs = [
            spec(protocol, workload)
            for protocol in LATENCY_PROTOCOLS
            for workload in RATE_WORKLOADS + COUNT_WORKLOADS
        ]
        passes = max(3, round(self.seconds / REPLAY_SECONDS_PER_FIGURE_PASS))
        self.requests = [name for _ in range(passes) for name, _, _ in FIGURE_GRIDS]
        inputs_s = time.perf_counter() - started

        self.store_dir = self.work_dir / "replay-store"
        started = time.perf_counter()
        filled = LocalClient(workers=1, store=self.store_dir).run_experiments(
            fill_specs, label="fill"
        )
        fill_s = time.perf_counter() - started
        self.setup_samples.append(inputs_s + fill_s)
        self.setup_layers["setup.fill_s"] = fill_s

        by_point = {
            (spec.protocol, spec.workload): result
            for spec, result in zip(fill_specs, filled, strict=True)
        }
        self.expected = {
            name: experiment_fingerprint(
                [by_point[(spec.protocol, spec.workload)] for spec in specs]
            )
            for name, specs in self.figures.items()
        }
        self.replay_dir = self.store_dir
        if self.fault == "truncated-shard":
            self.replay_dir = self.work_dir / "replay-store-faulty"
            shutil.copytree(self.store_dir, self.replay_dir)
            truncate_one_record(self.replay_dir)

    def run(self, tracer: Optional[Tracer]) -> Phase:
        def send(index: int, name: str) -> Tuple[str, List[ExperimentResult], int, int]:
            client = LocalClient(workers=1, store=self.replay_dir)
            results = client.run_experiments(self.figures[name], label=name)
            return name, results, client.last_executed, client.last_cached

        def check(index: int, answer: Tuple[str, Any, int, int], phase: Phase) -> bool:
            name, results, executed, cached = answer
            digest = experiment_fingerprint(results)
            phase.outputs.append(digest)
            phase.jobs_executed += executed
            phase.jobs_cached += cached
            return executed == 0 and digest == self.expected[name]

        with hooks(tracer, install_local_hooks):
            phase = closed_loop(self.requests, send, check, tracer)
        phase.extra["orchestrator.store_records"] = float(len(ResultStore(self.replay_dir)))
        phase.extra["orchestrator.store_mb"] = directory_mb(self.replay_dir)
        return phase


@dataclass
class _Service:
    """One launched ``repro serve`` process."""

    process: subprocess.Popen
    client: ServiceClient
    cache_dir: Path
    spans_path: Optional[Path]


class ServiceRoundtrip(Workload):
    """Small sweeps against a ``repro serve --jobs 1`` process.

    Every sweep holds one new smoke-scale job, which the spawn worker
    simulates and the service writes to its store, and two repeats of
    earlier jobs, which are store hits.  The new jobs visit each cell of
    the six protocols' rate and query-count grids equally often, in an
    order shuffled by the seed, so every seed sends the same job mix.  The
    client submits, polls every 5 ms, and fetches the results.  Set-up
    launches the service three times and ends only when a warm-up sweep
    has returned from the last launch, because the spawn worker is still
    importing when ``/healthz`` first answers.
    """

    name = "service_roundtrip"

    def set_up(self) -> None:
        started = time.perf_counter()
        rng = random.Random(self.seed)
        scenario = smoke_scale()
        grid = [
            (protocol, workload)
            for protocol in LATENCY_PROTOCOLS
            for workload in RATE_WORKLOADS + COUNT_WORKLOADS
        ]
        seen: Set[str] = set()

        def new_job(protocol: str, workload: Any) -> RunJob:
            while True:
                job = RunJob(
                    scenario=scenario,
                    protocol=protocol,
                    seed=rng.randrange(1, 2**31),
                    workload=workload,
                )
                if job.digest not in seen:
                    seen.add(job.digest)
                    return job

        self.warmup = [new_job(*cell) for cell in rng.sample(grid, SERVICE_WARMUP_JOBS)]
        known = list(self.warmup)
        self.sweeps: List[List[RunJob]] = []
        for _ in range(max(1, round(self.seconds / SERVICE_SECONDS_PER_GRID_PASS))):
            for cell in rng.sample(grid, len(grid)):
                job = new_job(*cell)
                self.sweeps.append([job, *rng.sample(known, SERVICE_REPEATS)])
                known.append(job)
        inputs_s = time.perf_counter() - started

        #: First answer per job digest; every later answer must equal it.
        self.answers: Dict[str, str] = {}
        self.launches = 0
        ready, worker_ready = [], []
        self.service: Optional[_Service] = None
        for _ in range(SERVICE_LAUNCHES):
            self.stop()
            ready_s, worker_ready_s = self.launch(traced=False)
            ready.append(ready_s)
            worker_ready.append(worker_ready_s)
            self.setup_samples.append(inputs_s + worker_ready_s)
        self.setup_layers["service.ready_s"] = median(ready)
        self.setup_layers["service.worker_ready_s"] = median(worker_ready)

    def launch(self, *, traced: bool) -> Tuple[float, float]:
        """Start a service with a fresh store and answer a warm-up sweep.

        Returns the seconds from launch until ``/healthz`` first answered
        and until the warm-up sweep returned.
        """
        self.launches += 1
        cache_dir = self.work_dir / f"service-store-{self.launches}"
        log_path = self.work_dir / f"service-{self.launches}.log"
        spans_path = self.work_dir / f"service-spans-{self.launches}.jsonl" if traced else None
        if spans_path is not None:
            command = [sys.executable, str(HERE / "traced_serve.py"), str(spans_path)]
        else:
            command = [sys.executable, "-m", "repro.cli"]
        command += ["--jobs", "1", "--cache-dir", str(cache_dir), "serve", "--port", "0"]
        launched_at = time.perf_counter()
        with log_path.open("w", encoding="utf-8") as log:
            process = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT, cwd=str(ROOT)
            )
        try:
            port = self._wait_for_port(log_path, process)
            client = ServiceClient(
                f"http://127.0.0.1:{port}",
                poll_interval=SERVICE_POLL_SECONDS,
                timeout=SERVICE_DEADLINE_SECONDS,
            )
            deadline = launched_at + SERVICE_DEADLINE_SECONDS
            while True:
                try:
                    client.healthz()
                    break
                except ServiceError:
                    if time.perf_counter() > deadline or process.poll() is not None:
                        raise RuntimeError(
                            f"service did not become healthy; see {log_path}"
                        ) from None
                    time.sleep(0.002)
            ready_s = time.perf_counter() - launched_at
            answers = client.run_jobs(self.warmup, label="warm-up")
            worker_ready_s = time.perf_counter() - launched_at
            if not all([self._check_answer(job, r) for job, r in zip(self.warmup, answers)]):
                raise RuntimeError("the warm-up sweep answered differently")
        except BaseException:
            stop_process(process)
            raise
        self.service = _Service(process, client, cache_dir, spans_path)
        return ready_s, worker_ready_s

    @staticmethod
    def _wait_for_port(log_path: Path, process: subprocess.Popen) -> int:
        deadline = time.perf_counter() + SERVICE_DEADLINE_SECONDS
        marker = "listening on http://127.0.0.1:"
        while time.perf_counter() < deadline and process.poll() is None:
            for line in log_path.read_text(encoding="utf-8").splitlines():
                if line.startswith(marker):
                    return int(line[len(marker):].strip())
            time.sleep(0.002)
        raise RuntimeError(f"service did not announce its port; see {log_path}")

    def _check_answer(self, job: RunJob, result: Any) -> bool:
        """A job's answer must equal its first answer, across launches too."""
        digest = fingerprint(result.metrics, result.extras)
        first = self.answers.setdefault(job.digest, digest)
        return digest == first and in_unit_range(result.metrics)

    def stop(self) -> None:
        """SIGTERM the service (a graceful drain) and wait for it to exit."""
        service, self.service = self.service, None
        if service is not None:
            stop_process(service.process)

    def run(self, tracer: Optional[Tracer]) -> Phase:
        if tracer is not None:
            # The traced pass needs a service with the hooks installed.
            self.stop()
            self.launch(traced=True)
        service = self.service
        assert service is not None
        client = service.client
        before = client.healthz()["metrics"]

        def send(index: int, jobs: List[RunJob]) -> Tuple[Any, int, int, bool]:
            results = client.run_jobs(jobs, label=f"{self.name}-{index}")
            return results, client.last_executed, client.last_cached, client.last_deduplicated

        def check(index: int, answer: Tuple[Any, int, int, bool], phase: Phase) -> bool:
            results, executed, cached, deduplicated = answer
            jobs = self.sweeps[index]
            phase.executed.append(results[0].metrics)
            phase.outputs.extend(fingerprint(r.metrics, r.extras) for r in results)
            phase.jobs_executed += executed
            phase.jobs_cached += cached
            same = all([self._check_answer(job, r) for job, r in zip(jobs, results, strict=True)])
            return (
                same
                and executed == 1
                and cached == SERVICE_REPEATS
                and not deduplicated
                and not results[0].cached
                and all(r.cached for r in results[1:])
            )

        phase_start = time.perf_counter()
        with hooks(tracer, install_service_client_hooks):
            phase = closed_loop(self.sweeps, send, check, tracer)
        health = client.healthz()
        after = health["metrics"]
        for key in ("service.jobs_executed", "service.jobs_cached", "service.jobs_failed"):
            phase.extra[key] = after.get(key, 0.0) - before.get(key, 0.0)
        phase.extra["orchestrator.store_records"] = float(health["store"]["records"])
        phase.extra["orchestrator.store_mb"] = directory_mb(service.cache_dir)
        if tracer is not None:
            self.stop()
            assert service.spans_path is not None
            phase.spans.extend(
                span for span in read_spans(service.spans_path) if span[2] >= phase_start
            )
        return phase

    def close(self) -> None:
        self.stop()

    def peak_rss_mb(self) -> float:
        """The larger of this process and its largest child (the service).

        A child's peak is known only once it has exited, so this stops the
        service first.
        """
        self.stop()
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return max(own, children) / 1024.0


WORKLOADS = {cls.name: cls for cls in (Fig4Cold, WarmReplay, ServiceRoundtrip)}


# ---------------------------------------------------------------------------
# Process and store helpers
# ---------------------------------------------------------------------------

def stop_process(process: subprocess.Popen) -> None:
    """SIGTERM a service (a graceful drain) and wait until it has exited."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def directory_mb(path: Path) -> float:
    """Bytes of every file under ``path``, in MiB."""
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / 2**20


def truncate_one_record(store_dir: Path) -> None:
    """Planted fault: cut one stored record's line in half.

    The store skips the unreadable line when it opens, so the job it held
    is executed again by the next request that needs it.
    """
    shard = sorted((store_dir / "shards").glob("*.jsonl"))[0]
    lines = shard.read_text(encoding="utf-8").splitlines()
    lines[-1] = lines[-1][: len(lines[-1]) // 2]
    shard.write_text("\n".join(lines) + "\n", encoding="utf-8")
