"""The repository's benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig4_cold --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the timed
phase twice, untraced and then traced, and prints the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from typing import Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The program modules this process imports; every import sample imports
#: exactly these.
PROGRAM_MODULES = (
    "repro.client",
    "repro.experiments.config",
    "repro.experiments.scenarios",
    "repro.orchestrator.api",
    "repro.orchestrator.store",
    "repro.obs.adapters",
    "repro.service.client",
)
#: Import samples per run: this process's own plus fresh interpreters.
IMPORT_SAMPLES = 3

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("rt_p50_ms", "ms"),
    ("rt_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Span-timed per-layer metrics: name -> (span name, "self" or "total").
#: Each is the mean time per request spent in that span.
SPAN_METRICS = {
    "experiments.topology_ms": ("experiments.topology", "self"),
    "net.build_network_ms": ("net.build_network", "self"),
    "routing.tree_ms": ("routing.tree", "self"),
    "experiments.suite_ms": ("experiments.suite", "self"),
    "query.generate_ms": ("query.generate", "self"),
    "experiments.collect_ms": ("experiments.collect", "self"),
    "orchestrator.store_open_ms": ("orchestrator.store_open", "self"),
    "orchestrator.digest_ms": ("orchestrator.digest", "self"),
    "orchestrator.decode_ms": ("orchestrator.decode", "self"),
    "orchestrator.store_get_ms": ("orchestrator.store_get", "self"),
    "experiments.average_ms": ("experiments.average", "self"),
    "orchestrator.encode_ms": ("orchestrator.encode", "self"),
    "orchestrator.store_put_ms": ("orchestrator.store_put", "self"),
    "service.submit_ms": ("service.submit", "self"),
    "service.poll_ms": ("service.poll", "self"),
    "service.results_ms": ("service.results", "total"),
    "service.exec_ms": ("service.wait", "total"),
}

#: Simulator counters summed over the executed jobs of the timed phase.
SIM_COUNTERS = (
    "engine.events_processed",
    "engine.events_cancelled",
    "channel.transmissions",
    "channel.collisions",
    "channel.missed_asleep",
    "mac.frames_sent",
    "mac.retransmissions",
    "mac.backoffs",
    "mac.send_failures",
    "safe_sleep.checks",
    "safe_sleep.sleeps",
    "query_service.reports_sent",
    "query_service.root_deliveries",
    "shaper.reports_buffered",
)

PER_LAYER = (
    ("setup.import_s", "s"),
    ("setup.fill_s", "s"),
    ("service.ready_s", "s"),
    ("service.worker_ready_s", "s"),
    ("sim.run_ms", "ms"),
    ("sim.us_per_event", "us"),
    ("engine.events_processed", "count"),
    ("engine.events_cancelled", "count"),
    ("engine.peak_heap_size", "count"),
    ("channel.transmissions", "count"),
    ("channel.collisions", "count"),
    ("channel.missed_asleep", "count"),
    ("mac.frames_sent", "count"),
    ("mac.retransmissions", "count"),
    ("mac.backoffs", "count"),
    ("mac.send_failures", "count"),
    ("mac.ack_ratio", "ratio"),
    ("safe_sleep.checks", "count"),
    ("safe_sleep.sleeps", "count"),
    ("safe_sleep.sleep_ratio", "ratio"),
    ("query_service.reports_sent", "count"),
    ("query_service.root_deliveries", "count"),
    ("shaper.reports_buffered", "count"),
    *((name, "ms") for name in SPAN_METRICS),
    ("orchestrator.jobs_executed", "count"),
    ("orchestrator.jobs_cached", "count"),
    ("orchestrator.store_records", "count"),
    ("orchestrator.store_mb", "MB"),
    ("service.polls", "count"),
    ("service.jobs_executed", "count"),
    ("service.jobs_cached", "count"),
    ("service.jobs_failed", "count"),
    ("host.canary_ms", "ms"),
    ("trace.overhead_pct", "%"),
)

#: Samples a tail percentile needs beyond it.
TAIL_BEYOND = 10


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(level, value)``: the sample of nearest rank ``n - 10`` and the
    percentile that rank is.  Runs too short for that rank to lie above the
    median fall back to the median.
    """
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND
    if rank < len(ordered) / 2:
        return 50.0, median(ordered)
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def import_program() -> float:
    """Import the program here; returns the seconds it took."""
    started = time.perf_counter()
    for module in PROGRAM_MODULES:
        importlib.import_module(module)
    return time.perf_counter() - started


def import_sample() -> float:
    """Seconds to import the program in a fresh interpreter."""
    probe = (
        "import importlib, time\n"
        "started = time.perf_counter()\n"
        f"for module in {PROGRAM_MODULES!r}:\n"
        "    importlib.import_module(module)\n"
        "print(time.perf_counter() - started)\n"
    )
    output = subprocess.run(
        [sys.executable, "-c", probe], cwd=str(ROOT),
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    return float(output.strip().splitlines()[-1])


def sim_layers(executed: List, requests: int) -> Dict[str, float]:
    """Per-layer simulator counts (summed) and host time per event."""
    totals = {name: 0.0 for name in SIM_COUNTERS}
    peak_heap = wall = 0.0
    acks = 0.0
    for metrics in executed:
        counters = metrics.counters
        for name in SIM_COUNTERS:
            totals[name] += counters.get(name, 0.0)
        peak_heap = max(peak_heap, counters.get("engine.peak_heap_size", 0.0))
        wall += counters.get("run.wall_seconds", 0.0)
        acks += counters.get("mac.acks_received", 0.0)
    attempts = totals["mac.frames_sent"] + totals["mac.retransmissions"]
    events = totals["engine.events_processed"]
    totals["engine.peak_heap_size"] = peak_heap
    totals["mac.ack_ratio"] = acks / attempts if attempts else 0.0
    checks = totals["safe_sleep.checks"]
    totals["safe_sleep.sleep_ratio"] = totals["safe_sleep.sleeps"] / checks if checks else 0.0
    totals["sim.run_ms"] = 1000.0 * wall / requests
    totals["sim.us_per_event"] = 1e6 * wall / events if events else 0.0
    return totals


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig4_cold", "warm_replay", "service_roundtrip"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--fault", choices=("none", "truncated-shard"), default="none",
        help="plant a fault (self-test only): truncate one record of the warm store",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2

    state_dir = ROOT / ".perfbench"
    work_dir = state_dir / f"work-{os.getpid()}"
    (work_dir / "tmp").mkdir(parents=True, exist_ok=True)
    # Keep every temporary file, ours and the service's, inside the checkout,
    # and let every child process import the program from this checkout.
    os.environ["TMPDIR"] = str(work_dir / "tmp")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), os.environ.get("PYTHONPATH", "")) if part
    )
    sys.path.insert(0, str(SRC))
    workload = None
    mismatches = 0
    try:
        imports = [import_program()]
        imports += [import_sample() for _ in range(IMPORT_SAMPLES - 1)]
        from tracer import Tracer, span_totals, write_spans
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload](args.seed, args.seconds, work_dir, args.fault)
        workload.set_up()
        setup_s = median(imports) + median(workload.setup_samples)
        print(f"first timed request {time.perf_counter() - STARTED:.3f} s after start; "
              f"setup_s is the median of {len(imports)} imports plus the median of "
              f"{len(workload.setup_samples)} set-ups")
        untraced = workload.run(None)
        phases = [untraced]
        if args.trace:
            tracer = Tracer()
            traced = workload.run(tracer)
            phases.append(traced)
            spans_path = state_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            write_spans(traced.spans, spans_path)
            print(f"{len(traced.spans)} spans written to {spans_path.relative_to(ROOT)}")
            if traced.digest != untraced.digest:
                print("traced and untraced runs simulated differently", file=sys.stderr)
                mismatches = 1
        peak_rss_mb = workload.peak_rss_mb()
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    requests = len(untraced.latencies)
    attempted = sum(len(phase.latencies) for phase in phases)
    failed = sum(len(phase.failed) for phase in phases) + mismatches
    canary = [sample for phase in phases for sample in phase.canary]
    level, tail_s = tail(untraced.latencies)
    print(f"workload {args.workload} seed {args.seed}: {requests} requests per pass, "
          f"{attempted} attempted, {failed} failed, failed_share {failed / attempted:g}")
    print(f"rt_tail_ms is p{level:.4g} over {requests} samples")
    print(f"outputs_digest {args.workload} {untraced.digest}")
    print(f"jobs executed {untraced.jobs_executed}, cached {untraced.jobs_cached}")

    if not args.trace:
        values = {
            "setup_s": setup_s,
            "wall_s": untraced.wall_s,
            "rt_p50_ms": 1000.0 * median(untraced.latencies),
            "rt_tail_ms": 1000.0 * tail_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
    else:
        values = {name: 0.0 for name, _ in PER_LAYER}
        values["setup.import_s"] = median(imports)
        values.update(workload.setup_layers)
        values.update(sim_layers(untraced.executed, requests))
        values["sim.run_ms"] = sim_layers(traced.executed, requests)["sim.run_ms"]
        totals = span_totals(traced.spans)
        for name, (span, kind) in SPAN_METRICS.items():
            values[name] = 1000.0 * totals.get(span, {}).get(kind, 0.0) / requests
        values["service.polls"] = totals.get("service.poll", {}).get("count", 0.0) / requests
        values["orchestrator.jobs_executed"] = float(untraced.jobs_executed)
        values["orchestrator.jobs_cached"] = float(untraced.jobs_cached)
        values.update(untraced.extra)
        values["host.canary_ms"] = 1000.0 * median(canary)
        values["trace.overhead_pct"] = 100.0 * (traced.wall_s / untraced.wall_s - 1.0)
        units = dict(PER_LAYER)
    print(f"host.canary_ms {1000.0 * median(canary):.3f}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
