"""Spans for the traced run, recorded from outside the program.

The traced run rebinds a few public functions of the program so that each
call records a span: its name, start, end, the span that caused it, and the
request it belongs to.  Module-level functions are rebound in the namespace
of the module that calls them; methods and properties are rebound on their
class.  :meth:`Tracer.restore` puts every original back, and nothing here
is installed in an untraced run.  Spans live in memory and are written as
JSONL when the run ends.

Times are ``time.perf_counter()`` readings, which on Linux come from the
system-wide monotonic clock, so spans recorded in the service process line
up with the benchmark process's.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: One span: (id, name, start, end, parent id, request id).
Span = Tuple[int, str, float, float, Optional[int], Optional[int]]


class Tracer:
    """In-memory span recorder with rebinding hooks."""

    def __init__(self, id_base: int = 0) -> None:
        self.spans: List[Span] = []
        #: Request id stamped on every span that starts while it is set.
        self.request: Optional[int] = None
        self._ids = iter(range(id_base, id_base + 1_000_000_000))
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span called ``name``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            with tracer._lock:
                span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            request = tracer.request
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent, request))

        return traced

    def rebind(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def patch(self, owner: Any, attr: str, name: str) -> None:
        """Trace ``owner.attr`` (a function, method or property) as ``name``."""
        raw = vars(owner)[attr]
        if isinstance(raw, property):
            self.rebind(owner, attr, property(self.wrap(name, raw.fget)))
        else:
            self.rebind(owner, attr, self.wrap(name, raw))

    def restore(self) -> None:
        """Undo every rebinding, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


def write_spans(spans: Iterable[Span], path: Path) -> None:
    """Write spans as JSONL, one object per span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for span_id, name, start, end, parent, request in spans:
            row = {
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "request": request,
            }
            handle.write(json.dumps(row) + "\n")


def read_spans(path: Path) -> List[Span]:
    """Spans written by :func:`write_spans`."""
    spans: List[Span] = []
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            spans.append(
                (row["id"], row["name"], row["start"], row["end"], row["parent"], row["request"])
            )
    return spans


def span_totals(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total seconds, and self seconds.

    A span's self time is its duration minus the time its child spans
    cover.  Children never overlap their siblings here (each thread runs
    one call at a time), so the covered time is the sum of their durations.
    """
    spans = list(spans)
    child_time: Dict[int, float] = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"count": 0.0, "total": 0.0, "self": 0.0}
    )
    for span_id, name, start, end, _, _ in spans:
        entry = totals[name]
        entry["count"] += 1
        entry["total"] += end - start
        entry["self"] += end - start - child_time[span_id]
    return dict(totals)


# ---------------------------------------------------------------------------
# The hooks: which program functions the traced run records
# ---------------------------------------------------------------------------

def install_orchestrator_hooks(tracer: Tracer) -> None:
    """Store, codec and digest calls (benchmark and service process alike)."""
    from repro.orchestrator import executor, jobs, store

    tracer.patch(jobs.RunJob, "digest", "orchestrator.digest")
    tracer.patch(executor, "metrics_from_dict", "orchestrator.decode")
    tracer.patch(executor, "metrics_to_dict", "orchestrator.encode")
    tracer.patch(store.ResultStore, "get", "orchestrator.store_get")
    tracer.patch(store.ResultStore, "put", "orchestrator.store_put")


def install_local_hooks(tracer: Tracer) -> None:
    """Every layer a job crosses in the benchmark process."""
    from repro import client
    from repro.experiments import runner
    from repro.orchestrator import api, executor, jobs

    install_orchestrator_hooks(tracer)
    tracer.patch(client, "open_store", "orchestrator.store_open")
    tracer.patch(api, "average_metrics", "experiments.average")
    tracer.patch(executor, "execute_job", "orchestrator.execute_job")
    tracer.patch(executor, "run_single", "experiments.run_single")
    tracer.patch(jobs.RunJob, "resolve_queries", "query.generate")
    tracer.patch(runner, "build_scenario_topology", "experiments.topology")
    tracer.patch(runner, "build_network", "net.build_network")
    tracer.patch(runner, "build_routing_tree", "routing.tree")
    tracer.patch(runner, "collect_metrics", "experiments.collect")
    tracer.patch(runner, "collect_run_counters", "experiments.collect")

    build_suite = runner.build_protocol_suite

    def build_protocol_suite(*args: Any, **kwargs: Any) -> Any:
        # register_queries is called on the returned suite; it belongs to
        # the same set-up step, so it is traced under the same name.
        suite = build_suite(*args, **kwargs)
        suite.register_queries = tracer.wrap("experiments.suite", suite.register_queries)
        return suite

    tracer.rebind(
        runner, "build_protocol_suite", tracer.wrap("experiments.suite", build_protocol_suite)
    )


def install_service_client_hooks(tracer: Tracer) -> None:
    """The client side of one service round trip."""
    from repro.service.client import ServiceClient

    tracer.patch(ServiceClient, "submit", "service.submit")
    tracer.patch(ServiceClient, "wait", "service.wait")
    tracer.patch(ServiceClient, "status", "service.poll")
    tracer.patch(ServiceClient, "results", "service.results")
