"""Run ``repro serve`` with the benchmark's orchestrator hooks installed.

Usage: ``python3 perfbench/traced_serve.py SPANS_OUT <repro cli arguments>``.
The traced run of the ``service_roundtrip`` workload starts the service
through this script instead of ``python3 -m repro.cli``, so that store,
codec and digest calls made inside the service process are recorded too.
The spans are written to ``SPANS_OUT`` when the service has drained and
stopped.  The spawned simulation worker imports this file but runs none of
it, so the simulation itself runs untraced.
"""

from __future__ import annotations

import sys
from pathlib import Path

from tracer import Tracer, install_orchestrator_hooks, write_spans

#: Span ids of this process start here, so they never collide with the
#: benchmark process's when both sets are merged.
SERVICE_SPAN_ID_BASE = 1_000_000_000


def main(argv: list) -> int:
    spans_out = Path(argv[0])
    tracer = Tracer(id_base=SERVICE_SPAN_ID_BASE)
    install_orchestrator_hooks(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[1:])
    finally:
        write_spans(tracer.spans, spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
