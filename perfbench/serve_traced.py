"""``repro serve`` with the layer tracer installed, for the traced runs.

Usage::

    python3 perfbench/serve_traced.py TRACE_OUT serve INDEX [serve options]

Installs the wrappers of :mod:`perfbench.tracer` into this process, then
hands the remaining arguments to the CLI, which builds the same
``IndexSpec``/``ServeConfig`` as ``repro serve`` and calls
``repro.serve.http.run_server``.  When the server drains after SIGTERM,
the spans are written to TRACE_OUT as JSON.  Shard worker processes are
not traced; their time comes from the router's per-worker ``seconds`` on
``/stats``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main() -> int:
    from perfbench import tracer as tracing

    trace_out = Path(sys.argv[1])
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from repro.cli import main as repro_main

    code = repro_main(sys.argv[2:])
    trace_out.write_text(json.dumps(tracer.dump()))
    return code


if __name__ == "__main__":
    sys.exit(main())
