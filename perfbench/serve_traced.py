"""Start ``repro-seu serve`` with the benchmark's tracer installed.

Usage: ``python3 perfbench/serve_traced.py TRACE_JSON serve --store-dir ...``

The shims start disabled; each SIGUSR1 toggles recording, so the
client traces exactly its traced phase.  When the server exits
(SIGTERM drains it) the spans and aggregates go to ``TRACE_JSON``.
"""

import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, install  # noqa: E402


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    from repro import cli

    tracer = Tracer()
    install(tracer)

    def toggle(signum, frame):
        tracer.enabled = not tracer.enabled

    signal.signal(signal.SIGUSR1, toggle)
    try:
        return cli.main(argv)
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
