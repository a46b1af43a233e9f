"""Run ``repro.cli serve`` under the benchmark tracer.

    python benchmarks/e2e/serve_traced.py SPANS.json serve [serve flags...]

Installs the wrappers of :mod:`tracer` (plus the server's root spans),
hands the remaining arguments to ``repro.cli.main`` and writes every
recorded span to ``SPANS.json`` at exit — after SIGINT has stopped the
server and drained its queue.
"""

from __future__ import annotations

import atexit
import sys

import tracer


def main(argv) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    recorder = tracer.Tracer()
    tracer.install(recorder, server_roots=True)
    atexit.register(recorder.dump, spans_out)
    from repro.cli import main as cli_main

    return cli_main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
