"""Run ``repro-diagnose serve`` with the benchmark's span wrappers installed.

    python3 perfbench/serve_traced.py SPANS_OUT serve --http 0 --ready-file F ...

Everything after ``SPANS_OUT`` goes to the CLI unchanged, in this process,
so the server is the stock ``serve`` entry point; the spans are written to
``SPANS_OUT`` when it returns (SIGTERM drains it and returns).
"""

from __future__ import annotations

import sys

from common import bootstrap


def main() -> int:
    bootstrap()
    from spans import Tracer

    from repro.cli import main as cli_main

    tracer = Tracer().install()
    try:
        return cli_main(sys.argv[2:])
    finally:
        tracer.remove()
        tracer.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
