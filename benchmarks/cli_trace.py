"""Run one traced CLI invocation in a fresh interpreter.

Usage: python3 -X importtime benchmarks/cli_trace.py SPANS_PATH ARG...

Wraps the layer functions as the traced in-process run does, calls
``eragreats.cli.main`` with the remaining arguments, writes the spans to
SPANS_PATH and exits with the CLI's exit code.
"""

import sys

# everything imported before this line is the interpreter's own start-up
sys.stderr.write("eragreats-bench: interpreter ready\n")

import eragreats.analysis as analysis  # noqa: E402
import eragreats.cli as cli  # noqa: E402
from tracing import Tracer  # noqa: E402

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install([cli, analysis])
    try:
        code = cli.main(sys.argv[2:])
    finally:
        tracer.write(sys.argv[1])
    sys.exit(code)
