"""Traced stand-in for ``python -m isoprod.cli``.

Usage: ``cli_shim.py <trace.json> <command> <document> [--json]``.  Times the
imports, installs the tracer, runs ``isoprod.cli.main`` on the remaining
arguments (same output, same exit code) and writes the stage times, call
counts and self times to ``<trace.json>``.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

t0 = time.perf_counter()
import isoprod.document  # noqa: E402

t1 = time.perf_counter()
import isoprod.cli  # noqa: E402

t2 = time.perf_counter()

import checkout  # noqa: E402
import tracer as tracing  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    checkout.check_location(isoprod.__file__)
    T = tracing.Tracer()
    T.install()
    tracing.trace_document_stages(T)
    try:
        code = isoprod.cli.main(argv)
    finally:
        sys.stdout.flush()
    inclusive = T.inclusive()
    own = T.totals()["self_s"]
    stages = {
        "document.import_ms": (t1 - t0) * 1000,
        "cli.import_ms": (t2 - t1) * 1000,
        "document.decode_ms": own.get("document.decode", 0.0) * 1000,
        "document.schema_ms": own.get("document.schema", 0.0) * 1000,
        "document.parse_ms": (
            inclusive.get("document.parse_document", 0.0)
            - own.get("document.decode", 0.0)
            - own.get("document.schema", 0.0)
        ) * 1000,
        "cli.run_ms": inclusive.get("cli.run", 0.0) * 1000,
        "cli.render_ms": own.get("cli.render", 0.0) * 1000,
    }
    T.dump(out, stages=stages)
    return code


if __name__ == "__main__":
    sys.exit(main())
