"""Traced start of one CLI call: python perfbench/cli_boot.py SPANS_PATH ARGS...

Times the import of presic_lab.cli (numpy included), installs the span
wrappers, runs cli.main(ARGS) and writes the spans to SPANS_PATH before
exiting with the CLI's own exit code.
"""

import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter_ns()
    from presic_lab import cli

    import_ns = time.perf_counter_ns() - t0
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(sys.argv[2:])
    finally:
        sys.stdout.flush()
        tracer.dump(sys.argv[1], import_ns=import_ns)
    sys.exit(code)
