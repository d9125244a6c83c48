"""Child-process bootstrap for the CLI workloads.

    python cli_child.py TRACE_OUT COMMAND [stringmass CLI arguments...]

With TRACE_OUT "-" this is the ``stringmass`` console script.  Otherwise it
times the import as an ``import`` span, installs the tracing wrappers,
calls ``stringmass.cli.main`` and writes the spans to TRACE_OUT as JSON.
"""

import sys


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    if trace_out == "-":
        from stringmass.cli import main as cli_main
        return cli_main(argv)

    import json
    import time

    start = time.perf_counter()
    import stringmass.cli
    end = time.perf_counter()

    import tracing
    tracer = tracing.Tracer()
    tracer.record("import.stringmass", start, end)
    tracer.install()
    tracer.active = True
    try:
        code = stringmass.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(trace_out, "w") as fh:
            json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
