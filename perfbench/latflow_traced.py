"""The latflow command with a span around every public call.

    python3 perfbench/latflow_traced.py SPANS_OUT PARENT_SPAN ARGS...

Runs ``latflow ARGS...`` in this process and writes its spans, whose top
span has PARENT_SPAN as parent, to SPANS_OUT as JSON.  Every latflow module
is imported before the command runs, because the CLI imports lazily and a
module imported later would go untraced.
"""

import os
import sys

import tracer as tracing


def main():
    out, parent, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    import latflow  # noqa: F401  (imports every layer but the CLI)
    import latflow.cli

    tracer = tracing.Tracer(f"c{os.getpid()}", root_parent=parent)
    tracing.install(tracer)
    try:
        code = latflow.cli.main(args)
    except SystemExit as exc:  # argparse exits after --help
        code = exc.code
    finally:
        tracer.dump(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
