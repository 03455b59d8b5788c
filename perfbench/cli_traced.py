"""Run one prism CLI command with the layers traced.

    python3 perfbench/cli_traced.py <trace-file> <prism arguments...>

The traced run of cli-cold starts this instead of ``python -m prism.cli``.
It wraps the layers as ``tracing.install`` does, runs the command, and
writes the aggregates and spans to <trace-file> once the command is done.
"""

import json
import sys

import tracing


def main():
    path, argv = sys.argv[1], sys.argv[2:]
    import prism.cli

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        code = prism.cli.main(argv)
    finally:
        dump = tracer.dump()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"summary": tracer.summary(), "spans": dump["spans"]}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
