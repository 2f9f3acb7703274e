"""One traced hellcert CLI invocation in a fresh interpreter.

    python3 perfbench/cli_child.py SUMMARY.json [--peaks] -- <hellcert arguments>

Installs the spans of :mod:`tracing` around the CLI's layers, runs
``hellcert.cli.main`` and writes the span summary to SUMMARY.json.  With
``--peaks`` it also records the memory peaks of the spans that track them.
Untraced runs do not use this file: they run ``hellcert.cli.main`` exactly
as the console script does.
"""

import sys


def main(argv) -> int:
    sep = argv.index("--")
    out, flags, cli_args = argv[0], argv[1:sep], argv[sep + 1:]
    import tracing

    tracer = tracing.Tracer(track_memory="--peaks" in flags)
    tracer.install(tracing.CLI_SPANS)
    import hellcert.cli

    try:
        return hellcert.cli.main(cli_args)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
