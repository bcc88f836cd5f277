"""Run one ``dickekw`` command with spans around every layer call.

    python3 perfbench/launch_cli.py DUMP_FILE OP_ID CLI_ARG...

installs the wrappers of ``spans.Tracer``, calls ``dickekw.cli.main`` with
the CLI arguments, and writes the spans and aggregates to DUMP_FILE when the
command ends.  The exit status is the command's.
"""

import sys

from spans import Tracer


def main() -> int:
    dump_path, op = sys.argv[1], sys.argv[2]
    tracer = Tracer()
    tracer.op = op
    tracer.install()
    import dickekw.cli

    cli_main = tracer.wrap("cli.main", dickekw.cli.main)
    try:
        return cli_main(sys.argv[3:])
    finally:
        with open(dump_path, "w") as handle:
            tracer.dump(handle)


if __name__ == "__main__":
    sys.exit(main())
