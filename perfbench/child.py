"""One landausim CLI invocation in its own process, with set-up timing.

    python child.py REPORT MODE -- <landausim arguments>

MODE is ``probe`` (set up, then exit), ``run`` (set up, then run the CLI) or
``trace`` (as ``run``, with the layer functions wrapped in spans).  Set-up
ends once ``landausim.cli`` is imported and the arguments and the config
file are parsed.  REPORT receives a JSON object with ``CLOCK_MONOTONIC``
timestamps, which the parent compares with its own.
"""

import json
import sys
import time


def main() -> int:
    report_path, mode, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("probe", "run", "trace"):
        raise SystemExit("usage: child.py REPORT probe|run|trace -- ARGS...")
    from landausim import cli

    args = cli._build_parser().parse_args(argv)
    if getattr(args, "config", None):
        cli.load_config(args.config)
    report = {"t_setup": time.monotonic()}
    tracer = None
    try:
        if mode == "probe":
            return 0
        if mode == "trace":
            import tracer as tracing
            tracer = tracing.install()
        return cli.main(argv)
    finally:
        if tracer is not None:
            report["trace"] = tracer.dump()
        with open(report_path, "w") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())
