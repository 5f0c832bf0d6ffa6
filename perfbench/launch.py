"""One eulergibbs CLI run in a fresh process, timed from the inside.

    python3 perfbench/launch.py REPORT TRACE RUN_ID SRC_DIR CLI_ARG...

Imports ``eulergibbs.cli`` from SRC_DIR, calls ``cli.main(CLI_ARG...)`` and
writes REPORT (JSON): the CLOCK_MONOTONIC times at which the CLI became
importable (``ready``), was dispatched and returned, its exit code, the peak
resident memory of this process, the numpy and scipy versions and, when
TRACE is 1, the spans recorded by ``tracer.Tracer`` around the calls between
layers.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    report_path, trace, run_id, src_dir, *cli_args = sys.argv[1:]
    import eulergibbs.cli as cli

    ready = time.monotonic()
    package_root = Path(cli.__file__).resolve().parent.parent
    if package_root != Path(src_dir).resolve():
        print(f"imported eulergibbs from {package_root}, expected {src_dir}", file=sys.stderr)
        return 2

    entry = cli.main
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer(run_id)
        tracer.install()
        entry = tracer.wrap_span("cli", "cli.main", cli.main)

    dispatch = time.monotonic()
    code = entry(cli_args)
    end = time.monotonic()

    import numpy
    import scipy

    report = {
        "ready": ready,
        "dispatch": dispatch,
        "end": end,
        "exit_code": code,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        tracer.uninstall()
        report["spans"] = tracer.spans
        report["orphan_counts"] = tracer.orphan_counts
        report["unwrapped"] = tracer.missing
    Path(report_path).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
