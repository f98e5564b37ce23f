"""Launcher for the synthesis service under the benchmark.

Runs ``repro-bench serve`` (``repro.benchmarks.cli.main``) in this process,
on the CPUs ``--cpus`` lists (comma-separated), with the span tracer
installed first when ``--trace 1`` is given.  Every other argument goes to
the CLI unchanged.  When the server stops (SIGINT),
writes ``{"peak_rss_mb": ..., "trace": ...}`` to the ``--out`` file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import pace
from worker import import_library, peak_rss_mb


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--cpus", required=True)
    own, cli_args = parser.parse_known_args()
    pace.pin([int(cpu) for cpu in own.cpus.split(",")])
    import_library()
    from repro.benchmarks import cli

    tracer = None
    if own.trace:
        import spans

        tracer = spans.install(service=True)
    status = cli.main(["serve", *cli_args])
    report = {"peak_rss_mb": peak_rss_mb(), "trace": tracer.report() if tracer else None}
    Path(own.out).write_text(json.dumps(report))
    return status


if __name__ == "__main__":
    sys.exit(main())
