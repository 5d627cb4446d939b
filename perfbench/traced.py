"""Run one workload pass in-process under the per-layer tracer.

    PYTHONPATH=src python perfbench/traced.py REPORT.json run fig09 ...

Runs the same code path as ``python -m repro ARGS``.  The tracer's raw
aggregates go to REPORT.json and the pass's exit code is returned.
Only this process is traced: layers that run inside pool worker
processes are not seen.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer


def main(argv) -> int:
    report_path, args = argv[0], list(argv[1:])
    tracer = Tracer()
    with tracer.span("startup.import"):
        from repro.runner.cli import main as entry
    with tracer.span("kernels.load"):
        from repro.kernels import get_backend

        get_backend()
    missing = tracer.install()
    try:
        code = entry(args)
    finally:
        tracer.uninstall()
    report = tracer.report()
    report["missing"] = missing
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
