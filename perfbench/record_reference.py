"""Record the output digests that ``run.py`` checks against.

    python3 perfbench/record_reference.py --seeds 0-19 [--workload NAME ...]

Runs one untraced repetition per (workload, seed) and writes its digest to
``reference.json``.  Re-record only when a change is meant to alter the
program's output (or the workload's parameters); the script prints every
digest that differs from the one already recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run
import workloads as wl


def parse_seeds(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default=str(wl.DEFAULT_SEED))
    parser.add_argument("--workload", action="append", choices=sorted(wl.WORKLOADS))
    args = parser.parse_args()
    reference = wl.load_reference()
    work = run.BUILD / "perfbench" / f"record-{os.getpid()}"
    run.become_subreaper()
    try:
        run.warm_up(work / "warmup")
        for name in args.workload or list(wl.WORKLOADS):
            recorded = reference.setdefault(name, {})
            for seed in parse_seeds(args.seeds):
                rep = run.run_repetition(wl.WORKLOADS[name], seed, work / "out", False, 170.0)
                if rep.errors:
                    print(f"{name} seed {seed}: {rep.errors}", file=sys.stderr)
                    return 1
                previous = recorded.get(str(seed))
                change = "" if previous in (None, rep.digest) else f" (was {previous[:16]})"
                print(f"{name} seed {seed}: {rep.digest[:16]}{change}")
                recorded[str(seed)] = rep.digest
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ordered = {name: dict(sorted(digests.items(), key=lambda item: int(item[0]))) for name, digests in reference.items()}
    wl.REFERENCE_FILE.write_text(json.dumps(ordered, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
