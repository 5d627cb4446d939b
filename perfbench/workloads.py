"""The benchmark's workloads: what each one runs and how its output is checked.

A workload is a short list of passes, each one process of the repro CLI
(``python -m repro ARGS``).  Every input is a function of the workload
seed, and every output is reduced to a digest that must repeat
exactly and, for seeds listed in ``reference.json``, match the recorded
value.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

#: Default workload seed; reference.json records digests for it and more.
DEFAULT_SEED = 0

#: Runs per grid cell of the paper-scale figure 9 sweep.
FIG09_RUNS = 2

NAME_PATTERN = re.compile(r"[A-Za-z0-9_.-]+")


@dataclass
class Outcome:
    """What one repetition of a workload produced, after checking."""

    digest: str
    runs: int
    errors: List[str]


def digest_files(paths: List[Path]) -> str:
    """SHA-256 over (file name, bytes) of the given files, in name order."""
    sha = hashlib.sha256()
    for path in sorted(paths, key=lambda p: p.name):
        data = path.read_bytes()
        sha.update(path.name.encode() + b"\0" + str(len(data)).encode() + b"\0" + data)
    return sha.hexdigest()


def csv_runs(paths: List[Path]) -> Tuple[int, int]:
    """(sum of the per-cell ``runs`` column, number of cells) over CSV grids."""
    runs = cells = 0
    for path in paths:
        rows = [line for line in path.read_text(encoding="utf-8").splitlines() if not line.startswith("#")]
        for row in csv.DictReader(rows):
            runs += int(row["runs"])
            cells += 1
    return runs, cells


def load_reference() -> Dict[str, Dict[str, str]]:
    if not REFERENCE_FILE.exists():
        return {}
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def reference_errors(workload: str, seed: int, digest: str) -> List[str]:
    """Empty when ``digest`` matches the recorded one (or none is recorded)."""
    expected = load_reference().get(workload, {}).get(str(seed))
    if expected is None or expected == digest:
        return []
    return [f"output digest {digest[:16]} != recorded {expected[:16]} for seed {seed}"]


class Workload:
    name = ""
    why = ""
    #: Work items one repetition attempts: grid cells.
    units = 0
    #: Kernel threads per process and executor worker processes; the
    #: passes are built from these, and the provenance line reports them.
    kernel_threads = "1"
    workers = 1
    #: Whether the first unit waits for a result store to open (the
    #: set-up probe opens one too).
    opens_store = False

    def passes(self, seed: int, out: Path) -> List[Tuple[str, ...]]:
        """The ``python -m repro`` arguments of each pass, in order."""
        raise NotImplementedError

    def prepare(self, out: Path) -> None:
        """Reset the output directory before a repetition."""
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)

    def check(self, out: Path, stdouts: List[str]) -> Outcome:
        raise NotImplementedError


class Fig09Paper(Workload):
    name = "fig09-paper"
    why = (
        "ROADMAP headline: six configs x 196 cells at k = 20000, one process, "
        "1 kernel thread; channel-bound (Gilbert loss masks dominate)"
    )
    configs = 6
    cells_per_config = 196
    units = configs * cells_per_config

    def passes(self, seed: int, out: Path) -> List[Tuple[str, ...]]:
        return [
            (
                "run", "fig09", "--scale", "paper", "--runs", str(FIG09_RUNS),
                "--seed", str(seed), "--no-cache", "--kernel-threads", self.kernel_threads,
                "--csv-dir", str(out / "csv"), "--quiet",
            )
        ]

    def check(self, out: Path, stdouts: List[str]) -> Outcome:
        files = sorted((out / "csv").glob("*.csv"))
        runs, cells = csv_runs(files)
        errors = []
        if len(files) != self.configs or cells != self.units:
            errors.append(f"expected {self.configs} CSV grids, {self.units} cells; got {len(files)}, {cells}")
        if runs != cells * FIG09_RUNS:
            errors.append(f"expected {FIG09_RUNS} runs per cell, got {runs} over {cells} cells")
        return Outcome(digest_files(files), runs, errors)


_CACHE_LINE = re.compile(r"cache: (\d+) hits, (\d+) misses, (\d+) writes")


class AdaptiveSqlite(Workload):
    name = "adaptive-sqlite"
    why = (
        "adaptive fig11 on 2 process workers and a fresh sqlite store, then rerun "
        "warm: process pool, store writes and reads, unit seed scheme"
    )
    units = 6 * 49
    kernel_threads = "auto"
    workers = 2
    opens_store = True

    def _args(self, seed: int, out: Path, csv_dir: str) -> Tuple[str, ...]:
        return (
            "run", "fig11", "--scale", "small", "--runs", "100", "--adaptive",
            "--seed-scheme", "unit", "--workers", str(self.workers), "--executor", "process",
            "--kernel-threads", self.kernel_threads,
            "--store", "sqlite:" + str(out / "adaptive.db"), "--seed", str(seed),
            "--csv-dir", str(out / csv_dir), "--quiet",
        )

    def passes(self, seed: int, out: Path) -> List[Tuple[str, ...]]:
        return [self._args(seed, out, name) for name in ("csv-cold", "csv-warm")]

    def check(self, out: Path, stdouts: List[str]) -> Outcome:
        cold = sorted((out / "csv-cold").glob("*.csv"))
        warm = sorted((out / "csv-warm").glob("*.csv"))
        runs, cells = csv_runs(cold)
        errors = []
        if cells != self.units:
            errors.append(f"expected {self.units} cells, got {cells}")
        stats = [_CACHE_LINE.search(text) for text in stdouts]
        if len(stats) != 2 or None in stats:
            return Outcome(digest_files(cold), runs, errors + ["no cache summary line in the CLI output"])
        hits, misses, writes = (int(value) for value in stats[0].groups())
        warm_hits, warm_misses, _ = (int(value) for value in stats[1].groups())
        if hits != 0 or misses != writes or misses == 0:
            errors.append(f"cold pass: {hits} hits, {misses} misses, {writes} writes on a fresh store")
        if warm_misses != 0 or warm_hits != writes:
            errors.append(f"warm pass: {warm_hits} hits, {warm_misses} misses; expected {writes} hits")
        if len(cold) != 6 or digest_files(cold) != digest_files(warm):
            errors.append("warm-pass CSVs differ from the cold pass")
        return Outcome(digest_files(cold), runs, errors)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (Fig09Paper(), AdaptiveSqlite())}

