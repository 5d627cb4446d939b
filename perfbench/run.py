"""End-to-end benchmark of the repro FEC simulator.

    python3 perfbench/run.py --workload fig09-paper --seed 0 --seconds 50 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
and the compiled kernel cache, work files and detailed results go under
``.bench_build/``.  Each run

1. builds (or reuses) the cext kernel cache and records provenance,
2. with ``--trace 0``, repeats the workload, one fresh process per pass,
   for about ``--seconds`` seconds, with a calibration block
   (``speed.py``) and set-up probes before, between and after the
   repetitions; with ``--trace 1``, alternates untraced and traced
   repetitions,
3. checks every repetition's output digest (identical across repetitions,
   and equal to ``reference.json`` for recorded seeds), and
4. prints the metrics by name, then one JSON line:
   ``{"correct", "attempted", "failed", "metrics"}``.

End-to-end metrics are medians over repetitions, measured with tracing
off; their times are scaled to the reference machine speed by the
calibration blocks around them.  Per-layer metrics come from
``traced.py``, which wraps each layer boundary from the outside; only the
main process is traced, so layers that run in pool workers
(adaptive-sqlite) are not seen.

The exit status is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence

import speed
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

#: name -> unit, reported with ``--trace 0``.
END_TO_END = {"wall_s": "s", "runs_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

#: name -> unit, reported with ``--trace 1``.
PER_LAYER = {
    "channel.loss_mask_s": "s",
    "channel.calls": "count",
    "kernels.fill_sojourns_calls": "count",
    "kernels.fill_sojourns_batch_calls": "count",
    "fec.build_s": "s",
    "fec.builds": "count",
    "fastpath.decode_s": "s",
    "fastpath.decode_calls": "count",
    "fastpath.decoded_runs": "count",
    "fastpath.compile_s": "s",
    "fastpath.compiles": "count",
    "scheduling.schedule_s": "s",
    "scheduling.calls": "count",
    "pipeline.synthesize_s": "s",
    "pipeline.assemble_s": "s",
    "runner.unit_s": "s",
    "runner.units": "count",
    "runner.unit_p50_ms": "ms",
    "runner.unit_p99_ms": "ms",
    "runner.dispatch_s": "s",
    "runner.executor_s": "s",
    "runner.pool_starts": "count",
    "store.put_s": "s",
    "store.puts": "count",
    "store.get_s": "s",
    "store.gets": "count",
    "store.hit_ratio": "ratio",
    "adaptive.rounds": "count",
    "adaptive.runs_executed": "count",
    "adaptive.saved_ratio": "ratio",
    "adaptive.self_s": "s",
    "metrics.merge_s": "s",
    "csvio.write_s": "s",
    "startup.import_s": "s",
    "kernels.load_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
    "unattributed_s": "s",
}

#: Set-up probes taken before each untraced repetition and after the
#: last one, so that they sample the whole run; ``setup_s`` is the median
#: of their scaled times.
PROBES_PER_BREAK = 3

#: Hard limit on the measuring part of one run (after the kernel build).
RUN_LIMIT_S = 150.0

#: Launch-to-ready of a workload's first unit: interpreter start, the
#: import of the CLI, kernel backend load (warm cache) and store open.
#: Pool start-up comes later and is not included.
_SETUP_PROBE = r"""
import sys, time
import repro.runner.cli
from repro.kernels import get_backend
get_backend()
if sys.argv[1]:
    from repro.store import resolve_store
    resolve_store(sys.argv[1]).close()
print(repr(time.monotonic()))
"""

#: Builds the cext kernel cache (untimed) and reports provenance.
_WARMUP = r"""
import json, os, platform
import numpy
from repro.kernels import get_backend
from repro.kernels.registry import cext_openmp_enabled, numba_available
from repro.kernels.threads import physical_cores
backend = get_backend("cext")
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "nproc": len(os.sched_getaffinity(0)),
    "physical_cores": physical_cores(),
    "kernel_backend": backend.name,
    "cext_openmp": cext_openmp_enabled(),
    "numba_available": numba_available(),
}))
"""


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def become_subreaper() -> bool:
    """Adopt orphaned descendants (pool workers, forkservers) so they are
    reaped here: their peak RSS is then visible and none outlives a run."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(36, 1, 0, 0, 0) == 0  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        return False


def reap_all(group: int, timeout: float) -> int:
    """Wait for every remaining child; SIGKILL the process group ``group``
    (a pass's session: forkserver and pool workers included) after ``timeout``.

    Returns the largest ``ru_maxrss`` (KiB) among them.
    """
    peak = 0
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _status, usage = os.wait4(-1, os.WNOHANG)
        except ChildProcessError:
            return peak
        if pid:
            peak = max(peak, usage.ru_maxrss)
            continue
        if time.monotonic() > deadline:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(group, signal.SIGKILL)
            deadline = float("inf")
        time.sleep(0.005)


class Finished(NamedTuple):
    wall: float
    exit_code: int
    peak_kb: int
    stdout: str
    stderr: str
    #: ``time.monotonic()`` just before launch.
    launched: float


def run_process(cmd: Sequence[str], cwd: Path, env: Dict[str, str], timeout: float) -> Finished:
    """Launch ``cmd``, wait for it and for every process it left behind.

    ``wall`` runs from just before launch until the launched process has
    exited; descendants still alive then are waited for afterwards.
    """
    cwd.mkdir(parents=True, exist_ok=True)
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        launched = time.monotonic()
        proc = subprocess.Popen(
            list(cmd), cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            start_new_session=True,
        )
        watchdog = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted (SIGTERM or Ctrl-C): take the whole session down.
            reap_all(proc.pid, timeout=0.0)
            raise
        finally:
            wall = time.monotonic() - launched
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    peak = max(usage.ru_maxrss, reap_all(proc.pid, timeout=20.0))
    return Finished(
        wall,
        proc.returncode,
        peak,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
        launched,
    )


def child_env() -> Dict[str, str]:
    """The environment of every child: this checkout's sources, a kernel
    cache inside the checkout, and no inherited ``REPRO_*`` settings."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["XDG_CACHE_HOME"] = str(BUILD / "xdg-cache")
    return env


def pass_command(args: Sequence[str], report: Optional[Path]) -> List[str]:
    """``python -m repro ARGS``, or the same under the tracer."""
    if report is not None:
        return [sys.executable, str(HERE / "traced.py"), str(report), *args]
    return [sys.executable, "-m", "repro", *args]


# ---------------------------------------------------------------------------
# Repetitions
# ---------------------------------------------------------------------------


@dataclass
class Repetition:
    """One run of every pass of a workload, with its checked output."""

    traced: bool
    wall: float = 0.0
    peak_kb: int = 0
    runs: int = 0
    digest: str = ""
    errors: List[str] = field(default_factory=list)
    #: Tracer reports, one per pass (traced repetitions only).
    reports: List[dict] = field(default_factory=list)


def run_repetition(workload: wl.Workload, seed: int, out: Path, traced: bool, timeout: float) -> Repetition:
    rep = Repetition(traced)
    workload.prepare(out)
    stdouts = []
    for index, args in enumerate(workload.passes(seed, out)):
        logs = out / f"pass{index}"
        report = logs / "trace.json" if traced else None
        logs.mkdir(parents=True, exist_ok=True)
        done = run_process(pass_command(args, report), logs, child_env(), timeout)
        rep.wall += done.wall
        rep.peak_kb = max(rep.peak_kb, done.peak_kb)
        stdouts.append(done.stdout)
        if done.exit_code != 0:
            tail = done.stderr.strip().splitlines()[-3:]
            rep.errors.append(f"pass {index} exited with {done.exit_code}: {' | '.join(tail)}")
            return rep
        if report is not None:
            rep.reports.append(json.loads(report.read_text(encoding="utf-8")))
    try:
        outcome = workload.check(out, stdouts)
    except (OSError, ValueError, KeyError) as exc:
        rep.errors.append(f"output check failed: {exc!r}")
        return rep
    rep.runs = outcome.runs
    rep.digest = outcome.digest
    rep.errors.extend(outcome.errors)
    return rep


def setup_probe(workload: wl.Workload, out: Path, timeout: float) -> float:
    out.mkdir(parents=True, exist_ok=True)
    db = out / "probe.db"
    for suffix in ("", "-wal", "-shm"):
        Path(str(db) + suffix).unlink(missing_ok=True)
    uri = f"sqlite:{db}" if workload.opens_store else ""
    cmd = [sys.executable, "-c", _SETUP_PROBE, uri]
    done = run_process(cmd, out, child_env(), timeout)
    if done.exit_code != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout.strip().splitlines()[-1]) - done.launched


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def merge_reports(reports: Sequence[dict]) -> dict:
    """Sum per-pass tracer reports; adaptive accounting comes from the first
    pass that ran the controller (the cold pass -- the warm one replays it)."""
    layers: Dict[str, Dict[str, float]] = {}
    counts: Counter = Counter()
    unit_ms: List[float] = []
    adaptive: List[dict] = []
    for report in reports:
        for name, entry in report["layers"].items():
            acc = layers.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
            for key in acc:
                acc[key] += entry[key]
        counts.update(report["counts"])
        unit_ms.extend(report["unit_ms"])
        adaptive = adaptive or report["adaptive"]
    return {"layers": layers, "counts": counts, "unit_ms": sorted(unit_ms), "adaptive": adaptive}


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(len(sorted_values) * fraction))
    return float(sorted_values[rank - 1])


def layer_metrics(merged: dict, traced_wall: float, plain_wall: float) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition (all passes merged);
    ``plain_wall`` is the untraced median the tracing overhead is taken from."""
    layers, counts = merged["layers"], merged["counts"]

    def total(name: str) -> float:
        return layers.get(name, {}).get("total", 0.0)

    def own(name: str) -> float:
        return layers.get(name, {}).get("self", 0.0)

    def calls(name: str) -> int:
        return int(layers.get(name, {}).get("calls", 0))

    executed = sum(meta.get("executed_runs", 0) for meta in merged["adaptive"])
    exhaustive = sum(meta.get("exhaustive_runs", 0) for meta in merged["adaptive"])
    named_self = sum(entry["self"] for entry in layers.values())
    return {
        "channel.loss_mask_s": total("channel.loss_mask"),
        "channel.calls": calls("channel.loss_mask"),
        "kernels.fill_sojourns_calls": counts.get("kernels.fill_sojourns_calls", 0),
        "kernels.fill_sojourns_batch_calls": counts.get("kernels.fill_sojourns_batch_calls", 0),
        "fec.build_s": total("fec.build"),
        "fec.builds": calls("fec.build"),
        "fastpath.decode_s": total("fastpath.decode"),
        "fastpath.decode_calls": calls("fastpath.decode"),
        "fastpath.decoded_runs": counts.get("fastpath.decoded_runs", 0),
        "fastpath.compile_s": total("fastpath.compile"),
        "fastpath.compiles": counts.get("fastpath.compiles", 0),
        "scheduling.schedule_s": total("scheduling.schedule"),
        "scheduling.calls": calls("scheduling.schedule"),
        "pipeline.synthesize_s": total("pipeline.synthesize"),
        "pipeline.assemble_s": own("pipeline.synthesize"),
        "runner.unit_s": total("runner.unit"),
        "runner.units": calls("runner.unit"),
        "runner.unit_p50_ms": percentile(merged["unit_ms"], 0.50),
        "runner.unit_p99_ms": percentile(merged["unit_ms"], 0.99),
        "runner.dispatch_s": own("runner.dispatch"),
        "runner.executor_s": total("runner.executor"),
        "runner.pool_starts": counts.get("runner.pool_starts", 0),
        "store.put_s": total("store.put"),
        "store.puts": counts.get("store.puts", 0),
        "store.get_s": total("store.get"),
        "store.gets": calls("store.get"),
        "store.hit_ratio": counts.get("store.hits", 0) / calls("store.get") if calls("store.get") else 0.0,
        "adaptive.rounds": sum(int(meta.get("rounds", 0)) for meta in merged["adaptive"]),
        "adaptive.runs_executed": executed,
        "adaptive.saved_ratio": 1.0 - executed / exhaustive if exhaustive else 0.0,
        "adaptive.self_s": own("adaptive.grid"),
        "metrics.merge_s": total("metrics.merge"),
        "csvio.write_s": total("csvio.write"),
        "startup.import_s": total("startup.import"),
        "kernels.load_s": total("kernels.load"),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.coverage": named_self / traced_wall if traced_wall > 0 else 0.0,
        "unattributed_s": traced_wall - named_self,
    }


def quartiles(values: Sequence[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def describe_raw(plain: Sequence[Repetition]) -> str:
    walls = [rep.wall for rep in plain]
    return f"{statistics.median(walls):.6g} s (min {min(walls):.6g}, max {max(walls):.6g})"


def describe(name: str, unit: str, values: Sequence[float]) -> str:
    q1, _, q3 = quartiles(values)
    return f"  {name:34s} {statistics.median(values):14.6g} {unit:6s} (n={len(values)}, q1={q1:.6g}, q3={q3:.6g})"


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def warm_up(out: Path) -> dict:
    done = run_process([sys.executable, "-c", _WARMUP], out, child_env(), timeout=600.0)
    if done.exit_code != 0:
        raise RuntimeError(f"cext kernel build failed: {done.stderr.strip()[-800:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload: wl.Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Repetitions until about ``seconds`` have passed; when untraced, a
    calibration block and set-up probes before each and after the last.

    Every process is killed once the run has used :data:`RUN_LIMIT_S`.
    """
    start = time.monotonic()
    setups: List[float] = []
    blocks: List[float] = []

    def remaining() -> float:
        return max(1.0, start + RUN_LIMIT_S - time.monotonic())

    def calibrate_and_probe() -> None:
        """A calibration block, then set-up probes scaled by it."""
        if not trace:
            blocks.append(speed.block())
            factor = speed.scale(blocks[-1], blocks[-1])
            setups.extend(
                factor * setup_probe(workload, work / "setup", remaining()) for _ in range(PROBES_PER_BREAK)
            )

    plain: List[Repetition] = []
    traced: List[Repetition] = []
    while True:
        want_trace = trace and len(traced) < len(plain)
        calibrate_and_probe()
        rep = run_repetition(workload, seed, work / "out", want_trace, remaining())
        (traced if want_trace else plain).append(rep)
        if rep.errors:
            break
        elapsed = time.monotonic() - start
        typical = statistics.median(r.wall for r in plain + traced)
        if elapsed + 0.5 * typical < seconds or (trace and not traced):
            continue
        break
    calibrate_and_probe()
    return {"setups": setups, "blocks": blocks, "plain": plain, "traced": traced}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the repro simulator.")
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    work = BUILD / "perfbench" / f"{workload.name}-{os.getpid()}"
    signal.signal(signal.SIGTERM, _terminate)
    subreaper = become_subreaper()
    try:
        provenance = warm_up(work / "warmup")
        provenance.update(
            subreaper=subreaper,
            workload=workload.name,
            seed=args.seed,
            kernel_threads=workload.kernel_threads,
            executor_workers=workload.workers,
            traced_processes="main only" if workload.workers > 1 else "all",
        )
        print("provenance " + json.dumps(provenance, sort_keys=True))
        result = measure(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reps: List[Repetition] = result["plain"] + result["traced"]
    errors = [f"repetition {i}: {e}" for i, rep in enumerate(reps) for e in rep.errors]
    digests = {rep.digest for rep in reps if rep.digest}
    digest_errors = [error for digest in digests for error in wl.reference_errors(workload.name, args.seed, digest)]
    if len(digests) > 1:
        digest_errors.append(f"output digests differ across repetitions: {sorted(d[:16] for d in digests)}")
    errors += digest_errors
    attempted = workload.units * len(reps)
    # A digest that disagrees with the reference or with another repetition
    # puts every repetition's output in doubt.
    failed = attempted if digest_errors else workload.units * sum(1 for rep in reps if rep.errors)

    plain = result["plain"]
    samples: Dict[str, List[float]] = {}
    if not errors:
        if args.trace:
            plain_wall = statistics.median(rep.wall for rep in plain)
            per_rep = [
                layer_metrics(merge_reports(rep.reports), rep.wall, plain_wall) for rep in result["traced"]
            ]
            for name in PER_LAYER:
                samples[name] = [metrics[name] for metrics in per_rep]
        else:
            walls = speed.scaled_between([rep.wall for rep in plain], result["blocks"])
            samples["wall_s"] = walls
            samples["runs_per_s"] = [rep.runs / wall for rep, wall in zip(plain, walls)]
            samples["setup_s"] = result["setups"]
            samples["peak_rss_mb"] = [rep.peak_kb / 1024.0 for rep in plain]
    units = PER_LAYER if args.trace else END_TO_END
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}, {len(plain)} untraced and {len(result['traced'])} traced repetitions, "
          f"output digest {next(iter(digests), '')[:16]}")
    untraced = sorted({name for rep in result["traced"] for r in rep.reports for name in r["missing"]})
    if untraced:
        print(f"not traced (module unavailable): {', '.join(untraced)}")
    for error in errors:
        print("CHECK FAILED " + error)
    if result["blocks"] and plain:
        print(f"machine speed: calibration chunk {statistics.median(result['blocks']) * 1e3:.3f} ms "
              f"(reference {speed.REFERENCE_CHUNK_S * 1e3:g} ms); measured wall {describe_raw(plain)}")
    metrics = {}
    for name, values in samples.items():
        print(describe(name, units[name], values))
        value = statistics.median(values)
        metrics[name] = {"value": value if units[name] != "count" else int(value), "unit": units[name]}

    _write_details(workload.name, args, provenance, result, errors, metrics)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if not errors else 1


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def _write_details(name: str, args, provenance: dict, result: dict, errors: List[str], metrics: dict) -> None:
    path = BUILD / "perfbench" / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    detail = {
        "provenance": provenance,
        "errors": errors,
        "setup_s": result["setups"],
        "calibration_chunk_s": result["blocks"],
        "repetitions": [
            {"traced": rep.traced, "wall_s": rep.wall, "peak_kb": rep.peak_kb, "runs": rep.runs,
             "digest": rep.digest, "errors": rep.errors}
            for rep in result["plain"] + result["traced"]
        ],
        "metrics": metrics,
    }
    path.write_text(json.dumps(detail, indent=1, sort_keys=True), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
