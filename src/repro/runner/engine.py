"""Sweep orchestration: plan units, consult the cache, execute, aggregate.

This is the layer the public sweep API (:mod:`repro.core.sweep`), the
experiment presets (:mod:`repro.core.experiments`), the benchmark harness
and the ``python -m repro`` CLI all sit on.  It owns the sequencing:

1. shard the sweep into :class:`~repro.runner.units.WorkUnit` cells,
2. satisfy what it can from the :class:`~repro.runner.cache.ResultCache`,
3. hand the remaining units to an executor (serial or process pool),
4. write fresh results back to the cache as they stream in,
5. aggregate the cells into the same :class:`~repro.core.metrics.GridResult`
   / :class:`~repro.core.metrics.SeriesResult` containers the serial loops
   have always produced -- bit-identical for a given seed.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.channel.gilbert import paper_grid
from repro.core.config import SimulationConfig
from repro.core.metrics import GridResult, SeriesResult
from repro.resilience.policy import (
    FailurePolicy,
    UnitFailure,
    failure_summary,
    resolve_policy,
)
from repro.resilience.report import write_quarantine
from repro.resilience.retry import RetryingStore
from repro.runner.executors import Executor, executor_scope
from repro.runner.fleet import DEFAULT_LEASE_TTL, FleetRunner
from repro.kernels.threads import ThreadSpec
from repro.runner.units import (
    SeedPath,
    UnitResult,
    WorkUnit,
    merge_cell,
    plan_units,
)
from repro.seeds import SchemeSpec, resolve_scheme_name
from repro.store import ResultStore, resolve_store
from repro.utils.rng import RandomState, as_seed_int
from repro.utils.validation import validate_positive_int

ProgressCallback = Callable[[int, int], None]

#: ``executor=`` accepts a name, an instance, or None (auto from workers).
ExecutorSpec = Union[str, Executor, None]

#: ``cache=`` accepts a ready store, a store URI (``"sqlite:results.db"``),
#: a bare json-dir directory path, or None (caching disabled).
CacheSpec = Union[ResultStore, str, None]


def _execute(
    units: Sequence[WorkUnit],
    *,
    executor: ExecutorSpec,
    workers: Optional[int],
    cache: Optional[ResultStore],
    progress: Optional[ProgressCallback],
    total_cells: int,
    fleet: bool = False,
    lease_ttl: Optional[float] = None,
    worker_id: Optional[str] = None,
    failure_policy: Optional[FailurePolicy] = None,
) -> Tuple[Dict[Tuple[SeedPath, int], UnitResult], List[UnitFailure]]:
    """Run a planned unit list through store + executor.

    Results are keyed by ``(seed_path, run_start)``.  Progress is reported
    in completed *cells* (sweep points), the unit the historical progress
    callback used; cached cells count as done immediately.

    With ``fleet=True`` the pending units go through the store's lease
    protocol (:class:`~repro.runner.fleet.FleetRunner`) instead of
    straight to the executor: concurrent processes sharing the store
    split the units between them, and units finished elsewhere are loaded
    rather than executed.  The fleet runner persists results itself
    (write-before-release), so the engine skips its own ``put``.

    With a ``failure_policy``, store traffic goes through a
    :class:`RetryingStore`, units retry per the policy, and units that
    exhaust their attempts are returned as the second element (empty on a
    fully clean run) instead of aborting the sweep -- unless the policy
    says ``on_error="raise"``, which escalates the first poison unit.
    Skipped/quarantined cells aggregate from whatever results they do
    have (a wholly failed cell becomes the paper's NaN rule).
    """
    failure_policy = resolve_policy(failure_policy)
    if fleet and cache is None:
        raise ValueError(
            "fleet execution needs a shared result store; pass "
            "cache= a lease-capable store (e.g. 'sqlite:results.db')"
        )
    if failure_policy is not None:
        cache = RetryingStore.wrap(cache, failure_policy)
    results: Dict[Tuple[SeedPath, int], UnitResult] = {}
    failures: List[UnitFailure] = []
    units_per_cell: Dict[SeedPath, int] = {}
    for unit in units:
        units_per_cell[unit.seed_path] = units_per_cell.get(unit.seed_path, 0) + 1

    done_units_per_cell: Dict[SeedPath, int] = {}
    done_cells = 0

    def note_done(seed_path: SeedPath) -> None:
        nonlocal done_cells
        done_units_per_cell[seed_path] = done_units_per_cell.get(seed_path, 0) + 1
        if done_units_per_cell[seed_path] == units_per_cell[seed_path]:
            done_cells += 1
            if progress is not None:
                progress(done_cells, total_cells)

    pending: List[WorkUnit] = []
    for unit in units:
        cached = cache.get(unit) if cache is not None else None
        if cached is not None:
            results[(unit.seed_path, unit.run_start)] = cached
            note_done(unit.seed_path)
        else:
            pending.append(unit)

    if pending:
        unit_by_key = {(unit.seed_path, unit.run_start): unit for unit in pending}

        def on_result(result: UnitResult) -> None:
            key = (result.seed_path, result.run_start)
            results[key] = result
            if cache is not None and not fleet:
                cache.put(unit_by_key[key], result)
            note_done(result.seed_path)

        def on_failure(failure: UnitFailure) -> None:
            failures.append(failure)
            if (
                not fleet
                and cache is not None
                and failure_policy is not None
                and failure_policy.on_error == "quarantine"
            ):
                # The fleet runner writes its own quarantine records
                # (verdict-before-release ordering); solo runs record
                # them here so ``cache info`` sees them either way.
                write_quarantine(cache, failure)
            note_done(failure.seed_path)

        with executor_scope(executor, workers, failure_policy) as runner:
            if fleet:
                runner = FleetRunner(
                    cache,
                    executor=runner,
                    worker_id=worker_id,
                    lease_ttl=lease_ttl if lease_ttl is not None else DEFAULT_LEASE_TTL,
                    policy=failure_policy,
                )
            if failure_policy is None:
                runner.run(pending, on_result)
            else:
                runner.run(pending, on_result, on_failure)

    return results, failures


def _cell_results(
    results: Dict[Tuple[SeedPath, int], UnitResult], seed_path: SeedPath
) -> List[UnitResult]:
    return [result for key, result in results.items() if key[0] == seed_path]


def run_grid(
    config: SimulationConfig,
    p_values: Optional[Sequence[float]] = None,
    q_values: Optional[Sequence[float]] = None,
    *,
    runs: int = 10,
    seed: RandomState = 0,
    fresh_code_per_run: bool = False,
    progress: Optional[ProgressCallback] = None,
    executor: ExecutorSpec = "serial",
    workers: Optional[int] = None,
    cache: CacheSpec = None,
    runs_per_unit: Optional[int] = None,
    fastpath: bool = True,
    kernel: Optional[str] = None,
    kernel_threads: ThreadSpec = None,
    seed_scheme: SchemeSpec = None,
    fleet: bool = False,
    lease_ttl: Optional[float] = None,
    worker_id: Optional[str] = None,
    failure_policy: Optional[FailurePolicy] = None,
) -> GridResult:
    """Sweep the Gilbert (p, q) grid for one configuration.

    Under the default ``"per-run"`` seed scheme this is seed-compatible
    with the historical serial ``simulate_grid``: every (i, j, run) triple
    draws from ``SeedSequence([base_seed, i, j, run])`` and the shared
    code is built from ``default_rng(base_seed)``, so any executor/cache
    combination returns bit-identical arrays.  ``seed_scheme`` selects a
    different :mod:`repro.seeds` derivation (``None``: env / default);
    the resolved name is recorded in the grid metadata.

    ``fleet=True`` executes the sweep cooperatively: units are claimed
    from the shared ``cache`` store under TTL leases
    (:mod:`repro.runner.fleet`), so several processes running this exact
    call against one store split the grid without duplicating work, and
    every process returns the complete, bit-identical result.
    """
    runs = validate_positive_int(runs, "runs")
    scheme_name = resolve_scheme_name(seed_scheme)
    if p_values is None or q_values is None:
        default_p, default_q = paper_grid()
        p_values = default_p if p_values is None else p_values
        q_values = default_q if q_values is None else q_values
    p_values = np.asarray(list(p_values), dtype=float)
    q_values = np.asarray(list(q_values), dtype=float)

    base_seed = as_seed_int(seed)
    cells = [
        ((i, j), config, float(p), float(q))
        for i, p in enumerate(p_values)
        for j, q in enumerate(q_values)
    ]
    units = plan_units(
        cells,
        runs=runs,
        base_seed=base_seed,
        fresh_code_per_run=fresh_code_per_run,
        runs_per_unit=runs_per_unit,
        fastpath=fastpath,
        kernel=kernel,
        kernel_threads=kernel_threads,
        seed_scheme=scheme_name,
    )
    results, unit_failures = _execute(
        units,
        executor=executor,
        workers=workers,
        cache=resolve_store(cache),
        progress=progress,
        total_cells=len(cells),
        fleet=fleet,
        lease_ttl=lease_ttl,
        worker_id=worker_id,
        failure_policy=failure_policy,
    )

    shape = (p_values.size, q_values.size)
    mean_inefficiency = np.full(shape, np.nan)
    mean_received = np.full(shape, np.nan)
    failure_counts = np.zeros(shape, dtype=np.int64)
    for i in range(p_values.size):
        for j in range(q_values.size):
            inefficiency, received, failures = merge_cell(
                _cell_results(results, (i, j))
            )
            mean_inefficiency[i, j] = inefficiency
            mean_received[i, j] = received
            failure_counts[i, j] = failures

    metadata = {
        "code": config.code,
        "tx_model": config.tx_model,
        "k": config.k,
        "expansion_ratio": config.expansion_ratio,
        "nsent": config.nsent,
        "seed": base_seed,
        "seed_scheme": scheme_name,
    }
    if unit_failures:
        metadata["failed_units"] = [failure_summary(f) for f in unit_failures]
    return GridResult(
        p_values=p_values,
        q_values=q_values,
        mean_inefficiency=mean_inefficiency,
        mean_received_ratio=mean_received,
        failure_counts=failure_counts,
        runs=runs,
        label=config.display_label,
        metadata=metadata,
    )


def run_adaptive(
    config: SimulationConfig,
    p_values: Optional[Sequence[float]] = None,
    q_values: Optional[Sequence[float]] = None,
    *,
    runs: int = 100,
    seed: RandomState = 0,
    adaptive=True,
    fresh_code_per_run: bool = False,
    progress: Optional[ProgressCallback] = None,
    executor: ExecutorSpec = "serial",
    workers: Optional[int] = None,
    cache: CacheSpec = None,
    fastpath: bool = True,
    kernel: Optional[str] = None,
    kernel_threads: ThreadSpec = None,
    seed_scheme: SchemeSpec = None,
    fleet: bool = False,
    lease_ttl: Optional[float] = None,
    worker_id: Optional[str] = None,
    failure_policy: Optional[FailurePolicy] = None,
) -> GridResult:
    """Adaptive grid sweep: sequential stopping per cell, same engine.

    ``runs`` is the per-cell *budget*; the controller in
    :mod:`repro.adaptive` extends each cell round by round (through
    :func:`_execute`, so caching/fleet/failure policies apply unchanged)
    and stops it as soon as its confidence intervals are narrow enough.
    ``adaptive`` takes an :class:`repro.adaptive.AdaptiveConfig`, a
    kwargs dict, or ``True`` for the defaults.  Settled cells are
    bit-identical to :func:`run_grid` at the same per-cell run count
    (with ``runs_per_unit=min_runs``), under both seed schemes.
    """
    from repro.adaptive.controller import adaptive_grid

    return adaptive_grid(
        config,
        p_values,
        q_values,
        runs=runs,
        seed=seed,
        adaptive=adaptive,
        fresh_code_per_run=fresh_code_per_run,
        progress=progress,
        executor=executor,
        workers=workers,
        cache=cache,
        fastpath=fastpath,
        kernel=kernel,
        kernel_threads=kernel_threads,
        seed_scheme=seed_scheme,
        fleet=fleet,
        lease_ttl=lease_ttl,
        worker_id=worker_id,
        failure_policy=failure_policy,
    )


def run_series(
    configs: Sequence[SimulationConfig],
    parameter_values: Sequence[float],
    *,
    parameter_name: str = "parameter",
    p: float = 0.0,
    q: float = 1.0,
    runs: int = 10,
    seed: RandomState = 0,
    fresh_code_per_run: bool = False,
    progress: Optional[ProgressCallback] = None,
    executor: ExecutorSpec = "serial",
    workers: Optional[int] = None,
    cache: CacheSpec = None,
    runs_per_unit: Optional[int] = None,
    fastpath: bool = True,
    kernel: Optional[str] = None,
    kernel_threads: ThreadSpec = None,
    seed_scheme: SchemeSpec = None,
    fleet: bool = False,
    lease_ttl: Optional[float] = None,
    worker_id: Optional[str] = None,
    failure_policy: Optional[FailurePolicy] = None,
    label: str = "",
) -> SeriesResult:
    """Sweep a pre-built list of configurations at a fixed (p, q) point.

    ``configs[index]`` is evaluated with run seeds
    ``SeedSequence([base_seed, index, run])`` and a per-index shared code
    built from ``SeedSequence([base_seed, index])``.  Configurations are
    materialised by the caller (rather than passing a factory callable) so
    units stay picklable for the process-pool executor.  ``fleet=True``
    splits the units cooperatively across processes sharing the ``cache``
    store, as in :func:`run_grid`.
    """
    runs = validate_positive_int(runs, "runs")
    if len(configs) != len(parameter_values):
        raise ValueError(
            f"got {len(configs)} configs for {len(parameter_values)} parameter values"
        )
    base_seed = as_seed_int(seed)
    scheme_name = resolve_scheme_name(seed_scheme)
    values = np.asarray(list(parameter_values), dtype=float)
    cells = [
        ((index,), config, float(p), float(q)) for index, config in enumerate(configs)
    ]
    units = plan_units(
        cells,
        runs=runs,
        base_seed=base_seed,
        fresh_code_per_run=fresh_code_per_run,
        code_seed_by_path=True,
        runs_per_unit=runs_per_unit,
        fastpath=fastpath,
        kernel=kernel,
        kernel_threads=kernel_threads,
        seed_scheme=scheme_name,
    )
    results, unit_failures = _execute(
        units,
        executor=executor,
        workers=workers,
        cache=resolve_store(cache),
        progress=progress,
        total_cells=len(cells),
        fleet=fleet,
        lease_ttl=lease_ttl,
        worker_id=worker_id,
        failure_policy=failure_policy,
    )

    means = np.full(values.size, np.nan)
    cell_failures_array = np.zeros(values.size, dtype=np.int64)
    for index in range(values.size):
        mean_inefficiency, _received, cell_failures = merge_cell(
            _cell_results(results, (index,))
        )
        means[index] = mean_inefficiency
        cell_failures_array[index] = cell_failures

    metadata = {"seed": base_seed, "seed_scheme": scheme_name}
    if unit_failures:
        metadata["failed_units"] = [failure_summary(f) for f in unit_failures]
    return SeriesResult(
        parameter_name=parameter_name,
        parameter_values=values,
        mean_inefficiency=means,
        failure_counts=cell_failures_array,
        runs=runs,
        label=label,
        metadata=metadata,
    )


__all__ = [
    "ProgressCallback",
    "ExecutorSpec",
    "CacheSpec",
    "run_grid",
    "run_adaptive",
    "run_series",
]
