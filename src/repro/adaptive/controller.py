"""Round-based adaptive sweep controller.

The paper's figures spend a fixed run budget on every (p, q) cell, but
most cells are statistically settled long before the budget is spent: a
cell that decodes 16 times out of 16 already pins its decode probability
tightly, and the mean inefficiency ratio concentrates even faster.  The
controller here replans the grid round by round:

1. every *active* cell is extended from its current run count to the
   next target of a geometric schedule (``min_runs``, ``min_runs *
   growth``, ... capped at the run budget), planned as ordinary
   :class:`~repro.runner.units.WorkUnit` chunks of ``min_runs`` runs;
2. the new unit results are folded into per-cell
   :class:`~repro.core.metrics.CellStats` (streaming Welford
   accumulators, so the stopping statistics are O(1));
3. a cell *settles* -- leaves the active set -- once its Wilson score
   interval on the decode probability is narrower than ``ci_width`` and,
   for fully-decoding cells, the Student-t interval on the mean
   inefficiency is within ``rel_tol`` of the mean, both at
   ``confidence``.

Determinism contract
--------------------
Rounds only ever *extend* a cell's run range, in chunks of ``min_runs``
starting at run 0, under the unmodified seed derivations.  A cell that
settles after ``n`` runs is therefore planned as exactly the units a
fixed sweep ``run_grid(runs=n, runs_per_unit=min_runs)`` would plan --
same run ranges, same cache keys, same counter windows under the
``"unit"`` scheme -- so its statistics are bit-identical to that fixed
sweep, serial or fleet, under both seed schemes.  (This is why the
schedule targets are kept multiples of ``min_runs``: a geometric round
boundary that split a chunk would change the ``"unit"`` scheme's
streams.)

Cliff refinement
----------------
With ``refine_cliff`` the controller afterwards walks every edge of the
grid whose endpoints disagree on decodability and bisects the channel
parameter between them until the bracket is narrower than
``refine_resolution``, running each probe point as a full adaptive cell.
Probes are planned in lockstep across all cliff edges (one engine round
serves every active bisection), and each probe is emitted as a
first-class grid row -- the full per-cell record (mean inefficiency,
received ratio, failures, run count, Wilson interval) -- under
``metadata["adaptive"]["refined"]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.channel.gilbert import paper_grid
from repro.core.config import SimulationConfig
from repro.core.metrics import CellStats, GridResult
from repro.kernels.threads import ThreadSpec
from repro.resilience.policy import FailurePolicy, UnitFailure, failure_summary
from repro.runner.units import SeedPath, UnitResult, merge_cell, plan_units
from repro.seeds import SchemeSpec, resolve_scheme_name
from repro.store import resolve_store
from repro.utils.rng import RandomState, as_seed_int
from repro.utils.validation import validate_positive_int

__all__ = [
    "AdaptiveConfig",
    "AdaptiveSpec",
    "resolve_adaptive",
    "round_schedule",
    "plan_first_round",
    "adaptive_grid",
]


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs of the sequential stopping rule.

    Attributes
    ----------
    confidence:
        Confidence level of both stopping intervals (default 0.95).
    ci_width:
        A cell settles only once the Wilson score interval on its decode
        probability is at most this wide.
    rel_tol:
        For fully-decoding cells, the Student-t half-width on the mean
        inefficiency must additionally be at most ``rel_tol`` times the
        mean.  Cells with failures report NaN inefficiency (the paper's
        rule), so only their decode probability is held to account.
    min_runs:
        Runs per cell in the first round, and the planning chunk size of
        every later round (the determinism contract's unit granularity).
    growth:
        Geometric escalation factor between round targets (> 1).
    refine_cliff:
        Bisect decodable/undecodable neighbour pairs after the coarse
        grid settles.
    refine_resolution:
        Stop a bisection once its (p or q) bracket is at most this wide.
    """

    confidence: float = 0.95
    ci_width: float = 0.25
    rel_tol: float = 0.02
    min_runs: int = 8
    growth: float = 2.0
    refine_cliff: bool = False
    refine_resolution: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence}")
        if self.ci_width <= 0.0:
            raise ValueError(f"ci_width must be > 0, got {self.ci_width}")
        if self.rel_tol <= 0.0:
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol}")
        if int(self.min_runs) < 2:
            raise ValueError(f"min_runs must be >= 2, got {self.min_runs}")
        object.__setattr__(self, "min_runs", int(self.min_runs))
        if self.growth <= 1.0:
            raise ValueError(f"growth must be > 1, got {self.growth}")
        if self.refine_resolution <= 0.0:
            raise ValueError(
                f"refine_resolution must be > 0, got {self.refine_resolution}"
            )


#: ``adaptive=`` accepts a config, ``True`` (defaults), a kwargs dict, or
#: ``None`` / ``False`` (fixed sweep).
AdaptiveSpec = Union[AdaptiveConfig, bool, dict, None]


def resolve_adaptive(spec: AdaptiveSpec) -> Optional[AdaptiveConfig]:
    """Normalise an ``adaptive=`` argument to a config (or None = off)."""
    if spec is None or spec is False:
        return None
    if spec is True:
        return AdaptiveConfig()
    if isinstance(spec, AdaptiveConfig):
        return spec
    if isinstance(spec, dict):
        return AdaptiveConfig(**spec)
    raise TypeError(
        f"adaptive= expects AdaptiveConfig, bool, dict, or None; got {type(spec)!r}"
    )


def round_schedule(min_runs: int, growth: float, max_runs: int) -> List[int]:
    """Cumulative run targets of the geometric escalation.

    Every target except possibly the final budget is a multiple of
    ``min_runs``, so round boundaries always fall on the fixed-sweep
    chunk grid (the determinism contract).
    """
    max_runs = validate_positive_int(max_runs, "max_runs")
    targets: List[int] = []
    target = min(min_runs, max_runs)
    while True:
        targets.append(target)
        if target >= max_runs:
            return targets
        scaled = int(math.ceil(target * growth / min_runs)) * min_runs
        target = min(max(scaled, target + min_runs), max_runs)


def _settled(stats: CellStats, cfg: AdaptiveConfig) -> bool:
    """The per-cell stopping rule."""
    if stats.runs == 0:
        return False
    low, high = stats.decode_ci(cfg.confidence)
    if high - low > cfg.ci_width:
        return False
    if stats.all_decoded:
        mean = stats.mean_inefficiency
        half = stats.inefficiency_ci_halfwidth(cfg.confidence)
        if not half <= cfg.rel_tol * mean:
            return False
    return True


#: One sweep point handled by the controller: ``(seed_path, config, p, q)``.
Cell = Tuple[SeedPath, SimulationConfig, float, float]


@dataclass
class _CellRun:
    """Mutable per-cell bookkeeping across rounds."""

    stats: CellStats
    results: List[UnitResult]
    planned_runs: int = 0
    settled: bool = False
    rounds: int = 0


def _run_cells(
    cells: Sequence[Cell],
    cfg: AdaptiveConfig,
    budget: int,
    *,
    plan_kwargs: dict,
    execute,
    failures_out: List[UnitFailure],
) -> Dict[SeedPath, _CellRun]:
    """Drive a set of cells through the round loop until all settle.

    ``execute`` is a closure over :func:`repro.runner.engine._execute`
    with the executor/cache/fleet knobs already bound; ``plan_kwargs``
    carries the :func:`plan_units` knobs shared by every round.  Cells
    that refuse to settle stop at ``budget`` runs with ``settled=False``.
    """
    chunk = min(cfg.min_runs, budget)
    state = {path: _CellRun(stats=CellStats(), results=[]) for path, *_ in cells}
    by_path = {path: cell for cell in cells for path in [cell[0]]}
    active = [path for path, *_ in cells]
    previous = 0
    for target in round_schedule(cfg.min_runs, cfg.growth, budget):
        if not active:
            break
        units = plan_units(
            [by_path[path] for path in active],
            runs=target,
            first_run=previous,
            runs_per_unit=chunk,
            **plan_kwargs,
        )
        results, failures = execute(units, total_cells=len(active))
        failures_out.extend(failures)
        for path in active:
            run = state[path]
            run.planned_runs = target
            run.rounds += 1
            for (result_path, _run_start), result in sorted(
                results.items(), key=lambda item: item[0][1]
            ):
                if result_path == path:
                    run.results.append(result)
                    run.stats.add_ratios(
                        result.inefficiency_ratios,
                        result.received_ratios,
                        result.failures,
                    )
        previous = target
        still_active = []
        for path in active:
            if _settled(state[path].stats, cfg):
                state[path].settled = True
            else:
                still_active.append(path)
        active = still_active
    return state


def plan_first_round(
    config: SimulationConfig,
    p_values: Optional[Sequence[float]] = None,
    q_values: Optional[Sequence[float]] = None,
    *,
    runs: int,
    seed: RandomState = 0,
    adaptive: AdaptiveSpec = True,
    fresh_code_per_run: bool = False,
    fastpath: bool = True,
    kernel: Optional[str] = None,
    kernel_threads: ThreadSpec = None,
    seed_scheme: SchemeSpec = None,
):
    """Plan (without executing) the first adaptive round's units.

    Backs the CLI's ``--dry-run``: the returned list is exactly what the
    first call to the engine would receive.
    """
    cfg = resolve_adaptive(adaptive)
    if cfg is None:
        raise ValueError("plan_first_round needs an adaptive config")
    runs = validate_positive_int(runs, "runs")
    if p_values is None or q_values is None:
        default_p, default_q = paper_grid()
        p_values = default_p if p_values is None else p_values
        q_values = default_q if q_values is None else q_values
    cells: List[Cell] = [
        ((i, j), config, float(p), float(q))
        for i, p in enumerate(p_values)
        for j, q in enumerate(q_values)
    ]
    first_target = min(cfg.min_runs, runs)
    return plan_units(
        cells,
        runs=first_target,
        first_run=0,
        runs_per_unit=min(cfg.min_runs, runs),
        base_seed=as_seed_int(seed),
        fresh_code_per_run=fresh_code_per_run,
        fastpath=fastpath,
        kernel=kernel,
        kernel_threads=kernel_threads,
        seed_scheme=resolve_scheme_name(seed_scheme),
    )


def _refine_cliffs(
    cfg: AdaptiveConfig,
    budget: int,
    config: SimulationConfig,
    p_values: np.ndarray,
    q_values: np.ndarray,
    decodable: np.ndarray,
    *,
    plan_kwargs: dict,
    execute,
    failures_out: List[UnitFailure],
) -> Tuple[List[dict], List[dict], int]:
    """Bisect every decodable/undecodable neighbour pair on the grid.

    Returns ``(refined_rows, cliffs, refined_planned_runs)``.  Probe seed
    paths are 4-tuples ``(axis, i, j, step)`` -- disjoint by length from
    the grid's ``(i, j)`` paths, and unique because each edge probes one
    midpoint per bisection step.
    """
    edges: List[dict] = []
    for j in range(q_values.size):
        for i in range(p_values.size - 1):
            if decodable[i, j] != decodable[i + 1, j]:
                edges.append(
                    {
                        "axis": "p",
                        "i": i,
                        "j": j,
                        "low": float(p_values[i]),
                        "high": float(p_values[i + 1]),
                        "low_decodable": bool(decodable[i, j]),
                    }
                )
    for i in range(p_values.size):
        for j in range(q_values.size - 1):
            if decodable[i, j] != decodable[i, j + 1]:
                edges.append(
                    {
                        "axis": "q",
                        "i": i,
                        "j": j,
                        "low": float(q_values[j]),
                        "high": float(q_values[j + 1]),
                        "low_decodable": bool(decodable[i, j]),
                    }
                )

    refined_rows: List[dict] = []
    refined_runs = 0
    step = 0
    active = [edge for edge in edges if edge["high"] - edge["low"] > cfg.refine_resolution]
    while active and step < 64:
        probes: List[Cell] = []
        probe_edges: Dict[SeedPath, Tuple[dict, float]] = {}
        for edge in active:
            mid = 0.5 * (edge["low"] + edge["high"])
            axis_code = 0 if edge["axis"] == "p" else 1
            path: SeedPath = (axis_code, edge["i"], edge["j"], step)
            if edge["axis"] == "p":
                p, q = mid, float(q_values[edge["j"]])
            else:
                p, q = float(p_values[edge["i"]]), mid
            probes.append((path, config, p, q))
            probe_edges[path] = (edge, mid)
        state = _run_cells(
            probes,
            cfg,
            budget,
            plan_kwargs=plan_kwargs,
            execute=execute,
            failures_out=failures_out,
        )
        for path, _config, p, q in probes:
            run = state[path]
            edge, mid = probe_edges[path]
            refined_runs += run.planned_runs
            mean_ineff, mean_received, cell_failures = merge_cell(run.results)
            low_ci, high_ci = run.stats.decode_ci(cfg.confidence)
            refined_rows.append(
                {
                    "p": p,
                    "q": q,
                    "axis": edge["axis"],
                    "mean_inefficiency": mean_ineff,
                    "mean_received_ratio": mean_received,
                    "failures": cell_failures,
                    "runs": run.stats.runs,
                    "decode_probability": run.stats.decode_probability,
                    "decode_ci": [low_ci, high_ci],
                    "settled": run.settled,
                }
            )
            # Shrink the bracket towards the cliff: the midpoint joins
            # whichever side it agrees with on decodability.
            if run.stats.all_decoded == edge["low_decodable"]:
                edge["low"] = mid
            else:
                edge["high"] = mid
        step += 1
        active = [
            edge for edge in active if edge["high"] - edge["low"] > cfg.refine_resolution
        ]

    cliffs = [
        {
            "axis": edge["axis"],
            "p": float(p_values[edge["i"]]) if edge["axis"] == "q" else None,
            "q": float(q_values[edge["j"]]) if edge["axis"] == "p" else None,
            "bracket": [edge["low"], edge["high"]],
            "decodable_at_low": edge["low_decodable"],
        }
        for edge in edges
    ]
    return refined_rows, cliffs, refined_runs


def adaptive_grid(
    config: SimulationConfig,
    p_values: Optional[Sequence[float]] = None,
    q_values: Optional[Sequence[float]] = None,
    *,
    runs: int = 100,
    seed: RandomState = 0,
    adaptive: AdaptiveSpec = True,
    fresh_code_per_run: bool = False,
    progress=None,
    executor="serial",
    workers: Optional[int] = None,
    cache=None,
    fastpath: bool = True,
    kernel: Optional[str] = None,
    kernel_threads: ThreadSpec = None,
    seed_scheme: SchemeSpec = None,
    fleet: bool = False,
    lease_ttl: Optional[float] = None,
    worker_id: Optional[str] = None,
    failure_policy: Optional[FailurePolicy] = None,
) -> GridResult:
    """Adaptive (p, q) grid sweep; ``runs`` is the per-cell budget.

    The result is shaped exactly like :func:`repro.runner.engine.run_grid`
    output -- every settled cell's statistics are bit-identical to a
    fixed sweep at that cell's final run count -- with the controller's
    accounting under ``metadata["adaptive"]``: per-cell run counts and
    settlement, the round schedule, the executed-vs-exhaustive run
    totals, and (with ``refine_cliff``) the refined rows and localised
    cliff brackets.
    """
    from repro.runner.engine import _execute
    from repro.runner.executors import executor_scope

    cfg = resolve_adaptive(adaptive)
    if cfg is None:
        raise ValueError("adaptive_grid needs an adaptive config (adaptive=...)")
    runs = validate_positive_int(runs, "runs")
    scheme_name = resolve_scheme_name(seed_scheme)
    if p_values is None or q_values is None:
        default_p, default_q = paper_grid()
        p_values = default_p if p_values is None else p_values
        q_values = default_q if q_values is None else q_values
    p_values = np.asarray(list(p_values), dtype=float)
    q_values = np.asarray(list(q_values), dtype=float)
    base_seed = as_seed_int(seed)
    store = resolve_store(cache)

    plan_kwargs = dict(
        base_seed=base_seed,
        fresh_code_per_run=fresh_code_per_run,
        fastpath=fastpath,
        kernel=kernel,
        kernel_threads=kernel_threads,
        seed_scheme=scheme_name,
    )

    # One executor for every round and the cliff refinement: a process
    # pool starts once and keeps its warm caches across rounds.
    with executor_scope(executor, workers, failure_policy) as runner:
        def execute(units, total_cells):
            return _execute(
                units,
                executor=runner,
                workers=workers,
                cache=store,
                progress=progress,
                total_cells=total_cells,
                fleet=fleet,
                lease_ttl=lease_ttl,
                worker_id=worker_id,
                failure_policy=failure_policy,
            )

        cells: List[Cell] = [
            ((i, j), config, float(p), float(q))
            for i, p in enumerate(p_values)
            for j, q in enumerate(q_values)
        ]
        unit_failures: List[UnitFailure] = []
        state = _run_cells(
            cells,
            cfg,
            runs,
            plan_kwargs=plan_kwargs,
            execute=execute,
            failures_out=unit_failures,
        )

        shape = (p_values.size, q_values.size)
        mean_inefficiency = np.full(shape, np.nan)
        mean_received = np.full(shape, np.nan)
        failure_counts = np.zeros(shape, dtype=np.int64)
        runs_per_cell = np.zeros(shape, dtype=np.int64)
        settled = np.zeros(shape, dtype=bool)
        rounds_per_cell = np.zeros(shape, dtype=np.int64)
        for i in range(p_values.size):
            for j in range(q_values.size):
                run = state[(i, j)]
                inefficiency, received, cell_failures = merge_cell(run.results)
                mean_inefficiency[i, j] = inefficiency
                mean_received[i, j] = received
                failure_counts[i, j] = cell_failures
                runs_per_cell[i, j] = run.planned_runs
                settled[i, j] = run.settled
                rounds_per_cell[i, j] = run.rounds

        executed = int(runs_per_cell.sum())
        exhaustive = int(len(cells) * runs)
        adaptive_meta = {
            "confidence": cfg.confidence,
            "ci_width": cfg.ci_width,
            "rel_tol": cfg.rel_tol,
            "min_runs": cfg.min_runs,
            "growth": cfg.growth,
            "budget": runs,
            "schedule": round_schedule(cfg.min_runs, cfg.growth, runs),
            "rounds": int(rounds_per_cell.max()) if rounds_per_cell.size else 0,
            "runs_per_cell": runs_per_cell.tolist(),
            "settled": settled.tolist(),
            "executed_runs": executed,
            "exhaustive_runs": exhaustive,
            "saved_runs": exhaustive - executed,
            "saved_fraction": (
                (exhaustive - executed) / exhaustive if exhaustive else 0.0
            ),
        }

        if cfg.refine_cliff:
            decodable = (failure_counts == 0) & np.isfinite(mean_inefficiency)
            refined_rows, cliffs, refined_runs = _refine_cliffs(
                cfg,
                runs,
                config,
                p_values,
                q_values,
                decodable,
                plan_kwargs=plan_kwargs,
                execute=execute,
                failures_out=unit_failures,
            )
            adaptive_meta["refined"] = refined_rows
            adaptive_meta["cliffs"] = cliffs
            adaptive_meta["refined_runs"] = refined_runs
            adaptive_meta["resolution"] = cfg.refine_resolution

    metadata = {
        "code": config.code,
        "tx_model": config.tx_model,
        "k": config.k,
        "expansion_ratio": config.expansion_ratio,
        "nsent": config.nsent,
        "seed": base_seed,
        "seed_scheme": scheme_name,
        "adaptive": adaptive_meta,
    }
    if unit_failures:
        metadata["failed_units"] = [failure_summary(f) for f in unit_failures]
    return GridResult(
        p_values=p_values,
        q_values=q_values,
        mean_inefficiency=mean_inefficiency,
        mean_received_ratio=mean_received,
        failure_counts=failure_counts,
        runs=int(runs_per_cell.max()) if runs_per_cell.size else runs,
        label=config.display_label,
        metadata=metadata,
    )
