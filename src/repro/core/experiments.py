"""Declarative presets for every figure and table of the paper.

Each :class:`ExperimentSpec` records which configurations a figure/table
compares and which grid it sweeps; :func:`run_experiment` executes it at one
of the predefined scales.  The benchmark harness (``benchmarks/``) is a thin
wrapper around these presets, and ``EXPERIMENTS.md`` records how the
reproduced shapes compare with the paper.

Scales
------
The paper uses k = 20000 packets, 100 runs per (p, q) point and a 14 x 14
grid -- roughly 2 million simulated transmissions per figure, which the
authors ran with a C codec.  Pure Python cannot do that in a benchmark run,
so three scales are provided:

* ``tiny``  -- for unit/integration tests (k = 200, 3 runs, 4 x 4 grid).
* ``small`` -- default for the benchmark harness (k = 2000, 4 runs,
  7 x 7 grid); preserves the qualitative shapes, although RSE's
  coupon-collector penalty is smaller than at k = 20000 because the object
  spans fewer blocks.
* ``paper`` -- the original parameters, for users who want to let it run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

from repro.channel.gilbert import PAPER_GRID_PERCENT
from repro.core.config import SimulationConfig
from repro.core.metrics import GridResult
from repro.core.sweep import simulate_grid
from repro.runner.engine import CacheSpec, ExecutorSpec, ProgressCallback
from repro.runner.executors import executor_scope
from repro.utils.rng import RandomState

#: Callback invoked with the 1-based index of the configuration about to be
#: simulated; returns the per-grid progress callback for it (or ``None``).
ProgressFactory = Callable[[int], Optional[ProgressCallback]]

#: Reduced (p, q) axis used by the "small" scale (percent).
SMALL_GRID_PERCENT: tuple[int, ...] = (0, 1, 5, 10, 20, 40, 70)

#: Reduced (p, q) axis used by the "tiny" scale (percent).
TINY_GRID_PERCENT: tuple[int, ...] = (0, 5, 20, 50)


@dataclass(frozen=True)
class ExperimentScale:
    """Size parameters of an experiment run."""

    name: str
    k: int
    runs: int
    grid_percent: tuple[int, ...]

    @property
    def p_values(self) -> list[float]:
        return [value / 100.0 for value in self.grid_percent]

    @property
    def q_values(self) -> list[float]:
        return [value / 100.0 for value in self.grid_percent]


SCALES: Dict[str, ExperimentScale] = {
    "tiny": ExperimentScale(name="tiny", k=200, runs=3, grid_percent=TINY_GRID_PERCENT),
    "small": ExperimentScale(name="small", k=2000, runs=4, grid_percent=SMALL_GRID_PERCENT),
    "paper": ExperimentScale(name="paper", k=20000, runs=100, grid_percent=PAPER_GRID_PERCENT),
}


@dataclass(frozen=True)
class ExperimentSpec:
    """One figure/table of the paper expressed as a set of configurations.

    Attributes
    ----------
    experiment_id:
        Short identifier, e.g. ``"fig09"`` or ``"table5"``.
    title:
        Human-readable description.
    paper_reference:
        Figure/table number in the paper.
    configs:
        The configurations compared by the figure.  ``k`` in these configs
        is a placeholder; :func:`run_experiment` replaces it with the value
        of the chosen scale.
    notes:
        Free-form remarks (e.g. what shape to expect).
    """

    experiment_id: str
    title: str
    paper_reference: str
    configs: tuple[SimulationConfig, ...]
    notes: str = ""

    def scaled_configs(self, scale: ExperimentScale) -> list[SimulationConfig]:
        """The experiment's configurations with ``k`` set for ``scale``."""
        return [config.with_updates(k=scale.k) for config in self.configs]


def _config(code: str, tx_model: str, ratio: float, **kwargs) -> SimulationConfig:
    label = f"{code} / {tx_model} / ratio {ratio}"
    return SimulationConfig(
        code=code,
        tx_model=tx_model,
        k=1000,  # placeholder, replaced per scale
        expansion_ratio=ratio,
        label=label,
        **kwargs,
    )


def _tx_model_experiment(
    experiment_id: str,
    title: str,
    paper_reference: str,
    tx_model: str,
    codes: Sequence[str],
    ratios: Sequence[float],
    notes: str = "",
    **kwargs,
) -> ExperimentSpec:
    configs = tuple(
        _config(code, tx_model, ratio, **kwargs) for ratio in ratios for code in codes
    )
    return ExperimentSpec(
        experiment_id=experiment_id,
        title=title,
        paper_reference=paper_reference,
        configs=configs,
        notes=notes,
    )


ALL_CODES = ("rse", "ldgm-staircase", "ldgm-triangle")
BOTH_RATIOS = (1.5, 2.5)

EXPERIMENTS: Dict[str, ExperimentSpec] = {}


def _register(spec: ExperimentSpec) -> None:
    EXPERIMENTS[spec.experiment_id] = spec


_register(
    ExperimentSpec(
        experiment_id="fig07",
        title="No FEC, two repetitions of every packet, random order",
        paper_reference="Figure 7",
        configs=(_config("repetition", "tx_model_4", 2.0),),
        notes="Decoding only succeeds for p = 0; inefficiency is then close to 2.",
    )
)
_register(
    _tx_model_experiment(
        "fig08",
        "Tx_model_1: source sequentially, then parity sequentially",
        "Figure 8",
        "tx_model_1",
        ("rse", "ldgm-triangle"),
        BOTH_RATIOS,
        notes="Inefficiency tracks n_received/k: receivers wait for the end of the transmission.",
    )
)
_register(
    _tx_model_experiment(
        "fig09",
        "Tx_model_2: source sequentially, then parity randomly",
        "Figure 9 / Tables 1-4",
        "tx_model_2",
        ALL_CODES,
        BOTH_RATIOS,
        notes="LDGM codes outperform RSE; Staircase shines at low loss, Triangle elsewhere.",
    )
)
_register(
    _tx_model_experiment(
        "fig10",
        "Tx_model_3: parity sequentially, then source randomly",
        "Figure 10",
        "tx_model_3",
        ALL_CODES,
        BOTH_RATIOS,
        notes="At p = 0 the inefficiency is about the expansion ratio minus the code rate.",
    )
)
_register(
    _tx_model_experiment(
        "fig11",
        "Tx_model_4: everything in random order",
        "Figure 11 / Tables 5-6",
        "tx_model_4",
        ALL_CODES,
        BOTH_RATIOS,
        notes="Performance nearly independent of the loss pattern; LDGM Triangle best.",
    )
)
_register(
    _tx_model_experiment(
        "fig12",
        "Tx_model_5: interleaving",
        "Figure 12 / Tables 7-8",
        "tx_model_5",
        ("rse",),
        BOTH_RATIOS,
        notes="Interleaving is the best scheme for RSE, for every loss pattern.",
    )
)
_register(
    _tx_model_experiment(
        "fig13",
        "Tx_model_6: 20% of the source packets plus all parity packets, random order",
        "Figure 13 / Table 9",
        "tx_model_6",
        ALL_CODES,
        (2.5,),
        notes="LDGM Staircase outperforms Triangle here (unusual).",
        tx_options={"source_fraction": 0.2},
    )
)
_register(
    ExperimentSpec(
        experiment_id="fig14",
        title="Rx_model_1: receive a few source packets, then parity randomly",
        paper_reference="Figure 14",
        configs=(_config("ldgm-staircase", "rx_model_1", 2.5, tx_options={"num_source_packets": 1}),),
        notes="Swept over the number of received source packets; optimum around 2-5% of k.",
    )
)
_register(
    _tx_model_experiment(
        "fig15",
        "Per-transmission-model comparison at the Amherst-Los Angeles channel",
        "Figure 15",
        "tx_model_2",
        ALL_CODES,
        BOTH_RATIOS,
        notes="The bench runs every tx model at (p, q) = (0.0109, 0.7915).",
    )
)

# Appendix tables map to the corresponding figures' sweeps.
TABLE_TO_EXPERIMENT: Dict[str, tuple[str, str, float]] = {
    "table1": ("fig09", "ldgm-triangle", 2.5),
    "table2": ("fig09", "ldgm-staircase", 2.5),
    "table3": ("fig09", "ldgm-triangle", 1.5),
    "table4": ("fig09", "ldgm-staircase", 1.5),
    "table5": ("fig11", "ldgm-triangle", 2.5),
    "table6": ("fig11", "ldgm-triangle", 1.5),
    "table7": ("fig12", "rse", 2.5),
    "table8": ("fig12", "rse", 1.5),
    "table9": ("fig13", "ldgm-staircase", 2.5),
}


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Look up an experiment preset (raises ``KeyError`` with guidance)."""
    key = experiment_id.lower()
    if key in TABLE_TO_EXPERIMENT:
        key = TABLE_TO_EXPERIMENT[key][0]
    if key not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: "
            f"{', '.join(sorted(EXPERIMENTS))} and tables "
            f"{', '.join(sorted(TABLE_TO_EXPERIMENT))}"
        )
    return EXPERIMENTS[key]


def run_experiment(
    experiment_id: str,
    scale: str | ExperimentScale = "small",
    *,
    seed: RandomState = 0,
    runs: Optional[int] = None,
    executor: ExecutorSpec = None,
    workers: Optional[int] = None,
    cache: CacheSpec = None,
    fastpath: bool = True,
    kernel: Optional[str] = None,
    kernel_threads=None,
    seed_scheme=None,
    fleet: bool = False,
    lease_ttl: Optional[float] = None,
    worker_id: Optional[str] = None,
    failure_policy=None,
    adaptive=None,
    progress_factory: Optional[ProgressFactory] = None,
) -> Dict[str, GridResult]:
    """Run every configuration of an experiment and return grids by label.

    Parameters
    ----------
    experiment_id:
        Experiment or table identifier (``"fig09"``, ``"table5"``, ...).
    scale:
        One of ``"tiny"``, ``"small"``, ``"paper"`` or a custom
        :class:`ExperimentScale`.
    runs:
        Override the scale's number of runs per grid point.
    executor, workers, cache, seed_scheme:
        Execution, caching and seeding knobs forwarded to
        :func:`repro.core.sweep.simulate_grid`; by default the serial
        executor is used unless ``workers > 1`` selects the process pool,
        and the seed scheme resolves ``REPRO_SEED_SCHEME`` / ``"per-run"``.
    fleet, lease_ttl, worker_id:
        Cooperative fleet-execution knobs (see
        :func:`repro.core.sweep.simulate_grid`): with ``fleet=True``,
        processes sharing the ``cache`` store split each grid under TTL
        leases and all return the complete, bit-identical result.
    failure_policy:
        Optional :class:`repro.resilience.FailurePolicy` forwarded to
        every sweep: retries with deterministic backoff, per-unit
        timeouts, and skip/quarantine handling of units that exhaust
        their attempts.
    adaptive:
        ``None`` (default) runs fixed sweeps; an
        :class:`repro.adaptive.AdaptiveConfig` (or ``True`` / a kwargs
        dict) switches every grid to the sequential-stopping controller,
        with ``runs`` as the per-cell budget.
    progress_factory:
        Called with the 1-based index of each configuration before its
        sweep; returns that sweep's ``(done, total)`` progress callback.
    """
    spec = get_experiment(experiment_id)
    if isinstance(scale, str):
        if scale not in SCALES:
            raise KeyError(f"unknown scale {scale!r}; available: {', '.join(SCALES)}")
        scale = SCALES[scale]
    results: Dict[str, GridResult] = {}
    # One executor for every config: a process pool starts once per
    # experiment, not once per config.
    with executor_scope(executor, workers, failure_policy) as runner:
        for index, config in enumerate(spec.scaled_configs(scale), start=1):
            progress = progress_factory(index) if progress_factory is not None else None
            grid = simulate_grid(
                config,
                scale.p_values,
                scale.q_values,
                runs=runs if runs is not None else scale.runs,
                seed=seed,
                progress=progress,
                executor=runner,
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
                adaptive=adaptive,
            )
            results[config.display_label] = grid
    return results


__all__ = [
    "ExperimentScale",
    "ExperimentSpec",
    "SCALES",
    "EXPERIMENTS",
    "TABLE_TO_EXPERIMENT",
    "get_experiment",
    "run_experiment",
]
