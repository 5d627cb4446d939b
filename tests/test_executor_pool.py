"""One process pool per command: pool-count contract and pool lifecycle.

A :class:`~repro.runner.executors.ProcessExecutor` starts its pool on the
first ``run()`` and reuses it until ``close()``; whoever resolves an
executor from a name owns and closes it (``executor_scope``).  These
tests count ``ProcessPoolExecutor`` constructions and check that no pool
children outlive the call that owned them.
"""

import multiprocessing
import os
import signal
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.adaptive import AdaptiveConfig
from repro.analysis.csvio import grid_to_csv
from repro.core.config import SimulationConfig
from repro.core.experiments import run_experiment
from repro.core.sweep import simulate_grid
from repro.resilience import FailurePolicy, PoisonUnitError
from repro.runner import executors
from repro.runner.cli import main
from repro.runner.executors import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    executor_scope,
)
from repro.runner.units import execute_unit, plan_units

SCHEMES = ("per-run", "unit")


@pytest.fixture
def config() -> SimulationConfig:
    return SimulationConfig(
        code="ldgm-staircase", tx_model="tx_model_2", k=200, expansion_ratio=2.5
    )


@pytest.fixture
def pool_starts(monkeypatch):
    """Count ``ProcessPoolExecutor`` constructions made by the executors."""
    starts = []

    class CountingPool(executors.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(executors, "ProcessPoolExecutor", CountingPool)
    return starts


def _csv_bytes(grids):
    return {label: grid_to_csv(grid) for label, grid in grids.items()}


class TestPoolCount:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_adaptive_multi_config_sweep_starts_one_pool(self, scheme, pool_starts):
        kwargs = dict(
            scale="tiny",
            seed=4,
            runs=8,
            seed_scheme=scheme,
            adaptive=AdaptiveConfig(min_runs=2),
        )
        serial = run_experiment("fig12", **kwargs)
        assert pool_starts == []
        parallel = run_experiment("fig12", executor="process", workers=2, **kwargs)
        # Two configs, several adaptive rounds each: one pool of 2 workers.
        assert len(parallel) == 2
        assert all(
            len(grid.metadata["adaptive"]["schedule"]) > 1 for grid in parallel.values()
        )
        assert pool_starts == [2]
        assert _csv_bytes(parallel) == _csv_bytes(serial)
        assert multiprocessing.active_children() == []

    def test_adaptive_rounds_of_one_grid_share_one_pool(self, config, pool_starts):
        kwargs = dict(runs=8, seed=5, adaptive=AdaptiveConfig(min_runs=2))
        serial = simulate_grid(config, [0.0, 0.3], [0.2, 1.0], **kwargs)
        parallel = simulate_grid(
            config, [0.0, 0.3], [0.2, 1.0], executor="process", workers=2, **kwargs
        )
        assert parallel.metadata["adaptive"]["rounds"] > 1
        assert pool_starts == [2]
        assert grid_to_csv(parallel) == grid_to_csv(serial)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_fleet_claim_batches_share_one_pool(self, scheme, pool_starts, tmp_path):
        kwargs = dict(scale="tiny", seed=2, runs=2, seed_scheme=scheme)
        serial = run_experiment("fig07", **kwargs)
        fleet = run_experiment(
            "fig07",
            executor="process",
            workers=2,
            cache=f"sqlite:{tmp_path / 'fleet.db'}",
            fleet=True,
            **kwargs,
        )
        # 16 one-cell units claimed 2 x workers = 4 at a time: 4 claim
        # batches, one pool.
        assert pool_starts == [2]
        assert _csv_bytes(fleet) == _csv_bytes(serial)
        assert multiprocessing.active_children() == []

    def test_borrowed_executor_is_reused_and_left_open(self, config, pool_starts):
        serial = simulate_grid(config, [0.0, 0.1], [0.5, 1.0], runs=2, seed=3)
        with ProcessExecutor(2) as executor:
            for _ in range(2):
                grid = simulate_grid(
                    config, [0.0, 0.1], [0.5, 1.0], runs=2, seed=3, executor=executor
                )
                assert grid_to_csv(grid) == grid_to_csv(serial)
                assert multiprocessing.active_children() != []
        assert pool_starts == [2]
        assert multiprocessing.active_children() == []


class TestLifecycle:
    def test_scope_closes_what_it_resolved(self, config):
        units = plan_units([((0,), config, 0.0, 0.5)], runs=2, base_seed=1)
        with executor_scope("process", 2) as owned:
            owned.run(units, lambda result: None)
            assert multiprocessing.active_children() != []
        assert multiprocessing.active_children() == []
        # Serial and thread executors hold nothing between runs.
        for name, kind in (("serial", SerialExecutor), ("thread", ThreadExecutor)):
            with executor_scope(name, 2) as executor:
                assert isinstance(executor, kind)

    def test_no_children_after_unit_raises(self, config):
        with pytest.raises(PoisonUnitError):
            simulate_grid(
                config,
                [0.0, 1.5],  # p = 1.5 is rejected inside the worker
                [0.5],
                runs=2,
                executor="process",
                workers=2,
                failure_policy=FailurePolicy(max_retries=0, on_error="raise"),
            )
        assert multiprocessing.active_children() == []

    def test_no_children_after_cli_exits(self, capsys):
        code = main(
            [
                "run", "fig12", "--scale", "tiny", "--runs", "4",
                "--adaptive", "--min-runs", "2",
                "--workers", "2", "--executor", "process",
                "--no-cache", "--quiet",
            ]
        )
        assert code == 0
        assert "workers=2" in capsys.readouterr().out
        assert multiprocessing.active_children() == []

    def test_killed_worker_fails_the_run_then_a_fresh_pool_serves(
        self, config, pool_starts
    ):
        cells = [((i,), config, 0.02 * i, 0.5) for i in range(12)]
        units = plan_units(cells, runs=2, base_seed=9)
        expected = {unit.seed_path: execute_unit(unit) for unit in units}

        killed = []

        def kill_a_worker(_result):
            if not killed:
                victim = multiprocessing.active_children()[0]
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(timeout=30)
                killed.append(victim)

        with ProcessExecutor(2, chunk_size=1) as executor:
            with pytest.raises(BrokenProcessPool):
                executor.run(units, kill_a_worker)
            results = {}
            executor.run(
                units, lambda result: results.setdefault(result.seed_path, result)
            )
        assert pool_starts == [2, 2]
        assert multiprocessing.active_children() == []
        assert results == expected
