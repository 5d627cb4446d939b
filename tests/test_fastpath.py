"""Equivalence suite for the vectorised decode fast path.

The contract of :mod:`repro.fastpath` is *bit-identity*: for any seed, the
batched decoders must produce exactly the :class:`RunResult`s the
incremental per-packet path produces.  These tests enforce the contract
across every registered code family, the six transmission models plus the
reception model, the Gilbert / Bernoulli / periodic / perfect channels and
``nsent`` truncation, using the same ``SeedSequence`` scheme the runner
uses.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.channel.bernoulli import BernoulliChannel, PerfectChannel
from repro.channel.gilbert import GilbertChannel
from repro.channel.periodic import PeriodicBurstChannel
from repro.core.config import SimulationConfig
from repro.core.simulator import Simulator
from repro.core.sweep import simulate_grid, sweep_parameter
from repro.fastpath import (
    IncrementalPrototype,
    LDGMPrototype,
    compile_prototype,
    simulate_batch,
)
from repro.fastpath.prototypes import NOT_DECODED, BlockCountPrototype
from repro.fec.registry import make_code
from repro.kernels import available_backends
from repro.runner.units import WorkUnit, execute_unit
from repro.scheduling.registry import make_tx_model

#: Every kernel backend this machine can run: the equivalence contract
#: holds for all of them, so the parity machinery sweeps each one.
KERNELS = list(available_backends())

#: One representative configuration per code family.
CODES = [
    ("ldgm-staircase", 2.5),
    ("ldgm-triangle", 2.5),
    ("ldgm", 1.5),
    ("rse", 2.5),
    ("repetition", 2.0),
]

CHANNELS = [
    GilbertChannel(0.05, 0.5),
    GilbertChannel(0.3, 0.2),
    GilbertChannel(0.9, 0.05),
    BernoulliChannel(0.2),
    PeriodicBurstChannel(10, 3),
    PerfectChannel(),
]

TX_MODELS = [f"tx_model_{i}" for i in range(1, 7)]


def legacy_runs(code, tx_model, channel, rngs, nsent=None):
    """Reference results: one incremental Simulator.run per generator."""
    return [
        Simulator(code, tx_model, channel).run(rng, nsent=nsent) for rng in rngs
    ]


def seeded_rngs(salt, runs):
    return [
        np.random.default_rng(np.random.SeedSequence([421, salt, run]))
        for run in range(runs)
    ]


class TestBatchEquivalence:
    @pytest.mark.parametrize("code_name,ratio", CODES)
    @pytest.mark.parametrize("tx_name", TX_MODELS)
    def test_codes_by_tx_model(self, code_name, ratio, tx_name):
        code = make_code(code_name, k=120, expansion_ratio=ratio, seed=3)
        tx_model = make_tx_model(tx_name)
        for salt, channel in enumerate(CHANNELS):
            expected = legacy_runs(code, tx_model, channel, seeded_rngs(salt, 5))
            actual = simulate_batch(
                code, tx_model, channel, seeded_rngs(salt, 5)
            )
            assert actual == expected

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("code_name,ratio", CODES)
    def test_codes_by_kernel_backend(self, kernel, code_name, ratio):
        code = make_code(code_name, k=90, expansion_ratio=ratio, seed=6)
        tx_model = make_tx_model("tx_model_2")
        for salt, channel in enumerate(CHANNELS[:4]):
            expected = legacy_runs(code, tx_model, channel, seeded_rngs(salt, 4))
            actual = simulate_batch(
                code, tx_model, channel, seeded_rngs(salt, 4), kernel=kernel
            )
            assert actual == expected, f"kernel {kernel} diverged on {code_name}"

    @pytest.mark.parametrize("code_name,ratio", CODES)
    def test_nsent_truncation(self, code_name, ratio):
        code = make_code(code_name, k=100, expansion_ratio=ratio, seed=1)
        tx_model = make_tx_model("tx_model_2")
        channel = GilbertChannel(0.1, 0.4)
        for nsent in (1, 50, 120, 10_000):
            expected = legacy_runs(
                code, tx_model, channel, seeded_rngs(nsent, 4), nsent=nsent
            )
            actual = simulate_batch(
                code, tx_model, channel, seeded_rngs(nsent, 4), nsent=nsent
            )
            assert actual == expected

    def test_rx_model(self):
        code = make_code("ldgm-staircase", k=150, expansion_ratio=2.5, seed=7)
        tx_model = make_tx_model("rx_model_1", num_source_packets=40)
        channel = PerfectChannel()
        expected = legacy_runs(code, tx_model, channel, seeded_rngs(0, 4))
        assert simulate_batch(code, tx_model, channel, seeded_rngs(0, 4)) == expected

    def test_total_loss_and_undecodable(self):
        code = make_code("ldgm-staircase", k=60, expansion_ratio=2.5, seed=2)
        tx_model = make_tx_model("tx_model_1")
        for channel in (BernoulliChannel(1.0), BernoulliChannel(0.95)):
            expected = legacy_runs(code, tx_model, channel, seeded_rngs(1, 5))
            actual = simulate_batch(code, tx_model, channel, seeded_rngs(1, 5))
            assert actual == expected
        assert not any(result.decoded for result in actual)

    def test_shared_generator_matches_run_many(self):
        code = make_code("ldgm-triangle", k=150, expansion_ratio=2.5, seed=2)

        def build():
            return Simulator(
                code, make_tx_model("tx_model_3"), GilbertChannel(0.1, 0.4)
            )

        expected = build().run_many(8, rng=5, fastpath=False)
        assert build().run_many(8, rng=5, fastpath=True) == expected

    def test_duplicate_indices_in_schedule(self):
        # Models never emit duplicates, but the decoders tolerate them; the
        # batch path must agree run by run.
        class DuplicatingModel:
            name = "dup"

            def schedule(self, layout, rng=None):
                base = np.arange(layout.n, dtype=np.int64)
                rng.shuffle(base)
                return np.concatenate([base[:10], base])

            def validate_schedule(self, layout, schedule):
                return np.asarray(schedule, dtype=np.int64)

        for code_name, ratio in CODES:
            code = make_code(code_name, k=60, expansion_ratio=ratio, seed=4)
            tx_model = DuplicatingModel()
            channel = GilbertChannel(0.2, 0.3)
            expected = legacy_runs(code, tx_model, channel, seeded_rngs(2, 4))
            assert (
                simulate_batch(code, tx_model, channel, seeded_rngs(2, 4))
                == expected
            )


class TestPrototypes:
    def test_registry_dispatch(self):
        assert isinstance(
            compile_prototype(make_code("ldgm-staircase", k=20, n=50, seed=0)),
            LDGMPrototype,
        )
        assert isinstance(
            compile_prototype(make_code("rse", k=20, n=50)), BlockCountPrototype
        )
        assert isinstance(
            compile_prototype(make_code("repetition", k=20, n=40)),
            BlockCountPrototype,
        )

    def test_prototype_cached_per_instance(self):
        code = make_code("ldgm-staircase", k=20, n=50, seed=0)
        assert compile_prototype(code) is compile_prototype(code)
        other = make_code("ldgm-staircase", k=20, n=50, seed=0)
        assert compile_prototype(other) is not compile_prototype(code)

    def test_incremental_fallback_matches(self):
        # The fallback prototype replays the incremental decoder, so using
        # it on a registered code must reproduce the specialised results.
        code = make_code("ldgm-staircase", k=80, expansion_ratio=2.5, seed=5)
        specialised = compile_prototype(code)
        fallback = IncrementalPrototype(code)
        received = [
            np.random.default_rng(np.random.SeedSequence([7, run])).permutation(
                np.arange(code.n, dtype=np.int64)
            )[: 80 + 30 * (run % 3)]
            for run in range(6)
        ]
        decoded_a, necessary_a = specialised.decode_batch(received)
        decoded_b, necessary_b = fallback.decode_batch(received)
        assert np.array_equal(decoded_a, decoded_b)
        assert np.array_equal(necessary_a, necessary_b)

    def test_empty_and_short_sequences(self):
        code = make_code("ldgm-staircase", k=30, expansion_ratio=2.5, seed=1)
        prototype = compile_prototype(code)
        empty = np.zeros(0, dtype=np.int64)
        short = np.arange(10, dtype=np.int64)
        decoded, necessary = prototype.decode_batch([empty, short])
        assert not decoded.any()
        assert (necessary == NOT_DECODED).all()


class TestReceivedBounds:
    """``decode_batch`` checks every received index against ``[0, n)``."""

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_ldgm_out_of_range_raises_instead_of_crashing(self, kernel):
        # The compiled peel indexes its tables unchecked: this batch used
        # to crash the interpreter on cext.
        prototype = compile_prototype(make_code("ldgm-staircase", 20, n=50, seed=0), kernel)
        with pytest.raises(ValueError, match=r"outside \[0, 50\)"):
            prototype.decode_batch([np.array([50, 51, 10**6])])

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_rse_out_of_range_does_not_bleed_into_neighbour_run(self, kernel):
        # Keys >= n used to land in the next run's row of the stacked
        # first-arrival table and report the empty run as decoded.
        prototype = compile_prototype(make_code("rse", k=5, n=10), kernel)
        with pytest.raises(ValueError, match=r"outside \[0, 10\)"):
            prototype.decode_batch(
                [np.array([11, 12, 13, 14, 15, 16]), np.array([], dtype=np.int64)]
            )

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("name,ratio", CODES)
    @pytest.mark.parametrize("bad", [-1, 0])
    def test_every_family_and_the_fallback_reject(self, name, ratio, bad, kernel):
        code = make_code(name, k=20, expansion_ratio=ratio, seed=0)
        index = bad if bad < 0 else code.n
        received = [np.arange(code.n, dtype=np.int64), np.array([3, index, 4])]
        for prototype in (compile_prototype(code, kernel), IncrementalPrototype(code, kernel)):
            with pytest.raises(ValueError, match="outside"):
                prototype.decode_batch(received)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize(
        "offsets,lengths", [([0, 2], [2, 2]), ([0, -1], [1, 1]), ([0, 1], [1, -1]), ([0], [1, 1])]
    )
    def test_runs_outside_flat_array_rejected(self, offsets, lengths, kernel):
        from repro.kernels import ReceivedBatch

        batch = ReceivedBatch(
            flat=np.array([0, 1, 2], dtype=np.int64),
            offsets=np.array(offsets, dtype=np.int64),
            lengths=np.array(lengths, dtype=np.int64),
        )
        for name in ("ldgm-staircase", "rse"):
            prototype = compile_prototype(make_code(name, 20, n=50, seed=0), kernel)
            with pytest.raises(ValueError, match="flat array"):
                prototype.decode_batch(batch)

    def test_in_range_edges_accepted(self):
        code = make_code("rse", k=5, n=10)
        decoded, necessary = compile_prototype(code).decode_batch(
            [np.array([0, 9, 1, 8, 2]), np.array([], dtype=np.int64)]
        )
        assert decoded.tolist() == [True, False]
        assert necessary.tolist() == [5, NOT_DECODED]

    def test_ldgm_beyond_int32_falls_back_to_incremental(self):
        from repro.fastpath.prototypes import compile_ldgm_prototype

        code = make_code("ldgm-staircase", 20, n=50, seed=0)
        code._n = 1 << 31  # what the int32 peel adjacency cannot index
        assert isinstance(compile_ldgm_prototype(code), IncrementalPrototype)


class TestGilbertVectorisedFill:
    def test_bit_identical_to_serial_chain(self):
        grid = [0.0, 1e-12, 0.01, 0.05, 0.3, 0.5, 0.9, 1.0]
        for p in grid:
            for q in grid:
                channel = GilbertChannel(p, q)
                for count in (0, 1, 255, 256, 257, 1000):
                    fast_rng = np.random.default_rng(99)
                    slow_rng = np.random.default_rng(99)
                    assert np.array_equal(
                        channel.loss_mask(count, fast_rng),
                        channel._loss_mask_serial(count, slow_rng),
                    )
                    # The generators must also end in the same state.
                    assert fast_rng.integers(1 << 30) == slow_rng.integers(1 << 30)

    def test_out_of_range_schedule_raises_not_corrupts(self):
        # The stacked batch state would let a bad index from a later run
        # bleed into a neighbour run; simulate_batch must raise instead.
        class BadModel:
            name = "bad"
            calls = 0

            def schedule(self, layout, rng=None):
                BadModel.calls += 1
                base = np.arange(layout.n, dtype=np.int64)
                if BadModel.calls > 1:
                    base[0] = layout.n  # out of range from the 2nd run on
                return base

            def validate_schedule(self, layout, schedule):
                return np.asarray(schedule, dtype=np.int64)

        code = make_code("ldgm-staircase", k=40, expansion_ratio=2.5, seed=0)
        with pytest.raises(ValueError, match="outside"):
            simulate_batch(code, BadModel(), PerfectChannel(), seeded_rngs(3, 3))


class TestRunnerFastpath:
    def _unit(self, **overrides):
        parameters = dict(
            config=SimulationConfig(
                code="ldgm-staircase", tx_model="tx_model_2", k=120, expansion_ratio=2.5
            ),
            p=0.1,
            q=0.5,
            seed_path=(2, 3),
            run_start=0,
            run_stop=6,
            base_seed=11,
        )
        parameters.update(overrides)
        return WorkUnit(**parameters)

    def test_execute_unit_batch_equals_serial(self):
        fast = execute_unit(self._unit(fastpath=True))
        slow = execute_unit(self._unit(fastpath=False))
        assert fast == slow

    def test_execute_unit_fresh_code_per_run(self):
        fast = execute_unit(self._unit(fastpath=True, fresh_code_per_run=True))
        slow = execute_unit(self._unit(fastpath=False, fresh_code_per_run=True))
        assert fast == slow

    def test_grid_sweep_equivalence(self, small_staircase_config):
        kwargs = dict(runs=3, seed=7)
        fast = simulate_grid(
            small_staircase_config, [0.0, 0.3], [0.2, 1.0], fastpath=True, **kwargs
        )
        slow = simulate_grid(
            small_staircase_config, [0.0, 0.3], [0.2, 1.0], fastpath=False, **kwargs
        )
        assert np.array_equal(
            fast.mean_inefficiency, slow.mean_inefficiency, equal_nan=True
        )
        assert np.array_equal(
            fast.mean_received_ratio, slow.mean_received_ratio, equal_nan=True
        )
        assert np.array_equal(fast.failure_counts, slow.failure_counts)

    def test_series_sweep_equivalence(self):
        def make(value):
            return SimulationConfig(
                code="rse", tx_model="tx_model_5", k=100, expansion_ratio=float(value)
            )

        kwargs = dict(p=0.1, q=0.5, runs=3, seed=3)
        fast = sweep_parameter(make, [1.5, 2.5], fastpath=True, **kwargs)
        slow = sweep_parameter(make, [1.5, 2.5], fastpath=False, **kwargs)
        assert np.array_equal(
            fast.mean_inefficiency, slow.mean_inefficiency, equal_nan=True
        )
        assert np.array_equal(fast.failure_counts, slow.failure_counts)


class TestFastpathProperties:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        code_index=st.integers(min_value=0, max_value=len(CODES) - 1),
        tx_index=st.integers(min_value=0, max_value=len(TX_MODELS) - 1),
        k=st.integers(min_value=2, max_value=80),
        p=st.floats(min_value=0.0, max_value=1.0),
        q=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        nsent=st.none() | st.integers(min_value=1, max_value=300),
    )
    def test_random_configurations_bit_identical(
        self, code_index, tx_index, k, p, q, seed, nsent
    ):
        code_name, ratio = CODES[code_index]
        try:
            code = make_code(code_name, k=k, expansion_ratio=ratio, seed=seed)
        except ValueError:
            # Degenerate dimensions (e.g. RSE blocks without parity room).
            return
        tx_model = make_tx_model(TX_MODELS[tx_index])
        channel = GilbertChannel(p, q)
        rngs = lambda: [
            np.random.default_rng(np.random.SeedSequence([seed, run]))
            for run in range(3)
        ]
        expected = legacy_runs(code, tx_model, channel, rngs(), nsent=nsent)
        actual = simulate_batch(code, tx_model, channel, rngs(), nsent=nsent)
        assert actual == expected
