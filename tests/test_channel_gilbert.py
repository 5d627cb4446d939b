"""Unit tests for the Gilbert (two-state Markov) channel model."""

import hashlib
import json

import numpy as np
import pytest

from repro.channel import GilbertChannel
from repro.channel.gilbert import PAPER_GRID_PERCENT, paper_grid
from repro.kernels import available_backends


class TestParameters:
    def test_global_loss_probability_formula(self):
        channel = GilbertChannel(0.1, 0.3)
        assert channel.global_loss_probability == pytest.approx(0.1 / 0.4)

    def test_no_loss_channel(self):
        channel = GilbertChannel(0.0, 0.5)
        assert channel.global_loss_probability == 0.0

    def test_p_and_q_zero_treated_as_no_loss(self):
        channel = GilbertChannel(0.0, 0.0)
        assert channel.global_loss_probability == 0.0

    def test_all_loss_channel(self):
        channel = GilbertChannel(0.3, 0.0)
        assert channel.global_loss_probability == 1.0

    def test_mean_burst_and_gap_length(self):
        channel = GilbertChannel(0.1, 0.25)
        assert channel.mean_burst_length == pytest.approx(4.0)
        assert channel.mean_gap_length == pytest.approx(10.0)
        assert GilbertChannel(0.1, 0.0).mean_burst_length == float("inf")
        assert GilbertChannel(0.0, 0.1).mean_gap_length == float("inf")

    def test_memoryless_detection(self):
        assert GilbertChannel(0.3, 0.7).is_memoryless
        assert not GilbertChannel(0.3, 0.5).is_memoryless

    def test_stationary_distribution_sums_to_one(self):
        channel = GilbertChannel(0.2, 0.6)
        no_loss, loss = channel.stationary_distribution
        assert no_loss + loss == pytest.approx(1.0)

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            GilbertChannel(-0.1, 0.5)
        with pytest.raises(ValueError):
            GilbertChannel(0.5, 1.5)

    def test_paper_grid(self):
        p_values, q_values = paper_grid()
        assert len(p_values) == len(PAPER_GRID_PERCENT) == 14
        assert p_values[0] == 0.0 and p_values[-1] == 1.0
        assert p_values == q_values


class TestLossMask:
    def test_length_and_dtype(self, rng):
        mask = GilbertChannel(0.1, 0.5).loss_mask(1000, rng)
        assert mask.shape == (1000,)
        assert mask.dtype == bool

    def test_zero_count(self, rng):
        assert GilbertChannel(0.1, 0.5).loss_mask(0, rng).size == 0

    def test_negative_count_rejected(self, rng):
        with pytest.raises(ValueError):
            GilbertChannel(0.1, 0.5).loss_mask(-1, rng)

    def test_perfect_channel_loses_nothing(self, rng):
        assert not GilbertChannel(0.0, 0.5).loss_mask(5000, rng).any()

    def test_absorbing_loss_state_loses_everything(self, rng):
        assert GilbertChannel(0.4, 0.0).loss_mask(5000, rng).all()

    def test_empirical_loss_rate_matches_stationary(self, rng):
        channel = GilbertChannel(0.05, 0.45)
        mask = channel.loss_mask(200_000, rng)
        empirical = mask.mean()
        assert empirical == pytest.approx(channel.global_loss_probability, abs=0.01)

    def test_empirical_burst_length(self, rng):
        channel = GilbertChannel(0.02, 0.2)
        mask = channel.loss_mask(300_000, rng)
        # Measure mean length of runs of losses.
        changes = np.diff(mask.astype(np.int8))
        starts = np.count_nonzero(changes == 1) + int(mask[0])
        bursts = mask.sum() / max(starts, 1)
        assert bursts == pytest.approx(channel.mean_burst_length, rel=0.15)

    def test_bernoulli_special_case_is_iid(self, rng):
        channel = GilbertChannel(0.3, 0.7)
        mask = channel.loss_mask(200_000, rng)
        # Lag-1 autocorrelation of an IID sequence is close to zero.
        x = mask.astype(float)
        x -= x.mean()
        autocorrelation = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
        assert abs(autocorrelation) < 0.02

    def test_bursty_channel_has_positive_autocorrelation(self, rng):
        channel = GilbertChannel(0.05, 0.2)
        mask = channel.loss_mask(200_000, rng)
        x = mask.astype(float)
        x -= x.mean()
        autocorrelation = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
        assert autocorrelation > 0.4

    def test_deterministic_given_generator_seed(self):
        channel = GilbertChannel(0.1, 0.4)
        first = channel.loss_mask(1000, np.random.default_rng(7))
        second = channel.loss_mask(1000, np.random.default_rng(7))
        assert np.array_equal(first, second)

    def test_alternating_channel(self, rng):
        # p = q = 1 alternates states deterministically after the start.
        mask = GilbertChannel(1.0, 1.0).loss_mask(1000, rng)
        transitions = np.count_nonzero(np.diff(mask.astype(np.int8)) != 0)
        assert transitions == 999

    def test_transmit_filters_schedule(self, rng):
        channel = GilbertChannel(0.5, 0.5)
        schedule = np.arange(2000)
        received = channel.transmit(schedule, rng)
        assert received.size < schedule.size
        assert np.all(np.diff(received) > 0)  # order preserved

    def test_reception_mask_is_complement(self):
        channel = GilbertChannel(0.2, 0.4)
        loss = channel.loss_mask(500, np.random.default_rng(3))
        received = channel.reception_mask(500, np.random.default_rng(3))
        assert np.array_equal(received, ~loss)

    def test_repr(self):
        assert "p=0.1" in repr(GilbertChannel(0.1, 0.2))


# ---------------------------------------------------------------------------
# Stream goldens: every mask path pinned to recorded mask bytes and the
# post-call generator state, on every available kernel backend.
# ---------------------------------------------------------------------------

GOLDEN_COUNT = 50_000
GOLDEN_RUNS = 3
#: 1e-12 saturates ``rng.geometric`` at the int64 cap; 0.33 / 0.34 sit on
#: either side of numpy's inversion/search switch at p = 1/3.
GOLDEN_PROBABILITIES = (1e-12, 0.01, 0.33, 0.34, 0.5, 0.999, 1.0)
GOLDEN_BIT_GENERATORS = {"pcg64": np.random.PCG64, "philox": np.random.Philox}

#: sha256 over all (p, q) pairs of mask bytes + post-call generator state,
#: recorded with the sojourns drawn by ``rng.geometric`` in Python: the
#: stream every backend, compiled draws included, must keep.
GOLDEN_DIGESTS = {
    "loss_mask/pcg64": "a89f6dd19de09e5eb5a43c717f8d791bbc32755242a402fa4ecf06d3aaecdc67",
    "loss_mask/philox": "c6ee8003785a3843be0893714ae9ba3524fff6d6ce87bad41ced11fe75e653f5",
    "batch_distinct/pcg64": "bd045d3eb4a8c8b84255b668e3ae8519f5802e990dfe0a24b97440ad77d5fa44",
    "batch_distinct/philox": "a74c1d4f3930ea442024ff0f3a2ace8f53a3d872219c4c9765a11afe1b45dc38",
    "batch_repeated/pcg64": "e416d04aea18f292d8076d50a3a32ddb8f41bb8aed776be36dac5ff7aa6394de",
    "batch_repeated/philox": "3c20999aba9b80b01908ab1dda74d6bf5f242fc121e348c499fbc9b55eab53b7",
    "unit/pcg64": "5ee9b6e9c84a4544a3567c62b3e9c74b15119440a3b2933635ddff67f3770057",
    "unit/philox": "baece875c5fbe95c507740b4d2fbb5cb7923d1a8ade31659f64f625d7d45a3db",
}


def _state_bytes(rng):
    state = rng.bit_generator.state
    return json.dumps(state, sort_keys=True, default=lambda a: a.tolist()).encode()


def _golden_masks(method, bit_generator, kernel):
    """Yield ``(masks, generators)`` for every (p, q) pair of the grid."""
    for i, p in enumerate(GOLDEN_PROBABILITIES):
        for j, q in enumerate(GOLDEN_PROBABILITIES):
            channel = GilbertChannel(p, q)

            def fresh(offset=0):
                return np.random.Generator(bit_generator(1000 * i + 10 * j + offset))

            if method == "loss_mask":
                rng = fresh()
                yield channel.loss_mask(GOLDEN_COUNT, rng, kernel=kernel), [rng]
            elif method == "batch_distinct":
                rngs = [fresh(run) for run in range(GOLDEN_RUNS)]
                yield channel.loss_mask_batch(GOLDEN_COUNT, rngs, kernel=kernel), rngs
            elif method == "batch_repeated":
                rng = fresh()
                masks = channel.loss_mask_batch(
                    GOLDEN_COUNT, [rng] * GOLDEN_RUNS, kernel=kernel
                )
                yield masks, [rng]
            else:
                rng = fresh()
                masks = channel.loss_mask_batch_unit(
                    GOLDEN_COUNT, rng, GOLDEN_RUNS, kernel=kernel
                )
                yield masks, [rng]


def _golden_digest(method, bit_generator, kernel):
    digest = hashlib.sha256()
    for masks, generators in _golden_masks(method, bit_generator, kernel):
        digest.update(np.ascontiguousarray(masks).tobytes())
        for rng in generators:
            digest.update(_state_bytes(rng))
    return digest.hexdigest()


class TestStreamGoldens:
    @pytest.mark.parametrize("kernel", available_backends())
    @pytest.mark.parametrize("bit_generator", sorted(GOLDEN_BIT_GENERATORS))
    @pytest.mark.parametrize(
        "method", ["loss_mask", "batch_distinct", "batch_repeated", "unit"]
    )
    def test_masks_and_generator_state_pinned(self, method, bit_generator, kernel):
        digest = _golden_digest(method, GOLDEN_BIT_GENERATORS[bit_generator], kernel)
        assert digest == GOLDEN_DIGESTS[f"{method}/{bit_generator}"]
