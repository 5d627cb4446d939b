"""Unit tests for the shared utilities."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.utils.rng import as_seed_int, derive_seed, ensure_rng, spawn_rngs
from repro.utils.validation import (
    validate_expansion_ratio,
    validate_fraction,
    validate_k_n,
    validate_positive_int,
    validate_probability,
)


class TestEnsureRng:
    def test_from_none(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_from_int_is_deterministic(self):
        assert ensure_rng(5).integers(1000) == ensure_rng(5).integers(1000)

    def test_passthrough_generator(self):
        generator = np.random.default_rng(0)
        assert ensure_rng(generator) is generator

    def test_from_seed_sequence(self):
        sequence = np.random.SeedSequence(9)
        assert isinstance(ensure_rng(sequence), np.random.Generator)

    def test_invalid_type_rejected(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")


class TestSpawnRngs:
    def test_count_and_independence(self):
        rngs = spawn_rngs(3, 4)
        assert len(rngs) == 4
        draws = [generator.integers(10**9) for generator in rngs]
        assert len(set(draws)) == 4

    def test_deterministic(self):
        first = [generator.integers(10**9) for generator in spawn_rngs(3, 3)]
        second = [generator.integers(10**9) for generator in spawn_rngs(3, 3)]
        assert first == second

    def test_zero_count(self):
        assert spawn_rngs(1, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(1, -1)


class TestAsSeedInt:
    def test_none_maps_to_zero(self):
        assert as_seed_int(None) == 0

    def test_int_passthrough(self):
        assert as_seed_int(42) == 42
        assert as_seed_int(np.int64(7)) == 7

    def test_seed_sequence_is_deterministic(self):
        assert as_seed_int(np.random.SeedSequence(5)) == as_seed_int(
            np.random.SeedSequence(5)
        )

    def test_generator_draws_once(self):
        first = as_seed_int(np.random.default_rng(3))
        second = as_seed_int(np.random.default_rng(3))
        assert first == second

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            as_seed_int("seed")


class TestDeriveSeed:
    def test_deterministic_and_salt_sensitive(self):
        assert derive_seed(7, "channel") == derive_seed(7, "channel")
        assert derive_seed(7, "channel") != derive_seed(7, "scheduler")
        assert derive_seed(7, "channel") != derive_seed(8, "channel")


class TestValidation:
    def test_positive_int(self):
        assert validate_positive_int(3, "x") == 3
        assert validate_positive_int(0, "x", minimum=0) == 0
        with pytest.raises(ValueError):
            validate_positive_int(0, "x")
        with pytest.raises(TypeError):
            validate_positive_int(2.5, "x")
        with pytest.raises(TypeError):
            validate_positive_int(True, "x")

    def test_probability(self):
        assert validate_probability(0.5, "p") == 0.5
        assert validate_probability(0, "p") == 0.0
        with pytest.raises(ValueError):
            validate_probability(1.2, "p")
        with pytest.raises(ValueError):
            validate_probability(float("nan"), "p")
        with pytest.raises(TypeError):
            validate_probability("half", "p")

    def test_fraction(self):
        assert validate_fraction(0.0, "f") == 0.0
        with pytest.raises(ValueError):
            validate_fraction(0.0, "f", allow_zero=False)

    def test_expansion_ratio(self):
        assert validate_expansion_ratio(1.5) == 1.5
        with pytest.raises(ValueError):
            validate_expansion_ratio(1.0)
        with pytest.raises(TypeError):
            validate_expansion_ratio("big")

    def test_k_n(self):
        assert validate_k_n(10, 25) == (10, 25)
        with pytest.raises(ValueError):
            validate_k_n(10, 10)


class TestPackaging:
    def test_setup_py_metadata(self):
        pytest.importorskip("setuptools")
        root = Path(__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "setup.py", "--name", "--version"],
            cwd=root, capture_output=True, text=True, check=True,
        )
        assert result.stdout.split() == ["repro", repro.__version__]
