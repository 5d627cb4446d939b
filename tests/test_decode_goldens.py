"""Paper-scale decode goldens and degenerate counting-prototype cases.

The goldens pin ``(decoded, n_necessary)`` of every code family the paper
compares, at its k = 20000, on a few Gilbert cells (p or q at 0.01, 0.5
and 1), under both seed schemes and on every available kernel backend.
The digests were recorded with the numpy closed-form RSE/repetition
counting and the int64 LDGM peel state, so a compiled decode kernel has
to reproduce those exact outcomes.

The degenerate cases build :class:`BlockCountPrototype` directly, with
groups that need nothing, groups that need more than they have, duplicate
arrivals and empty runs, and compare every backend against the closed
form and the incremental reference decoder.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.channel.gilbert import GilbertChannel
from repro.fastpath import simulate_batch_columnar
from repro.fastpath.prototypes import BlockCountPrototype, IncrementalPrototype
from repro.fec.base import FECCode, SymbolicDecoder
from repro.fec.registry import make_code
from repro.kernels import NOT_DECODED, ReceivedBatch, available_backends, get_backend
from repro.scheduling.registry import make_tx_model
from repro.seeds import get_scheme

GOLDEN_K = 20_000
GOLDEN_RUNS = 3
GOLDEN_SEED = 29
#: (p, q) cells: nearly loss-free, symmetric, heavy loss, long bursts.
GOLDEN_CELLS = ((0.01, 1.0), (0.5, 0.5), (1.0, 0.5), (0.01, 0.01))
GOLDEN_CODES = {
    "rse-1.5": ("rse", 1.5),
    "rse-2.5": ("rse", 2.5),
    "repetition-2": ("repetition", 2.0),
    "ldgm-staircase-2.5": ("ldgm-staircase", 2.5),
    "ldgm-triangle-2.5": ("ldgm-triangle", 2.5),
}

#: sha256 over all cells of ``decoded`` (bool bytes) + ``n_necessary``
#: (int64 bytes), recorded before any decode kernel was compiled.
GOLDEN_DIGESTS = {
    "ldgm-staircase-2.5/per-run": "6871c94dd7201217cab825e5c282b296e898453c78ec419761cfcacc0eabf4df",
    "ldgm-staircase-2.5/unit": "865d93700c32e8fc08d501b324ba0b29fa285caeaff3694c1f4a996090ec6f4b",
    "ldgm-triangle-2.5/per-run": "d5e854d43b8d3aa66297e68b276daecaad1d22ee396d3a92748b97df5460c358",
    "ldgm-triangle-2.5/unit": "fea1f7d07d28e4eb9d72de75d32dc3b6a5d0f639326b3ab1c0fe80b0950f339c",
    "repetition-2/per-run": "3d6d745b9f1e144a3852ce885176f0bef6f2e3763831f2309afffd93bb3ae2d7",
    "repetition-2/unit": "31233dfeeed9dcc246d89fb816173b1b3d71344970b284f2d817185cacc12a1c",
    "rse-1.5/per-run": "f250e73d92aeed4e93e36d818088aa61f58cb28d12cc84a8dda6ce648c3da116",
    "rse-1.5/unit": "b87f3792ee79f8c10ddc60c228d970e30c4d69826342e6ece03236a59dde28c2",
    "rse-2.5/per-run": "e41de1ca9d6c43e0965f13a49aaaf4f9514cfcfe4c7c0594b35e8ffecaeeb8c6",
    "rse-2.5/unit": "c9875fd6ec37a437e267c4125c1cf762d6b5a354e4da67356585eec82178a381",
}

_CODES: dict = {}


def _golden_code(label):
    if label not in _CODES:
        name, ratio = GOLDEN_CODES[label]
        _CODES[label] = make_code(name, k=GOLDEN_K, expansion_ratio=ratio, seed=GOLDEN_SEED)
    return _CODES[label]


def _golden_digest(label, scheme, kernel):
    code = _golden_code(label)
    tx_model = make_tx_model("tx_model_2")
    digest = hashlib.sha256()
    for i, (p, q) in enumerate(GOLDEN_CELLS):
        streams = get_scheme(scheme).unit_streams(GOLDEN_SEED, (i,), 0, GOLDEN_RUNS)
        if streams.unit_rng is None:
            streams = streams.run_rngs()
        batch = simulate_batch_columnar(
            code, tx_model, GilbertChannel(p, q), streams, kernel=kernel
        )
        digest.update(np.ascontiguousarray(batch.decoded, dtype=bool).tobytes())
        digest.update(np.ascontiguousarray(batch.n_necessary, dtype=np.int64).tobytes())
    return digest.hexdigest()


class TestPaperScaleDecodeGoldens:
    @pytest.mark.parametrize("kernel", available_backends())
    @pytest.mark.parametrize("scheme", ["per-run", "unit"])
    @pytest.mark.parametrize("label", sorted(GOLDEN_CODES))
    def test_decode_outcomes_pinned(self, label, scheme, kernel):
        assert _golden_digest(label, scheme, kernel) == GOLDEN_DIGESTS[f"{label}/{scheme}"]


# ---------------------------------------------------------------------------
# Degenerate counting prototypes, built directly.
# ---------------------------------------------------------------------------


class _CountingCode(FECCode):
    """A code whose only decoder is the counting rule, for direct tests."""

    name = "counting-test"

    def __init__(self, key_of_index, group_of_key, needed):
        super().__init__(k=1, n=len(key_of_index))
        self.key_of_index = np.asarray(key_of_index, dtype=np.int64)
        self.group_of_key = np.asarray(group_of_key, dtype=np.int64)
        self.needed = np.asarray(needed, dtype=np.int64)

    @property
    def layout(self):  # pragma: no cover - not used by the decoders
        raise NotImplementedError

    def new_symbolic_decoder(self):
        return _CountingDecoder(self)

    def new_encoder(self):  # pragma: no cover - symbolic only
        raise NotImplementedError

    def new_decoder(self):  # pragma: no cover - symbolic only
        raise NotImplementedError

    def prototype(self, kernel):
        return BlockCountPrototype(
            self, self.group_of_key, self.needed, self.key_of_index, kernel
        )


class _CountingDecoder(SymbolicDecoder):
    """Incremental counting rule: one distinct key at a time."""

    def __init__(self, code):
        self._code = code
        self._seen = set()
        self._counts = np.zeros(code.needed.size, dtype=np.int64)
        self._remaining = int(np.count_nonzero(code.needed > 0))

    def add_packet(self, index):
        key = int(self._code.key_of_index[index])
        if key not in self._seen:
            self._seen.add(key)
            group = self._code.group_of_key[key]
            self._counts[group] += 1
            if self._counts[group] == self._code.needed[group]:
                self._remaining -= 1
        return self.is_complete

    @property
    def is_complete(self):
        return self._remaining == 0

    @property
    def decoded_source_count(self):  # pragma: no cover - not used
        return len(self._seen)


#: name -> (key_of_index, group_of_key, needed)
DEGENERATE_CODES = {
    # Group 1 needs nothing: reached before any arrival.
    "needed-zero": (np.arange(6), [0, 0, 1, 1, 2, 2], [2, 0, 1]),
    # Group 1 needs three of its two keys: no run ever decodes.
    "needed-beyond-group": (np.arange(6), [0, 0, 1, 1, 2, 2], [1, 3, 1]),
    # Repetition-style copies: index i carries key i % 4.
    "repetition-copies": (np.arange(12) % 4, [0, 0, 1, 1], [2, 1]),
    # One group, every key needed (the repetition prototype's shape).
    "single-group": (np.arange(10) % 5, [0] * 5, [5]),
    # A key no index maps to: group 1 can never fill up.
    "unreachable-key": (np.arange(8) % 3, [0, 0, 1, 1], [1, 2]),
}


def _degenerate_runs(n):
    """Runs with duplicates, empties, and short / never-decoding prefixes."""
    rng = np.random.default_rng(101)
    runs = [np.zeros(0, dtype=np.int64), np.array([0, 0, 0], dtype=np.int64)]
    for length in (1, 3, 5, 8, 13, 21, 34):
        runs.append(rng.integers(0, n, size=length))
    runs.append(np.arange(n, dtype=np.int64)[::-1].copy())
    runs.append(np.repeat(np.arange(n, dtype=np.int64), 3))
    return runs


def _closed_form(prototype, received):
    return get_backend("numpy").block_count_decode_batch(
        prototype, ReceivedBatch.from_sequences(received)
    )


class TestDegenerateCountingPrototypes:
    @pytest.mark.parametrize("kernel", available_backends())
    @pytest.mark.parametrize("name", sorted(DEGENERATE_CODES))
    def test_matches_closed_form_and_incremental(self, name, kernel):
        code = _CountingCode(*DEGENERATE_CODES[name])
        received = _degenerate_runs(code.n)
        decoded, necessary = code.prototype(kernel).decode_batch(received)
        reference = _closed_form(code.prototype("numpy"), received)
        incremental = IncrementalPrototype(code, kernel).decode_batch(received)
        for expected in (reference, incremental):
            assert np.array_equal(decoded, expected[0])
            assert np.array_equal(necessary, expected[1])

    @pytest.mark.parametrize("kernel", available_backends())
    def test_needed_zero_group_is_reached_before_any_arrival(self, kernel):
        code = _CountingCode(*DEGENERATE_CODES["needed-zero"])
        decoded, necessary = code.prototype(kernel).decode_batch([np.array([0, 4, 1])])
        # Groups 0 and 2 complete at the third arrival; group 1 never counts.
        assert decoded.tolist() == [True] and necessary.tolist() == [3]

    @pytest.mark.parametrize("kernel", available_backends())
    def test_group_needing_more_than_it_has_never_decodes(self, kernel):
        code = _CountingCode(*DEGENERATE_CODES["needed-beyond-group"])
        decoded, necessary = code.prototype(kernel).decode_batch(_degenerate_runs(code.n))
        assert not decoded.any()
        assert (necessary == NOT_DECODED).all()

    @pytest.mark.parametrize("kernel", available_backends())
    def test_all_zero_needed_decodes_every_run_at_zero(self, kernel):
        # The incremental decoder cannot express "complete before the first
        # arrival" (it reports the first packet), so only the closed form
        # is the reference here.
        code = _CountingCode(np.arange(4), [0, 0, 1, 1], [0, 0])
        prototype = code.prototype(kernel)
        assert prototype.goal == 0
        received = _degenerate_runs(code.n)
        decoded, necessary = prototype.decode_batch(received)
        assert decoded.all() and (necessary == 0).all()
        reference = _closed_form(code.prototype("numpy"), received)
        assert np.array_equal(necessary, reference[1])

    @pytest.mark.parametrize("kernel", available_backends())
    @pytest.mark.parametrize("name", sorted(DEGENERATE_CODES))
    def test_empty_batch(self, name, kernel):
        code = _CountingCode(*DEGENERATE_CODES[name])
        decoded, necessary = code.prototype(kernel).decode_batch([])
        assert decoded.shape == (0,) and decoded.dtype == bool
        assert necessary.shape == (0,) and necessary.dtype == np.int64

    @pytest.mark.parametrize(
        "tables",
        [
            (np.array([0, 1, 2, 5]), [0, 0, 1, 1], [1, 1]),  # key beyond the keys
            (np.arange(4), [0, 0, 1, 2], [1, 1]),  # group beyond the groups
            (np.arange(4), [0, 0, 1, -1], [1, 1]),  # negative group
        ],
    )
    def test_malformed_tables_rejected(self, tables):
        code = _CountingCode(*tables)
        with pytest.raises(ValueError, match="outside"):
            code.prototype("numpy")

    def test_key_table_must_cover_every_index(self):
        code = _CountingCode(np.arange(4), [0, 0, 1, 1], [1, 1])
        with pytest.raises(ValueError, match="one key per packet index"):
            BlockCountPrototype(code, code.group_of_key, code.needed, np.arange(3))

    def test_closed_form_chunking_matches_one_pass(self, monkeypatch):
        import repro.kernels.base as base

        code = _CountingCode(*DEGENERATE_CODES["repetition-copies"])
        prototype = code.prototype("numpy")
        received = _degenerate_runs(code.n)
        whole = prototype.decode_batch(received)
        # Three runs per closed-form chunk: a table row is num_keys + 1 wide.
        monkeypatch.setattr(base, "_MAX_TABLE_ELEMENTS", 3 * (prototype.num_keys + 1))
        chunked = prototype.decode_batch(received)
        assert len(received) > 3
        assert np.array_equal(whole[0], chunked[0])
        assert np.array_equal(whole[1], chunked[1])
