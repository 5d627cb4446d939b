"""Two-state Gilbert (Markov) packet-loss model.

The model of section 3.2 of the paper: a *no-loss* state in which packets
are delivered and a *loss* state in which packets are erased.  ``p`` is the
probability of moving from no-loss to loss between two packets, ``q`` the
probability of moving back.  The long-run ("global") loss probability is
``p / (p + q)`` and the mean loss-burst length is ``1 / q``.

Special cases (also noted in the paper):

* ``p = 0`` -- perfect channel (no loss ever).
* ``q = 1 - p`` -- independent, identically distributed (Bernoulli) losses.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.channel.base import LossModel
from repro.kernels import KernelSpec, get_backend
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import validate_probability

#: The (p, q) grid used for every 3-D figure of the paper, in percent.
PAPER_GRID_PERCENT: tuple[int, ...] = (0, 1, 5, 10, 15, 20, 30, 40, 50, 60, 70, 80, 90, 100)


def paper_grid() -> tuple[list[float], list[float]]:
    """The 14 x 14 (p, q) grid of the paper, as probabilities in [0, 1]."""
    values = [value / 100.0 for value in PAPER_GRID_PERCENT]
    return list(values), list(values)


class GilbertChannel(LossModel):
    """Two-state Markov loss model.

    Parameters
    ----------
    p:
        Probability of transitioning from the no-loss state to the loss
        state between two consecutive packets.
    q:
        Probability of transitioning from the loss state back to the
        no-loss state.
    """

    def __init__(self, p: float, q: float):
        self.p = validate_probability(p, "p")
        self.q = validate_probability(q, "q")

    @property
    def global_loss_probability(self) -> float:
        """Stationary probability of the loss state, ``p / (p + q)``."""
        if self.p == 0.0:
            return 0.0
        if self.p + self.q == 0.0:
            return 0.0
        return self.p / (self.p + self.q)

    @property
    def stationary_distribution(self) -> tuple[float, float]:
        """(P[no-loss], P[loss]) under the stationary regime."""
        loss = self.global_loss_probability
        return 1.0 - loss, loss

    @property
    def mean_burst_length(self) -> float:
        """Expected length of a loss burst (``1 / q``; ``inf`` if q == 0)."""
        if self.q == 0.0:
            return float("inf")
        return 1.0 / self.q

    @property
    def mean_gap_length(self) -> float:
        """Expected length of a loss-free run (``1 / p``; ``inf`` if p == 0)."""
        if self.p == 0.0:
            return float("inf")
        return 1.0 / self.p

    @property
    def is_memoryless(self) -> bool:
        """True when the model degenerates to IID (Bernoulli) losses."""
        return abs(self.q - (1.0 - self.p)) < 1e-12

    @property
    def uses_rng(self) -> bool:
        """False for the degenerate all-received / all-lost chains."""
        return self.p != 0.0 and self.q != 0.0

    #: Geometric sojourn lengths are drawn in batches of this many runs.
    _SOJOURN_BATCH = 256

    def loss_mask(
        self,
        count: int,
        rng: Optional[np.random.Generator] = None,
        *,
        kernel: KernelSpec = None,
    ) -> np.ndarray:
        """Simulate ``count`` packet transmissions started in steady state.

        The chain is memoryless, so given the initial state (drawn from the
        stationary distribution) the residual sojourn times are geometric.
        One uniform picks the initial state, then the selected
        :mod:`repro.kernels` backend draws alternating geometric sojourn
        batches -- exactly the draw sequence of :meth:`_loss_mask_serial`
        -- and expands them into the mask (in C on cext, through numpy's
        own ``random_geometric``).  Every backend consumes the generator
        identically and produces masks bit-identical to the historical
        serial chain for any seed.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        mask = np.empty(count, dtype=bool)
        self._fill_mask(mask, ensure_rng(rng), get_backend(kernel))
        return mask

    def loss_mask_batch(
        self,
        count: int,
        rngs: Sequence[RandomState],
        *,
        kernel: KernelSpec = None,
    ) -> np.ndarray:
        """One mask per generator, filled into a single ``(runs, count)`` array.

        Row ``i`` consumes ``rngs[i]`` exactly like :meth:`loss_mask` would,
        with one ``fill_gilbert`` kernel call per row; rows run in order,
        so runs sharing one generator draw one after the other.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        runs = len(rngs)
        if self.p == 0.0:
            return np.broadcast_to(np.zeros(count, dtype=bool), (runs, count))
        if self.q == 0.0:
            return np.broadcast_to(np.ones(count, dtype=bool), (runs, count))
        masks = np.empty((runs, count), dtype=bool)
        backend = get_backend(kernel)
        for row, rng in zip(masks, rngs):
            self._fill_mask(row, ensure_rng(rng), backend)
        return masks

    def loss_mask_batch_unit(
        self,
        count: int,
        rng,
        runs: int,
        *,
        kernel: KernelSpec = None,
    ) -> np.ndarray:
        """One mask per run, all sojourns drawn from ONE shared generator.

        The ``"unit"`` seed scheme's block path (:mod:`repro.seeds`).
        Initial states come from one ``(runs,)`` uniform draw, the first
        sojourn batch of *every* run from two ``(runs, batch)`` geometric
        draws, and the whole block is expanded by a single
        ``fill_sojourns_batch`` kernel call with per-row fill offsets; only
        the rare rows whose first batch falls short of ``count`` continue
        with ``fill_gilbert`` (in row order, so the draw order stays
        deterministic).
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if self.p == 0.0:
            return np.broadcast_to(np.zeros(count, dtype=bool), (runs, count))
        if self.q == 0.0:
            return np.broadcast_to(np.ones(count, dtype=bool), (runs, count))
        masks = np.empty((runs, count), dtype=bool)
        if count == 0 or runs == 0:
            return masks
        rng = ensure_rng(rng)
        backend = get_backend(kernel)
        batch_size = self._SOJOURN_BATCH
        states = rng.random(runs) < self.global_loss_probability
        gap_runs = rng.geometric(self.p, size=(runs, batch_size))
        burst_runs = rng.geometric(self.q, size=(runs, batch_size))
        filled = backend.fill_sojourns_batch(masks, states, gap_runs, burst_runs)
        for index in np.flatnonzero(filled < count):
            backend.fill_gilbert(
                rng, masks[index], int(filled[index]), bool(states[index]),
                self.p, self.q, batch_size,
            )
        return masks

    def _fill_mask(
        self, mask: np.ndarray, rng: np.random.Generator, backend
    ) -> None:
        """Fill a preallocated mask with one run's chain (shared hot loop)."""
        count = mask.size
        if count == 0:
            return
        if self.p == 0.0:
            mask[:] = False
            return
        if self.q == 0.0:
            # Stationary distribution puts all mass on the loss state.
            mask[:] = True
            return
        in_loss_state = bool(rng.random() < self.global_loss_probability)
        backend.fill_gilbert(
            rng, mask, 0, in_loss_state, self.p, self.q, self._SOJOURN_BATCH
        )

    def _loss_mask_serial(
        self, count: int, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Historical sojourn-by-sojourn chain (seed-compatible reference).

        Kept verbatim so the equivalence tests can prove that the vectorised
        :meth:`loss_mask` consumes the generator identically and produces
        bit-identical masks.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        rng = ensure_rng(rng)
        mask = np.empty(count, dtype=bool)
        if count == 0:
            return mask
        if self.p == 0.0:
            mask[:] = False
            return mask
        if self.q == 0.0:
            mask[:] = True
            return mask

        in_loss_state = bool(rng.random() < self.global_loss_probability)
        filled = 0
        batch_size = self._SOJOURN_BATCH
        while filled < count:
            gap_runs = rng.geometric(self.p, size=batch_size)
            burst_runs = rng.geometric(self.q, size=batch_size)
            for index in range(batch_size):
                run = int(burst_runs[index] if in_loss_state else gap_runs[index])
                run = min(run, count - filled)
                mask[filled : filled + run] = in_loss_state
                filled += run
                in_loss_state = not in_loss_state
                if filled >= count:
                    break
        return mask

    def __repr__(self) -> str:
        return f"GilbertChannel(p={self.p}, q={self.q})"


__all__ = ["GilbertChannel", "PAPER_GRID_PERCENT", "paper_grid"]
