"""Kernel-backend interface and the flattened received-batch container.

A :class:`KernelBackend` owns the *hot loops* of the decode path -- the
LDGM peel, the RSE/repetition distinct-key counting and the Gilbert
sojourn draws and fill -- behind a small, swappable surface.  Everything
else (prototype compilation, the run/sweep orchestration) is
backend-independent numpy.  The counting decode has a numpy closed form
here as the base default; a backend with a compiled counting kernel
overrides it.

All backends are **bit-identical**: for any input they must produce
exactly the arrays the incremental reference decoder produces.  The test
suite enforces this across every registered backend, so a backend is a
pure wall-clock knob, never a semantics knob.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.fastpath.prototypes import BlockCountPrototype, LDGMPrototype

#: ``n_necessary`` sentinel in the integer result array of a batch decode
#: for runs that never decode.
NOT_DECODED = -1

#: Bit position splitting a packed peeling word into (unknown count, id sum).
COUNT_SHIFT = 40
SUM_MASK = (1 << COUNT_SHIFT) - 1

#: Word of the per-run sentinel row appended after the real check rows: a
#: huge unknown count that can never reach one, so it separates run blocks
#: in the stacked state (the chain walk stops on it) without ever
#: triggering a reveal.  No update ever lands on it.
SENTINEL_WORD = np.int64(1) << (COUNT_SHIFT + 22)

#: "Never arrived" sentinel in the closed form's first-arrival position
#: table; sorts after every real position, so reaching it in an order
#: statistic means the group's distinct-count goal was not met.
_NEVER = np.iinfo(np.int64).max

#: Upper bound on the elements of one first-arrival position table
#: (``runs x (keys + 1)`` int64); larger batches are decoded in run chunks
#: to bound peak memory (~0.5 GB).
_MAX_TABLE_ELEMENTS = 64_000_000


@dataclass(frozen=True)
class ReceivedBatch:
    """A batch of received-index sequences, flattened once.

    The decoders used to re-concatenate the per-run arrays on every call
    (and the LDGM prefix search again per probe); flattening once per work
    unit and slicing by offsets makes a sub-batch a pair of views instead
    of a copy.

    Attributes
    ----------
    flat:
        All runs' received packet indices concatenated, in run order
        (plain per-code indices; no run stacking applied).
    offsets:
        Start of each run inside ``flat`` (``int64``, one per run).
    lengths:
        Number of indices of each run (``int64``, one per run).
    """

    flat: np.ndarray
    offsets: np.ndarray
    lengths: np.ndarray

    @classmethod
    def from_sequences(cls, received: Sequence[np.ndarray]) -> "ReceivedBatch":
        """Flatten a list of per-run index arrays into one batch."""
        lengths = np.fromiter(
            (r.size for r in received), dtype=np.int64, count=len(received)
        )
        offsets = np.zeros(len(received), dtype=np.int64)
        if lengths.size:
            np.cumsum(lengths[:-1], out=offsets[1:])
        if lengths.sum() == 0:
            flat = np.zeros(0, dtype=np.int64)
        else:
            flat = np.concatenate(
                [np.asarray(r, dtype=np.int64) for r in received]
            )
        return cls(flat=flat, offsets=offsets, lengths=lengths)

    @classmethod
    def coerce(cls, received) -> "ReceivedBatch":
        """Accept either a ready batch or a sequence of per-run arrays."""
        if isinstance(received, ReceivedBatch):
            return received
        return cls.from_sequences(received)

    @property
    def num_runs(self) -> int:
        return int(self.lengths.size)

    def __len__(self) -> int:
        return self.num_runs

    def run(self, index: int) -> np.ndarray:
        """View of one run's received sequence."""
        start = int(self.offsets[index])
        return self.flat[start : start + int(self.lengths[index])]

    def sequences(self) -> Iterator[np.ndarray]:
        """Iterate per-run views (for fallback/incremental consumers)."""
        for index in range(self.num_runs):
            yield self.run(index)

    def slice(self, start: int, stop: int) -> "ReceivedBatch":
        """Sub-batch of runs ``start..stop`` -- views, no data copy."""
        if start == 0 and stop >= self.num_runs:
            return self
        lengths = self.lengths[start:stop]
        offsets = self.offsets[start:stop]
        if lengths.size == 0:
            return ReceivedBatch(
                flat=self.flat[:0], offsets=offsets, lengths=lengths
            )
        base = int(offsets[0])
        end = int(offsets[-1] + lengths[-1])
        return ReceivedBatch(
            flat=self.flat[base:end], offsets=offsets - base, lengths=lengths
        )


class KernelBackend(abc.ABC):
    """One implementation of the decode hot loops.

    Backends are stateless (safe to share across codes, threads use the
    GIL anyway) and selected through :func:`repro.kernels.get_backend`.
    """

    #: Registry name; also what ``REPRO_KERNEL`` / ``--kernel`` match.
    name: str = "abstract"

    #: Whether :meth:`ldgm_decode_batch` stacks the whole batch's peeling
    #: state into one allocation (the numpy lockstep search does); callers
    #: chunk such batches to bound peak memory.  Per-run backends leave it
    #: False and take batches of any size.
    stacks_batches: bool = False

    @abc.abstractmethod
    def ldgm_decode_batch(
        self, prototype: "LDGMPrototype", batch: ReceivedBatch
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched minimal-decodable-prefix search over an LDGM prototype.

        Returns ``(decoded, n_necessary)`` exactly as the incremental
        decoder would: ``n_necessary`` is the 1-based arrival position of
        the packet completing decoding, ``-1`` where the run never decodes.
        """

    def block_count_decode_batch(
        self, prototype: "BlockCountPrototype", batch: ReceivedBatch
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched counting decode: every group ``g`` needs ``needed[g]`` keys.

        Returns ``(decoded, n_necessary)`` like :meth:`ldgm_decode_batch`;
        with no group to reach (``prototype.goal == 0``) every run decodes
        at ``n_necessary == 0``.  This default is the numpy closed form,
        which reduces the batch to order statistics over first-arrival
        positions without a single sort:

        1. one reversed scatter builds the ``(runs, keys)`` table of each
           key's first arrival position (later stores win a fancy-indexing
           scatter, so storing in reverse arrival order keeps the first),
        2. a precompiled gather regroups the table's columns by group
           (groups padded to a common width with a sentinel key that never
           arrives),
        3. ``np.partition`` selects each group's ``needed``-th smallest
           position.
        """
        num_runs = batch.num_runs
        chunk = max(1, _MAX_TABLE_ELEMENTS // (prototype.num_keys + 1))
        if num_runs <= chunk:
            return _block_count_closed_form(prototype, batch)
        decoded = np.zeros(num_runs, dtype=bool)
        n_necessary = np.full(num_runs, NOT_DECODED, dtype=np.int64)
        for start in range(0, num_runs, chunk):
            stop = min(start + chunk, num_runs)
            decoded[start:stop], n_necessary[start:stop] = _block_count_closed_form(
                prototype, batch.slice(start, stop)
            )
        return decoded, n_necessary

    @abc.abstractmethod
    def fill_sojourns(
        self,
        mask: np.ndarray,
        filled: int,
        in_loss_state: bool,
        gap_runs: np.ndarray,
        burst_runs: np.ndarray,
    ) -> int:
        """Expand one batch of Gilbert sojourn lengths into ``mask``.

        The sojourns alternate starting from ``in_loss_state`` (the batch
        has even length, so the caller's state is unchanged after a full
        batch); each sojourn is capped at the space remaining, exactly as
        the serial reference chain caps it.  Returns the new fill count.
        """

    def fill_gilbert(
        self,
        rng: np.random.Generator,
        mask: np.ndarray,
        filled: int,
        in_loss_state: bool,
        p: float,
        q: float,
        batch: int,
    ) -> int:
        """Continue one Gilbert chain from ``filled`` until ``mask`` is full.

        Per round ``rng.geometric(p, size=batch)`` gaps, then as many ``q``
        bursts, expanded by :meth:`fill_sojourns`: the draw order of every
        backend.  Returns ``mask.shape[0]``.
        """
        while filled < mask.shape[0]:
            gap_runs = rng.geometric(p, size=batch)
            burst_runs = rng.geometric(q, size=batch)
            # An even number of sojourns per batch leaves the state
            # unchanged, so ``in_loss_state`` is loop-invariant.
            filled = self.fill_sojourns(mask, filled, in_loss_state, gap_runs, burst_runs)
        return filled

    def fill_sojourns_batch(
        self,
        masks: np.ndarray,
        states: np.ndarray,
        gap_runs: np.ndarray,
        burst_runs: np.ndarray,
    ) -> np.ndarray:
        """Expand one sojourn batch per run into the rows of ``masks``.

        ``masks`` is ``(runs, count)``; ``states`` the per-run initial
        states; ``gap_runs``/``burst_runs`` are ``(runs, batch)`` matrices
        of drawn sojourn lengths.  Row ``i`` is filled exactly like
        ``fill_sojourns(masks[i], 0, states[i], gap_runs[i],
        burst_runs[i])``; rows whose batch does not cover ``count`` are
        left partially filled (the caller continues them chain-style).
        Returns the per-run fill counts.  Backends with a compiled batch
        kernel override this to amortise the per-row call overhead.
        """
        filled = np.empty(masks.shape[0], dtype=np.int64)
        for index in range(masks.shape[0]):
            filled[index] = self.fill_sojourns(
                masks[index], 0, bool(states[index]), gap_runs[index], burst_runs[index]
            )
        return filled

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} name={self.name!r}>"


def _block_count_closed_form(
    prototype: "BlockCountPrototype", batch: ReceivedBatch
) -> Tuple[np.ndarray, np.ndarray]:
    """One chunk of :meth:`KernelBackend.block_count_decode_batch`."""
    num_runs = batch.num_runs
    if prototype.goal == 0:
        return np.ones(num_runs, dtype=bool), np.zeros(num_runs, dtype=np.int64)
    table_width = prototype.num_keys + 1
    first_position = np.full(num_runs * table_width, _NEVER, dtype=np.int64)
    if batch.flat.size:
        run_ids = np.repeat(np.arange(num_runs, dtype=np.int64), batch.lengths)
        keys = prototype.key_of_index[batch.flat]
        positions = np.arange(batch.flat.size, dtype=np.int64) - np.repeat(
            batch.offsets, batch.lengths
        )
        cells = run_ids * np.int64(table_width) + keys
        # Reversed scatter: duplicate keys collapse to their *first*
        # arrival because the earliest store happens last.
        first_position[cells[::-1]] = positions[::-1]
    grouped = first_position.reshape(num_runs, table_width)[:, prototype.gather]
    threshold = np.empty((num_runs, prototype.num_groups), dtype=np.int64)
    for needed, groups in prototype.needed_classes:
        # Clamped for malformed inputs (needed beyond the group width is
        # impossible and overwritten below; zero means trivially reached
        # before any arrival).
        kth = min(needed, grouped.shape[2]) - 1
        if kth < 0:
            threshold[:, groups] = -1
            continue
        statistic = np.partition(grouped[:, groups, :], kth, axis=2)
        threshold[:, groups] = statistic[:, :, kth]
    if prototype.impossible.size:
        threshold[:, prototype.impossible] = _NEVER
    decoded = (threshold < _NEVER).all(axis=1)
    n_necessary = np.full(num_runs, NOT_DECODED, dtype=np.int64)
    n_necessary[decoded] = threshold[decoded].max(axis=1) + 1
    return decoded, n_necessary


__all__ = [
    "KernelBackend",
    "ReceivedBatch",
    "NOT_DECODED",
    "COUNT_SHIFT",
    "SUM_MASK",
    "SENTINEL_WORD",
]
