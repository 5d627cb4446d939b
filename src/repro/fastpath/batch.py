"""Batched run execution: the vectorised replacement for the per-run loop.

:func:`simulate_batch_columnar` is the fast-path equivalent of calling
:meth:`repro.core.simulator.Simulator.run` once per run.  The pre-decode
front end -- schedules, loss masks, received assembly -- is produced by the
batched :func:`repro.pipeline.synthesize_runs` pipeline (whole work unit as
``(runs, length)`` arrays, falling back to the per-run interleaved
reference loop exactly where stage-major draws could diverge), and the
resulting :class:`~repro.kernels.ReceivedBatch` is decoded by the code's
precompiled :class:`~repro.fastpath.prototypes.DecoderPrototype`.  Results
come back columnar (:class:`~repro.core.metrics.RunResultBatch`) --
bit-identical to the serial loop for any seed, on every kernel backend;
:func:`simulate_batch` keeps the historical list-of-:class:`RunResult` API
on top of it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.channel.base import LossModel
from repro.core.metrics import RunResult, RunResultBatch
from repro.fastpath.prototypes import (
    NOT_DECODED,
    DecoderPrototype,
    IncrementalPrototype,
    LDGMPrototype,
    compile_prototype,
)
from repro.fec.base import FECCode
from repro.kernels import KernelSpec, ThreadSpec, get_backend, thread_count_context
from repro.pipeline.synthesis import synthesize_runs, synthesize_runs_unit
from repro.seeds import UnitStreams
from repro.utils.rng import RandomState

#: Upper bound on ``runs x edges`` stacked into one LDGM peeling probe;
#: batches beyond it are decoded in chunks to bound peak memory.  The
#: lockstep cascade's round count grows with the *slowest* run of a chunk,
#: not the chunk size, so bigger chunks amortise the per-round dispatch
#: overhead across more runs -- at ~8.5k edges for the paper's k=1000
#: staircase this bound keeps peak state well under 100 MB while letting a
#: whole benchmark batch decode as one chunk.
MAX_STACKED_EDGES = 16_000_000


def _decode_chunk_size(prototype: DecoderPrototype, runs: int) -> int:
    if (
        isinstance(prototype, LDGMPrototype)
        and prototype.kernel.stacks_batches
        and prototype.num_edges > 0
    ):
        return max(1, min(runs, MAX_STACKED_EDGES // prototype.num_edges))
    return max(1, runs)


def simulate_batch_columnar(
    code: FECCode,
    tx_model,
    channel: LossModel,
    rngs: Union[Sequence[RandomState], UnitStreams],
    *,
    nsent: Optional[int] = None,
    kernel: KernelSpec = None,
    kernel_threads: ThreadSpec = None,
) -> RunResultBatch:
    """Simulate one transmission per generator in ``rngs``, fully columnar.

    ``rngs`` may contain distinct generators (one independent stream per
    run, the runner's per-run scheme) or the same generator repeated
    (``run_many``'s sequential consumption) -- either way the draws happen
    in the exact order of the incremental path.  It may also be a
    :class:`repro.seeds.UnitStreams` carrying a whole-unit generator (the
    counter-based ``"unit"`` scheme), in which case the front end is
    synthesised by the unconditional block-draw path of
    :func:`repro.pipeline.synthesize_runs_unit`.  ``kernel`` selects the
    :mod:`repro.kernels` backend for the decode hot loops and the Gilbert
    sojourn fill (default: ``REPRO_KERNEL`` / auto); ``kernel_threads``
    the compiled kernels' row-parallel team size (default:
    ``REPRO_KERNEL_THREADS`` / auto) -- both pure wall-clock knobs,
    bit-identical at any setting.
    """
    with thread_count_context(kernel_threads):
        return _simulate_batch_columnar(
            code, tx_model, channel, rngs, nsent=nsent, kernel=kernel
        )


def _simulate_batch_columnar(
    code: FECCode,
    tx_model,
    channel: LossModel,
    rngs: Union[Sequence[RandomState], UnitStreams],
    *,
    nsent: Optional[int] = None,
    kernel: KernelSpec = None,
) -> RunResultBatch:
    backend = get_backend(kernel)
    if isinstance(rngs, UnitStreams):
        if rngs.unit_rng is not None:
            synthesis = synthesize_runs_unit(
                code.layout,
                tx_model,
                channel,
                rngs.unit_rng,
                rngs.runs,
                nsent=nsent,
                kernel=backend,
            )
        else:
            synthesis = synthesize_runs(
                code.layout,
                tx_model,
                channel,
                rngs.run_rngs(),
                nsent=nsent,
                kernel=backend,
            )
    else:
        synthesis = synthesize_runs(
            code.layout, tx_model, channel, rngs, nsent=nsent, kernel=backend
        )
    prototype = compile_prototype(code, backend)
    batch = synthesis.batch
    runs = batch.num_runs
    decoded = np.zeros(runs, dtype=bool)
    n_necessary = np.full(runs, NOT_DECODED, dtype=np.int64)
    chunk = _decode_chunk_size(prototype, runs)
    for start in range(0, runs, chunk):
        stop = min(start + chunk, runs)
        decoded[start:stop], n_necessary[start:stop] = prototype.decode_batch(
            batch.slice(start, stop)
        )
    return RunResultBatch(
        decoded=decoded,
        n_necessary=n_necessary,
        n_received=batch.lengths,
        n_sent=synthesis.n_sent,
        k=code.k,
        n=code.n,
    )


def decode_batch_incremental(code: FECCode, synthesis) -> RunResultBatch:
    """Incremental symbolic decode of an already-synthesised front end.

    The ``fastpath=False`` reference path for scheme-defined (block-drawn)
    front ends: the pre-decode arrays come from the synthesis pipeline, so
    only the decoder differs from :func:`simulate_batch_columnar` -- and
    the incremental decoder is the reference the batch decoders are proven
    bit-identical against.
    """
    batch = synthesis.batch
    decoded, n_necessary = IncrementalPrototype(code, "numpy").decode_batch(batch)
    return RunResultBatch(
        decoded=decoded,
        n_necessary=n_necessary,
        n_received=batch.lengths,
        n_sent=synthesis.n_sent,
        k=code.k,
        n=code.n,
    )


def simulate_batch(
    code: FECCode,
    tx_model,
    channel: LossModel,
    rngs: Union[Sequence[RandomState], UnitStreams],
    *,
    nsent: Optional[int] = None,
    kernel: KernelSpec = None,
    kernel_threads: ThreadSpec = None,
) -> List[RunResult]:
    """Per-run result list on top of :func:`simulate_batch_columnar`.

    Kept for callers that want the historical list-of-results API; the
    hot paths (runner work units, benchmarks) consume the columnar batch
    directly and never materialise per-run objects.
    """
    return simulate_batch_columnar(
        code,
        tx_model,
        channel,
        rngs,
        nsent=nsent,
        kernel=kernel,
        kernel_threads=kernel_threads,
    ).to_results()


__all__ = [
    "simulate_batch",
    "simulate_batch_columnar",
    "decode_batch_incremental",
    "MAX_STACKED_EDGES",
]
