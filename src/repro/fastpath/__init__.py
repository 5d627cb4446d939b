"""Vectorised batch-simulation fast path.

The incremental simulator (:mod:`repro.core.simulator`) feeds packets one
at a time through a symbolic decoder -- the right abstraction for clarity
and the reference for correctness, but a Python-level loop in the hottest
path of every sweep.  This package replaces it with array computation that
is **bit-identical** for any seed:

* :mod:`repro.fastpath.prototypes` -- per-code precompiled decoder state
  for the batched decode (RSE/repetition distinct-key counting and LDGM
  peeling, both run by a pluggable :mod:`repro.kernels` backend, plus an
  incremental fallback); ``decode_batch`` is where received indices are
  checked against ``[0, n)``.
* :mod:`repro.fastpath.batch` -- :func:`simulate_batch_columnar`, the
  drop-in batch equivalent of running the simulator once per run: the
  batched :mod:`repro.pipeline` front end (whole-unit schedules, loss
  masks and received assembly as arrays) plus the prototype decode,
  returning columnar :class:`~repro.core.metrics.RunResultBatch` arrays
  (:func:`simulate_batch` wraps them back into per-run results).

Selected by default through ``Simulator.run_many(fastpath=True)``, the
runner work units and the benchmark harness; pass ``fastpath=False`` (or
``--no-fastpath`` on the CLI) to fall back to the incremental path, and
``kernel=`` / ``--kernel`` / ``REPRO_KERNEL`` to pick the kernel backend
(numpy reference, C extension or the optional numba JIT -- results are
bit-identical either way).
"""

from repro.fastpath.batch import (
    MAX_STACKED_EDGES,
    decode_batch_incremental,
    simulate_batch,
    simulate_batch_columnar,
)
from repro.fastpath.prototypes import (
    NOT_DECODED,
    BlockCountPrototype,
    DecoderPrototype,
    IncrementalPrototype,
    LDGMPrototype,
    ReceivedBatch,
    compile_prototype,
    register_prototype_compiler,
)

__all__ = [
    "simulate_batch",
    "simulate_batch_columnar",
    "decode_batch_incremental",
    "MAX_STACKED_EDGES",
    "NOT_DECODED",
    "ReceivedBatch",
    "DecoderPrototype",
    "BlockCountPrototype",
    "LDGMPrototype",
    "IncrementalPrototype",
    "compile_prototype",
    "register_prototype_compiler",
]
