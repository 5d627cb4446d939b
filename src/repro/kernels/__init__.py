"""Pluggable kernel backends for the decode hot loops.

The fast path's remaining wall-clock cost is concentrated in a few loops:
the LDGM batch-peel cascade, the gallop+bisect prefix search it serves,
the RSE/repetition distinct-key counting and the Gilbert sojourn fill.
This package puts them behind a swappable
:class:`~repro.kernels.base.KernelBackend`:

* ``numpy`` -- the always-available vectorised reference, with a
  chain-aware cascade for the bidiagonal (staircase/triangle) parity
  structures.
* ``numba`` -- the loop kernels of :mod:`repro.kernels.loops` JIT-compiled
  to machine code; auto-selected when numba is importable, never required.
* ``cext`` -- the same kernels in C, plus a one-pass counting kernel for
  RSE/repetition (the other backends use the numpy closed form),
  compiled on demand with the system compiler (``cc -O2``) and loaded via
  ctypes; auto-selected when numba is absent but a compiler is present.
* ``python`` -- the loop kernels uncompiled, so the compiled code paths
  stay testable without numba or a C toolchain.

Selection: ``kernel=`` kwargs threaded through ``compile_prototype``,
``Simulator.run_many``, the runner work units and ``python -m repro run
--kernel``; the ``REPRO_KERNEL`` environment variable; or ``auto`` (the
default).  Every backend is bit-identical to the incremental reference
decoder -- the equivalence suite enforces it -- so the choice is purely a
wall-clock knob.

The compiled ``cext`` kernels additionally run row-parallel over a work
unit's runs (OpenMP, with a probed serial fallback); the thread count is
the ``kernel_threads`` knob of :mod:`repro.kernels.threads` -- threaded
through the same call sites as ``kernel``, resolved from
``REPRO_KERNEL_THREADS`` / ``auto`` = physical cores divided by the
executor's worker count, and bit-identical at any value.
"""

from repro.kernels.base import (
    COUNT_SHIFT,
    NOT_DECODED,
    SENTINEL_WORD,
    SUM_MASK,
    KernelBackend,
    ReceivedBatch,
)
from repro.kernels.registry import (
    AUTO_ORDER,
    ENV_VAR,
    KernelSpec,
    KernelUnavailableError,
    available_backends,
    cext_compiler_available,
    cext_openmp_enabled,
    default_backend_name,
    get_backend,
    get_backend_for_run,
    numba_available,
    register_backend,
)
from repro.kernels.threads import (
    THREADS_ENV_VAR,
    ThreadSpec,
    current_thread_count,
    normalize_thread_spec,
    physical_cores,
    resolve_thread_count,
    set_worker_divisor,
    thread_count_context,
    worker_divisor_context,
)

__all__ = [
    "KernelBackend",
    "ReceivedBatch",
    "NOT_DECODED",
    "COUNT_SHIFT",
    "SUM_MASK",
    "SENTINEL_WORD",
    "ENV_VAR",
    "KernelSpec",
    "KernelUnavailableError",
    "register_backend",
    "available_backends",
    "default_backend_name",
    "numba_available",
    "cext_compiler_available",
    "cext_openmp_enabled",
    "AUTO_ORDER",
    "get_backend",
    "get_backend_for_run",
    "THREADS_ENV_VAR",
    "ThreadSpec",
    "normalize_thread_spec",
    "physical_cores",
    "resolve_thread_count",
    "current_thread_count",
    "thread_count_context",
    "set_worker_divisor",
    "worker_divisor_context",
]
