"""On-demand C extension backend: the decode and channel loops compiled
with the system C compiler.

The kernels: ``ldgm_peel_batch`` (the per-run peel of
:mod:`repro.kernels.loops`, on the prototype's narrow int32 adjacency
and interleaved count/sum rows), ``block_count_batch`` (the RSE /
repetition distinct-key counting decode, which the other backends run as
the numpy closed form of :class:`~repro.kernels.KernelBackend`),
``fill_sojourns`` / ``fill_sojourns_batch`` and ``fill_gilbert``, which
also draws the sojourns (numpy's own ``random_geometric``, linked from
its static ``libnpyrandom.a``).  So cext decodes every code family in one
C call per work unit.  The library is compiled once per machine with
``cc -O2 -shared -fPIC`` into a cache directory keyed by the source hash,
and loaded through :mod:`ctypes` -- no build-time dependency, no pip
package, and fully optional: when no C compiler is available (or the
compile fails, e.g. in a sandbox without a writable cache), importing
this module raises ``ImportError`` and the registry treats the backend
as unavailable, with ``auto`` falling back to the numpy reference.

The per-run loops are row-parallel with OpenMP when the probe compile
with ``-fopenmp`` succeeds; when it fails the build falls back to a
pthread-free serial library with one logged warning (the ``#pragma omp``
lines are inert without the flag, so both builds share one source).
Runs are independent rows -- each writes only its own output slot and
works on per-thread scratch, and there are no cross-run reductions in
these kernels (the lockstep probe reductions live in the numpy backend,
which stays serial) -- so 1 thread and N threads are bit-identical and
the thread count (``REPRO_KERNEL_THREADS`` / ``kernel_threads=`` /
``--kernel-threads``) is a pure wall-clock knob.  ctypes drops the GIL
for the duration of every foreign call, which is what lets thread-
executor workers overlap these kernels on top of kernel threads.

Like the numba backend, this is a pure wall-clock knob: the C loops
mirror :mod:`repro.kernels.loops` statement for statement, the counting
walk reproduces the closed form's outcomes, and the cross-backend
equivalence suite pins them all to the incremental decoder.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shlex
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Tuple

import numpy as np

from repro.kernels.base import NOT_DECODED, KernelBackend, ReceivedBatch
from repro.kernels.threads import current_thread_count

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fastpath.prototypes import BlockCountPrototype, LDGMPrototype

logger = logging.getLogger("repro.kernels")

#: C translation of :func:`repro.kernels.loops.ldgm_peel_batch`,
#: :func:`repro.kernels.loops.fill_sojourns`,
#: :meth:`repro.kernels.base.KernelBackend.fill_gilbert` and a counting
#: walk with the outcomes of
#: :meth:`repro.kernels.base.KernelBackend.block_count_decode_batch`.
#: Keep them in lockstep: the cross-backend tests enforce bit-identical
#: behaviour, and the Python code is the readable specification of these
#: kernels.
#:
#: Without ``-fopenmp`` the pragmas are ignored and ``_OPENMP`` is
#: undefined, so the same source builds the serial fallback library.
#: ``REPRO_POISON_OPENMP`` (injected via ``CFLAGS``) force-fails the
#: OpenMP probe compile only, which is how CI and the degradation test
#: exercise the fallback on machines where OpenMP works.
_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

#ifdef _OPENMP
#include <omp.h>
#ifdef REPRO_POISON_OPENMP
#error "OpenMP probe poisoned (REPRO_POISON_OPENMP in CFLAGS)"
#endif
#endif

int peel_openmp(void)
{
#ifdef _OPENMP
    return 1;
#else
    return 0;
#endif
}

void ldgm_peel_batch(
    const int32_t *col_indptr, const int32_t *col_rows,
    const int32_t *init_state,
    const int64_t *flat, const int64_t *offsets, const int64_t *lengths,
    int64_t num_runs, int64_t k, int64_t n, int64_t num_checks,
    int32_t *state, uint8_t *known, int32_t *stack,
    uint8_t *decoded, int64_t *n_necessary, int64_t num_threads)
{
    /* Runs are independent rows: every run writes only decoded[run] /
       n_necessary[run] and works on its thread's private scratch slice,
       so the parallel schedule cannot affect results.  num_threads is
       the caller-resolved team size; scratch is (num_threads, ...).
       state holds one interleaved (unknown count, id sum) pair per check
       row, so each edge update touches a single cache line. */
    (void)num_threads;
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic) num_threads((int)num_threads)
#endif
    for (int64_t run = 0; run < num_runs; run++) {
        int64_t slot = 0;
#ifdef _OPENMP
        slot = (int64_t)omp_get_thread_num();
#endif
        int32_t *state_t = state + slot * 2 * num_checks;
        uint8_t *known_t = known + slot * n;
        int32_t *stack_t = stack + slot * (num_checks + 2);
        memcpy(state_t, init_state, (size_t)num_checks * 2 * sizeof(int32_t));
        memset(known_t, 0, (size_t)n);
        int64_t sources = 0;
        int64_t start = offsets[run];
        int64_t end = start + lengths[run];
        int complete = 0;
        for (int64_t pos = start; pos < end && !complete; pos++) {
            int32_t node = (int32_t)flat[pos];
            if (known_t[node])
                continue; /* duplicate or already recovered: a no-op */
            int64_t top = 0;
            stack_t[0] = node;
            while (top >= 0) {
                int32_t v = stack_t[top--];
                if (known_t[v])
                    continue;
                known_t[v] = 1;
                if (v < k && ++sources == k) {
                    /* all sources recovered: stop mid-cascade, like the
                       incremental decoder's early return */
                    n_necessary[run] = pos - start + 1;
                    complete = 1;
                    break;
                }
                for (int32_t e = col_indptr[v]; e < col_indptr[v + 1]; e++) {
                    int32_t *row = state_t + 2 * (int64_t)col_rows[e];
                    row[1] -= v;
                    if (--row[0] == 1) {
                        /* one unknown left: its id sum IS the node */
                        int32_t u = row[1];
                        if (!known_t[u])
                            stack_t[++top] = u;
                    }
                }
            }
        }
        decoded[run] = (uint8_t)complete;
    }
}

void block_count_batch(
    const int32_t *key_of_index, const int32_t *group_of_key,
    const int64_t *needed, int64_t num_keys, int64_t num_groups, int64_t goal,
    const int64_t *flat, const int64_t *offsets, const int64_t *lengths,
    int64_t num_runs, uint8_t *seen, int64_t *counts,
    uint8_t *decoded, int64_t *n_necessary, int64_t num_threads)
{
    /* Counting decode, row-parallel like the peel: a run walks its
       received indices once, skips keys it has seen, and decodes at the
       arrival that brings the last of its `goal` groups to `needed`
       distinct keys.  A group needing 0 keys is not in `goal` (reached
       before any arrival); one needing more keys than it has never
       reaches `needed`, so its runs never decode. */
    (void)num_threads;
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic) num_threads((int)num_threads)
#endif
    for (int64_t run = 0; run < num_runs; run++) {
        if (goal == 0) {
            decoded[run] = 1;
            n_necessary[run] = 0;
            continue;
        }
        int64_t slot = 0;
#ifdef _OPENMP
        slot = (int64_t)omp_get_thread_num();
#endif
        uint8_t *seen_t = seen + slot * num_keys;
        int64_t *counts_t = counts + slot * num_groups;
        memset(seen_t, 0, (size_t)num_keys);
        memset(counts_t, 0, (size_t)num_groups * sizeof(int64_t));
        int64_t remaining = goal;
        int64_t start = offsets[run];
        int64_t end = start + lengths[run];
        for (int64_t pos = start; pos < end; pos++) {
            int32_t key = key_of_index[flat[pos]];
            if (seen_t[key])
                continue; /* duplicate arrival or repetition copy */
            seen_t[key] = 1;
            int32_t group = group_of_key[key];
            if (++counts_t[group] == needed[group] && --remaining == 0) {
                n_necessary[run] = pos - start + 1;
                decoded[run] = 1;
                break;
            }
        }
    }
}

int64_t fill_sojourns(
    uint8_t *mask, int64_t filled, int64_t count, int in_loss_state,
    const int64_t *gap_runs, const int64_t *burst_runs, int64_t batch)
{
    int state = in_loss_state;
    for (int64_t i = 0; i < batch; i++) {
        int64_t length = state ? burst_runs[i] : gap_runs[i];
        int64_t remaining = count - filled;
        if (length > remaining)
            length = remaining;
        memset(mask + filled, state, (size_t)length);
        filled += length;
        state = !state;
        if (filled >= count)
            break;
    }
    return filled;
}

#ifdef REPRO_NPYRANDOM
typedef struct bitgen bitgen_t; /* numpy's; opaque here */
int64_t random_geometric(bitgen_t *bitgen_state, double p);

int64_t fill_gilbert(
    bitgen_t *bitgen, uint8_t *mask, int64_t filled, int64_t count,
    int in_loss_state, double p, double q, int64_t batch,
    int64_t *gap_runs, int64_t *burst_runs)
{
    /* Per round rng.geometric(p, size=batch), then rng.geometric(q,
       size=batch), draw for draw; the caller holds the generator lock. */
    while (filled < count) {
        for (int64_t i = 0; i < batch; i++)
            gap_runs[i] = random_geometric(bitgen, p);
        for (int64_t i = 0; i < batch; i++)
            burst_runs[i] = random_geometric(bitgen, q);
        filled = fill_sojourns(
            mask, filled, count, in_loss_state, gap_runs, burst_runs, batch);
    }
    return filled;
}
#endif

void fill_sojourns_batch(
    uint8_t *masks, int64_t count, const uint8_t *states,
    const int64_t *gap_runs, const int64_t *burst_runs,
    int64_t num_runs, int64_t batch, int64_t *filled_out,
    int64_t num_threads)
{
    /* Row-parallel like the peel: each run fills its own mask row and
       filled_out slot from its own sojourn columns, no shared state. */
    (void)num_threads;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) num_threads((int)num_threads)
#endif
    for (int64_t run = 0; run < num_runs; run++) {
        filled_out[run] = fill_sojourns(
            masks + run * count, 0, count, states[run],
            gap_runs + run * batch, burst_runs + run * batch, batch);
    }
}
"""

_I64 = ctypes.POINTER(ctypes.c_int64)
_I32 = ctypes.POINTER(ctypes.c_int32)
_U8 = ctypes.POINTER(ctypes.c_uint8)


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME", "").strip() or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro-kernels"


def compiler() -> str | None:
    """The C compiler used for the extension, or None when absent."""
    return shutil.which(os.environ.get("CC", "").strip() or "cc")


def _extra_cflags() -> list[str]:
    """User/CI-supplied compile flags (``CFLAGS``), applied to both builds.

    This is also the OpenMP-probe poison hook: ``-DREPRO_POISON_OPENMP``
    makes the ``-fopenmp`` probe compile fail by construction while the
    serial fallback (where ``_OPENMP`` is undefined) still builds.
    """
    return shlex.split(os.environ.get("CFLAGS", ""))


def _npyrandom_archive() -> Path:
    """numpy's static distributions library (``random_geometric`` lives here)."""
    return Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"


def _compile(cc: str, source: Path, artefact: Path, *, openmp: bool, archive: Path | None):
    flags = ["-fopenmp"] if openmp else []
    link = [] if archive is None else [str(archive), "-lm"]
    if archive is not None:
        flags.append("-DREPRO_NPYRANDOM")
    command = [cc, "-O2", "-shared", "-fPIC", *flags, *_extra_cflags()]
    command += ["-o", str(artefact), str(source), *link]
    return subprocess.run(command, capture_output=True, text=True)


def _build_library() -> Path:
    """Compile the kernels into the cache (once per source revision).

    Two optional features degrade with one logged warning each instead of
    failing: the OpenMP build (``-fopenmp``; the pragmas are inert without
    it) and ``fill_gilbert``, which links numpy's ``libnpyrandom.a`` (and
    is ``#ifdef``-ed out without it).  The first attempt has both; on
    failure the archive goes first, then OpenMP, then both, and the
    attempt that succeeds names the culprit.  The cache name encodes
    source + ``CFLAGS`` + numpy + variant, so a cached fallback never
    masks a full build from a different environment (and vice versa).

    Every environment failure -- no compiler, compile error, unwritable
    cache directory -- surfaces as ``ImportError`` so the registry treats
    the backend as unavailable and ``auto`` degrades to numpy instead of
    crashing the decode.
    """
    cc = compiler()
    if cc is None:
        raise ImportError("no C compiler (cc) on PATH for the cext backend")
    archive = _npyrandom_archive()
    variants = [(True, True), (True, False), (False, True), (False, False)]
    # numpy's version and archive bytes key the cache too: a numpy upgrade
    # recompiles instead of loading a stale random_geometric.
    identity = ""
    if archive.is_file():
        identity = hashlib.sha256(archive.read_bytes()).hexdigest()
    else:
        _warn_gilbert_unavailable(f"numpy ships no {archive}")
        variants = [(True, False), (False, False)]
    seed = "\x00".join([_C_SOURCE, *_extra_cflags(), np.__version__, identity])
    digest = hashlib.sha256(seed.encode("utf-8")).hexdigest()[:16]
    cache = _cache_dir()

    def target(openmp: bool, gilbert: bool) -> Path:
        tags = ("omp" if openmp else "serial") + ("" if gilbert else "-nogilbert")
        return cache / f"peel-{digest}-{tags}.so"

    try:
        for variant in variants:
            if target(*variant).exists():
                # Settled by an earlier build; load time re-warns.
                return target(*variant)
        cache.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=cache) as build_dir:
            source = Path(build_dir) / "peel.c"
            source.write_text(_C_SOURCE, encoding="utf-8")
            artefact = Path(build_dir) / "peel.so"
            failures: dict = {}
            for openmp, gilbert in variants:
                result = _compile(
                    cc, source, artefact, openmp=openmp, archive=archive if gilbert else None
                )
                if result.returncode != 0:
                    failures[openmp, gilbert] = result.stderr.strip()
                    continue
                if not openmp:
                    _warn_openmp_unavailable(
                        f"probe compile with -fopenmp failed: {failures[True, gilbert]}"
                    )
                if (openmp, True) in failures:
                    _warn_gilbert_unavailable(
                        f"link against {archive} failed: {failures[openmp, True]}"
                    )
                # Atomic publish so concurrent processes never load a
                # half-written library; losing the race is fine, the
                # content is identical.
                os.replace(artefact, target(openmp, gilbert))
                return target(openmp, gilbert)
            raise ImportError(
                f"C compile of the cext kernels failed: {failures[variants[-1]]}"
            )
    except OSError as exc:
        raise ImportError(f"cext kernel build failed: {exc}") from exc


_openmp_warned = False
_gilbert_warned = False


def _warn_openmp_unavailable(detail: str) -> None:
    """One warning per process when the threaded build is unavailable.

    Degradation must be loud but never fatal and never result-changing:
    the serial kernels are bit-identical, only slower.
    """
    global _openmp_warned
    if _openmp_warned:
        return
    _openmp_warned = True
    logger.warning(
        "cext OpenMP unavailable (%s); serving single-threaded cext kernels "
        "(results unchanged, kernel_threads forced to 1)",
        detail,
    )


def _warn_gilbert_unavailable(detail: str) -> None:
    """Like the OpenMP warning: Python draws stream identically, only slower."""
    global _gilbert_warned
    if _gilbert_warned:
        return
    _gilbert_warned = True
    logger.warning(
        "cext Gilbert kernel unavailable (%s); drawing sojourns in Python", detail
    )


def _load_library() -> ctypes.CDLL:
    try:
        lib = ctypes.CDLL(str(_build_library()))
    except OSError as exc:
        raise ImportError(f"cext kernel library failed to load: {exc}") from exc
    lib.peel_openmp.restype = ctypes.c_int
    lib.peel_openmp.argtypes = []
    lib.ldgm_peel_batch.restype = None
    lib.ldgm_peel_batch.argtypes = [
        _I32, _I32, _I32, _I64, _I64, _I64,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        _I32, _U8, _I32, _U8, _I64, ctypes.c_int64,
    ]
    lib.block_count_batch.restype = None
    lib.block_count_batch.argtypes = [
        _I32, _I32, _I64, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        _I64, _I64, _I64, ctypes.c_int64, _U8, _I64, _U8, _I64, ctypes.c_int64,
    ]
    lib.fill_sojourns.restype = ctypes.c_int64
    lib.fill_sojourns.argtypes = [
        _U8, ctypes.c_int64, ctypes.c_int64, ctypes.c_int,
        _I64, _I64, ctypes.c_int64,
    ]
    lib.fill_sojourns_batch.restype = None
    lib.fill_sojourns_batch.argtypes = [
        _U8, ctypes.c_int64, _U8, _I64, _I64,
        ctypes.c_int64, ctypes.c_int64, _I64, ctypes.c_int64,
    ]
    if hasattr(lib, "fill_gilbert"):
        lib.fill_gilbert.restype = ctypes.c_int64
        lib.fill_gilbert.argtypes = [
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_int, ctypes.c_double, ctypes.c_double, ctypes.c_int64,
            ctypes.c_void_p, ctypes.c_void_p,
        ]
    else:
        _warn_gilbert_unavailable("library built without libnpyrandom")
    if not lib.peel_openmp():
        _warn_openmp_unavailable("library built without OpenMP")
    return lib


def _i64(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.int64)


class CExtBackend(KernelBackend):
    """Loop kernels compiled on demand with the system C compiler.

    The batch kernels run row-parallel over runs when the library was
    built with OpenMP; the team size comes from the active
    ``kernel_threads`` resolution (:func:`~repro.kernels.threads.current_thread_count`)
    at call time, clamped to the batch size.  A serial-fallback library
    pins it to 1.  Either way the results are bit-identical -- threads
    are a wall-clock knob, like the backend choice itself.
    """

    name = "cext"

    def __init__(self) -> None:
        self._lib = _load_library()
        #: Whether the loaded library was built with OpenMP (provenance).
        self.openmp = bool(self._lib.peel_openmp())
        #: The Gilbert chain kernel; None falls back to Python draws.
        self._fill_gilbert = getattr(self._lib, "fill_gilbert", None)

    def _team_size(self, num_runs: int) -> int:
        if not self.openmp:
            return 1
        return max(1, min(current_thread_count(), num_runs))

    def ldgm_decode_batch(
        self, prototype: "LDGMPrototype", batch: ReceivedBatch
    ) -> Tuple[np.ndarray, np.ndarray]:
        num_runs = batch.num_runs
        decoded = np.zeros(num_runs, dtype=np.uint8)
        n_necessary = np.full(num_runs, NOT_DECODED, dtype=np.int64)
        if batch.flat.size:
            num_checks = prototype.num_checks
            threads = self._team_size(num_runs)
            # One scratch slice per thread: rows of these (threads, ...)
            # arrays are private to their OpenMP thread, which is what
            # keeps N-thread peeling bit-identical to 1-thread.
            state = np.empty((threads, num_checks, 2), dtype=np.int32)
            known = np.empty((threads, prototype.n), dtype=np.uint8)
            stack = np.empty((threads, num_checks + 2), dtype=np.int32)
            flat = _i64(batch.flat)
            offsets = _i64(batch.offsets)
            lengths = _i64(batch.lengths)
            self._lib.ldgm_peel_batch(
                prototype.peel_indptr.ctypes.data_as(_I32),
                prototype.peel_rows.ctypes.data_as(_I32),
                prototype.peel_state.ctypes.data_as(_I32),
                flat.ctypes.data_as(_I64),
                offsets.ctypes.data_as(_I64),
                lengths.ctypes.data_as(_I64),
                num_runs,
                prototype.k,
                prototype.n,
                num_checks,
                state.ctypes.data_as(_I32),
                known.ctypes.data_as(_U8),
                stack.ctypes.data_as(_I32),
                decoded.ctypes.data_as(_U8),
                n_necessary.ctypes.data_as(_I64),
                threads,
            )
        return decoded.astype(bool), n_necessary

    def block_count_decode_batch(
        self, prototype: "BlockCountPrototype", batch: ReceivedBatch
    ) -> Tuple[np.ndarray, np.ndarray]:
        num_runs = batch.num_runs
        decoded = np.zeros(num_runs, dtype=np.uint8)
        n_necessary = np.full(num_runs, NOT_DECODED, dtype=np.int64)
        if num_runs:
            threads = self._team_size(num_runs)
            # Per-thread scratch, as in the peel: seen-key bytes and
            # per-group distinct counts.
            seen = np.empty((threads, prototype.num_keys), dtype=np.uint8)
            counts = np.empty((threads, prototype.num_groups), dtype=np.int64)
            flat = _i64(batch.flat)
            offsets = _i64(batch.offsets)
            lengths = _i64(batch.lengths)
            self._lib.block_count_batch(
                prototype.key_of_index.ctypes.data_as(_I32),
                prototype.group_of_key.ctypes.data_as(_I32),
                prototype.needed.ctypes.data_as(_I64),
                prototype.num_keys,
                prototype.num_groups,
                prototype.goal,
                flat.ctypes.data_as(_I64),
                offsets.ctypes.data_as(_I64),
                lengths.ctypes.data_as(_I64),
                num_runs,
                seen.ctypes.data_as(_U8),
                counts.ctypes.data_as(_I64),
                decoded.ctypes.data_as(_U8),
                n_necessary.ctypes.data_as(_I64),
                threads,
            )
        return decoded.astype(bool), n_necessary

    def fill_sojourns(
        self,
        mask: np.ndarray,
        filled: int,
        in_loss_state: bool,
        gap_runs: np.ndarray,
        burst_runs: np.ndarray,
    ) -> int:
        return int(
            self._lib.fill_sojourns(
                mask.ctypes.data_as(_U8),
                int(filled),
                int(mask.shape[0]),
                int(bool(in_loss_state)),
                _i64(gap_runs).ctypes.data_as(_I64),
                _i64(burst_runs).ctypes.data_as(_I64),
                int(gap_runs.shape[0]),
            )
        )

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
        # numpy's own random_geometric on the generator's bitgen_t, under
        # the generator's lock, so the draws are rng.geometric's exactly.
        if self._fill_gilbert is None or not mask.flags.c_contiguous:
            return super().fill_gilbert(rng, mask, filled, in_loss_state, p, q, batch)
        scratch = np.empty((2, batch), dtype=np.int64)
        bit_generator = rng.bit_generator
        with bit_generator.lock:
            return self._fill_gilbert(
                bit_generator.ctypes.bit_generator, mask.ctypes.data, int(filled),
                mask.shape[0], int(bool(in_loss_state)), p, q, batch,
                scratch[0].ctypes.data, scratch[1].ctypes.data,
            )

    def fill_sojourns_batch(
        self,
        masks: np.ndarray,
        states: np.ndarray,
        gap_runs: np.ndarray,
        burst_runs: np.ndarray,
    ) -> np.ndarray:
        # One C call fills every row: the per-row ctypes marshalling of the
        # loop default (~20 us/run) is what this kernel exists to remove.
        num_runs, count = masks.shape
        filled = np.empty(num_runs, dtype=np.int64)
        if not masks.flags.c_contiguous:  # pragma: no cover - caller allocates
            return super().fill_sojourns_batch(masks, states, gap_runs, burst_runs)
        if num_runs:
            self._lib.fill_sojourns_batch(
                # A view, not a copy: the C rows must land in the caller's
                # array (bool and uint8 share the memory layout).
                masks.view(np.uint8).ctypes.data_as(_U8),
                int(count),
                np.ascontiguousarray(states, dtype=np.uint8).ctypes.data_as(_U8),
                _i64(gap_runs).ctypes.data_as(_I64),
                _i64(burst_runs).ctypes.data_as(_I64),
                int(num_runs),
                int(gap_runs.shape[1]),
                filled.ctypes.data_as(_I64),
                self._team_size(num_runs),
            )
        return filled


__all__ = ["CExtBackend", "compiler"]
