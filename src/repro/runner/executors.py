"""Executors: strategies for running a batch of work units.

Three strategies are provided behind one tiny interface
(``run(units, on_result)``):

* :class:`SerialExecutor` runs units in order in the calling process --
  zero overhead, and the unit order (hence the progress-callback order)
  matches the historical serial sweep loops exactly.
* :class:`ProcessExecutor` fans units out over a
  ``concurrent.futures.ProcessPoolExecutor`` in chunks.  Because every
  unit derives its own seeds, completion order does not matter: the engine
  reassembles cells by their ``seed_path``, so parallel results are
  bit-identical to serial ones.  The pool starts on the first ``run()``
  and serves every later one until :meth:`~ProcessExecutor.close`, so
  each worker builds a shared code or compiles a prototype once per
  process, not once per adaptive round, config or fleet claim batch.
* :class:`ThreadExecutor` fans units out over an in-process thread pool:
  no pickling, and every worker shares the per-backend compiled-prototype
  cache, the shared-code cache and NumPy buffers.  The compiled kernels
  drop the GIL for the duration of their C calls, so thread workers
  compose with the kernels' own OpenMP row-parallelism; both executors
  declare their worker count to :mod:`repro.kernels.threads` so ``auto``
  kernel-thread counts obey the oversubscription rule (executor workers x
  kernel threads <= physical cores).

``on_result`` is always invoked in the calling process and thread (for
the pools: as futures complete), which is what bridges worker progress
back to the user's progress callback and lets the engine write the
result store from a single thread.

Both executors optionally carry a
:class:`~repro.resilience.policy.FailurePolicy`.  Without one (the
default) a unit that raises kills the run exactly as it always did.
With one, each unit is retried with deterministic backoff (and an
optional per-attempt timeout), and a unit that exhausts its attempts is
*dispatched*: ``on_error="raise"`` raises
:class:`~repro.resilience.errors.PoisonUnitError`, the skip/quarantine
actions hand a structured :class:`~repro.resilience.policy.UnitFailure`
to the ``on_failure`` callback.  The retry loop runs inside the worker
process (outcomes are picklable), so the policy costs nothing on the
fault-free path.

Ownership rule: every executor has ``close()`` (a no-op except for the
process pool).  Whoever resolves an executor from a *name* owns it and
closes it when done -- the sweep entry points all do so through
:func:`executor_scope` -- while an instance passed in is borrowed and
left open for its owner.

:class:`~repro.runner.fleet.FleetRunner` implements the same protocol on
top of a shared result store's lease API, wrapping one of these executors
for the units it wins -- an executor is "how this process runs units",
the fleet runner is "which units this process gets to run".  Executors
expose their local parallelism as a ``workers`` attribute so the fleet
runner can size its claim batches.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from functools import partial
from typing import Callable, Iterator, Optional, Protocol, Sequence, Union

from repro.kernels.threads import set_worker_divisor, worker_divisor_context
from repro.resilience.errors import PoisonUnitError
from repro.resilience.policy import (
    FailurePolicy,
    UnitFailure,
    UnitOutcome,
    resolve_policy,
    run_unit_with_policy,
    run_units_with_policy,
)
from repro.runner.units import UnitResult, WorkUnit, execute_unit, execute_units
from repro.utils.validation import validate_positive_int

OnResult = Callable[[UnitResult], None]
OnFailure = Callable[[UnitFailure], None]


class Executor(Protocol):
    """Anything that can execute work units and stream back results."""

    def run(
        self,
        units: Sequence[WorkUnit],
        on_result: OnResult,
        on_failure: Optional[OnFailure] = None,
    ) -> None: ...


def deliver_outcome(
    outcome: UnitOutcome,
    policy: FailurePolicy,
    on_result: OnResult,
    on_failure: Optional[OnFailure],
) -> None:
    """Dispatch one policy outcome: result, failure callback, or raise.

    ``on_error="raise"`` (and a missing ``on_failure`` sink, whatever the
    action) escalates to :class:`PoisonUnitError` carrying the structured
    failure -- the caller that configured skip/quarantine always provides
    the sink, so the error path cannot silently drop units.
    """
    if outcome.result is not None:
        on_result(outcome.result)
        return
    failure = outcome.failure
    assert failure is not None
    if policy.on_error == "raise" or on_failure is None:
        raise PoisonUnitError(failure.describe(), failure)
    on_failure(failure)


class SerialExecutor:
    """Execute units one after the other in the calling process."""

    #: Local parallelism (fleet claim-batch sizing).
    workers = 1

    def __init__(self, policy: Optional[FailurePolicy] = None):
        self.policy = resolve_policy(policy)

    def _execute_one(self, unit: WorkUnit) -> UnitResult:
        """Execution hook (fault-injecting test executors override it)."""
        return execute_unit(unit)

    def run(
        self,
        units: Sequence[WorkUnit],
        on_result: OnResult,
        on_failure: Optional[OnFailure] = None,
    ) -> None:
        if self.policy is None:
            for unit in units:
                on_result(self._execute_one(unit))
            return
        for unit in units:
            outcome = run_unit_with_policy(
                unit, self.policy, execute=self._execute_one
            )
            deliver_outcome(outcome, self.policy, on_result, on_failure)

    def close(self) -> None:
        """Nothing to release; runs hold no state between calls."""


def _pool_context() -> multiprocessing.context.BaseContext:
    """A fork-safe multiprocessing context for the process pool.

    Plain ``fork`` is off the table once compiled kernels may have run
    OpenMP regions in the parent: libgomp's thread-team state does not
    survive ``fork()``, and a forked worker entering its first parallel
    region deadlocks.  ``forkserver`` sidesteps this -- the server
    process is started by exec before any kernel runs, so its children
    are always OpenMP-clean -- with ``spawn`` as the portable fallback
    where ``forkserver`` is unavailable.
    """
    try:
        return multiprocessing.get_context("forkserver")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


class ProcessExecutor:
    """Execute units on a process pool with chunked dispatch.

    The pool starts lazily on the first :meth:`run` and every later
    ``run()`` reuses it, so the workers' per-process caches (shared codes,
    compiled prototypes, loaded kernels) carry over from one adaptive
    round, config or fleet claim batch to the next.  :meth:`close` -- or
    leaving a ``with ProcessExecutor(...)`` block -- shuts it down.  A
    pool that breaks (a worker died) fails the ``run()`` that saw it with
    :class:`~concurrent.futures.process.BrokenProcessPool` and is dropped,
    so the next ``run()`` starts a fresh one.

    Parameters
    ----------
    workers:
        Pool size (and the kernel-thread divisor every worker declares);
        defaults to ``os.cpu_count()``.
    chunk_size:
        Units per task sent to a worker.  The default targets about four
        chunks per worker, which amortises pickling overhead while keeping
        the pool balanced when cells have very different costs (decoding
        failures are much cheaper than successes).
    max_pending:
        Cap on in-flight chunks, so planning a paper-scale sweep does not
        enqueue tens of thousands of futures at once.
    policy:
        Optional :class:`FailurePolicy`.  The retry loop runs inside each
        worker process; outcomes come back picklable and are dispatched
        (result / failure / raise) in the calling process.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        chunk_size: Optional[int] = None,
        max_pending: Optional[int] = None,
        policy: Optional[FailurePolicy] = None,
    ):
        if workers is None:
            workers = os.cpu_count() or 1
        self.workers = validate_positive_int(workers, "workers")
        if chunk_size is not None:
            chunk_size = validate_positive_int(chunk_size, "chunk_size")
        self.chunk_size = chunk_size
        self.max_pending = (
            validate_positive_int(max_pending, "max_pending")
            if max_pending is not None
            else 4 * self.workers
        )
        self.policy = resolve_policy(policy)
        self._pool: Optional[ProcessPoolExecutor] = None

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut the pool down (idempotent); a later ``run()`` starts a new one."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def _chunks(self, units: Sequence[WorkUnit]) -> list[list[WorkUnit]]:
        if self.chunk_size is not None:
            size = self.chunk_size
        else:
            size = max(1, len(units) // (4 * self.workers))
        return [list(units[i : i + size]) for i in range(0, len(units), size)]

    def run(
        self,
        units: Sequence[WorkUnit],
        on_result: OnResult,
        on_failure: Optional[OnFailure] = None,
    ) -> None:
        if not units:
            return
        if self.policy is None:
            task = execute_units
        else:
            task = partial(run_units_with_policy, policy=self.policy)
        if self._pool is None:
            # Each worker declares the pool size to the kernel-thread
            # resolver, so ``auto`` kernel threads obey the
            # oversubscription rule.
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=_pool_context(),
                initializer=set_worker_divisor,
                initargs=(self.workers,),
            )
        pool = self._pool
        pending = set()
        queued = iter(self._chunks(units))
        exhausted = False
        try:
            while pending or not exhausted:
                while not exhausted and len(pending) < self.max_pending:
                    chunk = next(queued, None)
                    if chunk is None:
                        exhausted = True
                        break
                    pending.add(pool.submit(task, chunk))
                if not pending:
                    break
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    if self.policy is None:
                        for result in future.result():
                            on_result(result)
                    else:
                        for outcome in future.result():
                            deliver_outcome(
                                outcome, self.policy, on_result, on_failure
                            )
        except BrokenProcessPool:
            self.close()
            raise
        finally:
            # An aborted run leaves nothing queued for the next one.
            for future in pending:
                future.cancel()


class ThreadExecutor:
    """Execute units on an in-process thread pool: shared memory, no pickling.

    Worker threads share the per-backend compiled-prototype cache, the
    shared-code cache and every NumPy buffer directly, so the pickling
    and per-process compile costs of :class:`ProcessExecutor` vanish.
    Pure-Python stages still serialise on the GIL, but the compiled
    kernels (and NumPy's own released-GIL regions) run concurrently --
    ctypes drops the GIL for the duration of each C call -- which makes
    thread workers compose with the kernels' OpenMP row-parallelism.

    While dispatching, the executor declares its worker count to
    :mod:`repro.kernels.threads`, so ``kernel_threads="auto"`` resolves
    to ``physical_cores // workers`` per unit: the oversubscription rule
    (executor threads x kernel threads <= cores) holds by construction.

    Completion order does not matter -- every unit derives its own seeds
    and the engine reassembles cells by ``seed_path`` -- so results are
    bit-identical to the serial and process executors.  ``on_result`` /
    ``on_failure`` are invoked in the calling thread.

    Parameters
    ----------
    workers:
        Thread count; defaults to ``os.cpu_count()``.
    max_pending:
        Cap on in-flight units (default ``4 * workers``), bounding the
        retained futures for paper-scale unit lists.
    policy:
        Optional :class:`FailurePolicy`; the retry loop runs inside the
        worker thread, dispatch happens in the calling thread.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        max_pending: Optional[int] = None,
        policy: Optional[FailurePolicy] = None,
    ):
        if workers is None:
            workers = os.cpu_count() or 1
        self.workers = validate_positive_int(workers, "workers")
        self.max_pending = (
            validate_positive_int(max_pending, "max_pending")
            if max_pending is not None
            else 4 * self.workers
        )
        self.policy = resolve_policy(policy)

    def _execute_one(self, unit: WorkUnit) -> UnitResult:
        """Execution hook (fault-injecting test executors override it)."""
        return execute_unit(unit)

    def _task(self, unit: WorkUnit):
        if self.policy is None:
            return self._execute_one(unit)
        return run_unit_with_policy(unit, self.policy, execute=self._execute_one)

    def run(
        self,
        units: Sequence[WorkUnit],
        on_result: OnResult,
        on_failure: Optional[OnFailure] = None,
    ) -> None:
        if not units:
            return
        with worker_divisor_context(self.workers), ThreadPoolExecutor(
            max_workers=min(self.workers, len(units)),
            thread_name_prefix="repro-unit",
        ) as pool:
            pending = set()
            queued = iter(units)
            exhausted = False
            while pending or not exhausted:
                while not exhausted and len(pending) < self.max_pending:
                    unit = next(queued, None)
                    if unit is None:
                        exhausted = True
                        break
                    pending.add(pool.submit(self._task, unit))
                if not pending:
                    break
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    if self.policy is None:
                        on_result(future.result())
                    else:
                        deliver_outcome(
                            future.result(), self.policy, on_result, on_failure
                        )

    def close(self) -> None:
        """Nothing to release; each ``run()`` owns its thread pool."""


def resolve_executor(
    executor: Union[str, Executor, None],
    workers: Optional[int] = None,
    policy: Optional[FailurePolicy] = None,
) -> Executor:
    """Build an executor from the user-facing ``executor``/``workers`` knobs.

    ``executor`` may be an executor instance (returned as-is -- the caller
    owns its policy), ``"serial"``, ``"process"``, ``"thread"``, or
    ``None`` -- which picks the process pool when more than one worker was
    requested and the serial path otherwise (the thread pool is opt-in:
    it wins when the workload is dominated by released-GIL kernel time,
    the process pool when pure-Python stages dominate).
    """
    if executor is None:
        executor = "process" if workers is not None and workers > 1 else "serial"
    if not isinstance(executor, str):
        return executor
    name = executor.lower()
    if name == "serial":
        return SerialExecutor(policy=policy)
    if name == "process":
        return ProcessExecutor(workers, policy=policy)
    if name == "thread":
        return ThreadExecutor(workers, policy=policy)
    raise ValueError(
        f"unknown executor {executor!r}; available: 'serial', 'process', 'thread'"
    )


@contextmanager
def executor_scope(
    executor: Union[str, Executor, None],
    workers: Optional[int] = None,
    policy: Optional[FailurePolicy] = None,
) -> Iterator[Executor]:
    """Resolve ``executor`` for a ``with`` block, per the ownership rule.

    A name (or ``None``) is resolved here and closed on exit, so every
    config or adaptive round run inside one scope shares one process
    pool; an instance is borrowed, yielded as-is and left open.
    """
    if executor is not None and not isinstance(executor, str):
        yield executor
        return
    owned = resolve_executor(executor, workers, policy)
    try:
        yield owned
    finally:
        owned.close()


__all__ = [
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "ThreadExecutor",
    "resolve_executor",
    "executor_scope",
    "deliver_outcome",
    "OnResult",
    "OnFailure",
]
