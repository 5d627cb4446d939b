"""Machine-speed calibration for the end-to-end timings.

The benchmark runs on shared virtual machines whose speed drifts by up to
a factor of two over minutes, as neighbours load the host.  A fixed piece
of Python and NumPy work -- a calibration chunk, which does not touch the
``repro`` package, so no change to the program can move it -- is timed on
every CPU right before and right after every repetition, in the
benchmark's own process while nothing else of the benchmark runs.  A
repetition's time is then scaled to the reference speed, at which one
chunk takes :data:`REFERENCE_CHUNK_S`:

    scaled = measured * REFERENCE_CHUNK_S / chunk_time

A program that gets faster or slower moves the scaled time by the same
share as the measured one; a machine that gets faster or slower moves the
chunk time with it and leaves the scaled time where it was.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import List, Sequence

import numpy as np

#: Chunk time, in seconds, that defines the reference speed.
REFERENCE_CHUNK_S = 0.005

#: Length of one calibration block, in seconds.
BLOCK_S = 2.0

_RNG = np.random.default_rng(12345)
_VALUES = _RNG.random(1 << 16)
_INDEX = _RNG.integers(0, 1 << 16, 1 << 16)


def chunk() -> float:
    """One calibration chunk: an interpreted integer loop filling a dict,
    then a sort, a gather and a prefix sum over 64 Ki doubles.

    Of the mixes tried, this one followed ``fig09-paper`` best: over
    alternating blocks and repetitions its time moved with the
    repetitions' wall time at an elasticity of 0.95.
    """
    table = {}
    acc = 0
    for i in range(20000):
        acc = (acc * 31 + i) & 0xFFFF
        table[acc & 1023] = i
    sums = np.cumsum(np.sort(_VALUES)[_INDEX])
    return acc + len(table) + float(sums[-1])


def block(seconds: float = BLOCK_S) -> float:
    """Mean over the CPUs this process may use of each CPU's median chunk
    time, in seconds, taking about ``seconds`` in all.

    The workloads' processes move between CPUs, and the CPUs of a shared
    machine do not always run at the same speed, so every CPU is timed in
    turn, with this process pinned to it.
    """
    cpus = sorted(os.sched_getaffinity(0))
    medians = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times: List[float] = []
            end = time.perf_counter() + seconds / len(cpus)
            while not times or time.perf_counter() < end:
                start = time.perf_counter()
                chunk()
                times.append(time.perf_counter() - start)
            medians.append(statistics.median(times))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(medians)


def scale(before: float, after: float) -> float:
    """Factor that takes a time measured between two calibration blocks
    (their median chunk times) to the reference speed."""
    return REFERENCE_CHUNK_S / ((before + after) / 2.0)


def scaled_between(measured: Sequence[float], blocks: Sequence[float]) -> List[float]:
    """Scale ``measured[i]``, taken between ``blocks[i]`` and ``blocks[i + 1]``."""
    if len(blocks) != len(measured) + 1:
        raise ValueError(f"{len(measured)} timings need {len(measured) + 1} calibration blocks, got {len(blocks)}")
    return [value * scale(blocks[i], blocks[i + 1]) for i, value in enumerate(measured)]
