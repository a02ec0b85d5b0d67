"""Wall times corrected for the changing speed of a shared host.

On a shared machine the same single-threaded work takes up to 1.8x
longer while other tenants load the cores, in spells of seconds to a
minute; the program's own CPU time grows with it, so neither wall time
nor CPU time repeats from run to run.  A fixed reference loop of the same
kind of work slows in the same spells by about the same factor, so the
benchmark brackets every timed piece of work with one and reports

    corrected = wall / (loop time around it) * unloaded loop time,

the wall time the work takes at the speed the loop runs at on an
unloaded core.  The loops do not touch the program, so no change to the
program can move them.

The kind of work matters.  Timed in turn for 150 s, a warm torus
scenario (interpreter and a small C kernel) divided by the interpreter
loop varied by at most 7% between 20-second windows, against 57% for the
scenario alone; a 250 000-node torus build (array work) divided by the
memory loop varied by 7%, against 33% alone and 22% divided by the
interpreter loop.
"""

from __future__ import annotations

import mmap
import statistics
import time
from typing import Any, Callable, Tuple

import numpy


def interpreter_loop() -> int:
    """A fixed piece of interpreter work: arithmetic and dict stores."""
    table = {}
    total = 0
    for i in range(80_000):
        total += (i * 7) % 13
        table[i & 1023] = total
    return total


def memory_loop() -> float:
    """A fixed piece of array work on fresh pages: fill, sort and gather
    2 M doubles (16 MB).

    The arrays live in pages mapped and unmapped here rather than taken
    from malloc, which would keep them and raise its own thresholds: the
    loop leaves the process's allocator, and its resident memory, as it
    found them.
    """
    size, picked = 2_000_000, 500_000
    buffers = [mmap.mmap(-1, 8 * n) for n in (size, picked, picked)]
    try:
        values = numpy.frombuffer(buffers[0], dtype=numpy.float64)
        picks = numpy.frombuffer(buffers[1], dtype=numpy.int64)
        out = numpy.frombuffer(buffers[2], dtype=numpy.float64)
        numpy.random.default_rng(0).random(out=values)
        numpy.multiply(values[:picked], size, out=out)
        numpy.copyto(picks, out, casting="unsafe")
        values.sort()
        numpy.take(values, picks, out=out)
        total = float(out.sum())
        del values, picks, out
    finally:
        for buffer in buffers:
            buffer.close()
    return total


class Reference:
    """A reference loop and its time on an unloaded core."""

    def __init__(self, loop: Callable[[], Any], unloaded_s: float) -> None:
        self.loop = loop
        self.unloaded_s = unloaded_s

    def time(self, repeat: int = 1) -> float:
        """Median time of ``repeat`` runs of the loop."""
        times = []
        for _ in range(repeat):
            start = time.perf_counter()
            self.loop()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def correct(self, wall: float, before: float, after: float) -> float:
        """``wall`` at the loop's unloaded speed, from the loop times around it."""
        return wall / ((before + after) / 2.0) * self.unloaded_s


# About each loop's time on an unloaded core of the machine the benchmark
# was calibrated on (2 vCPUs of an Intel Xeon, Python 3.11, NumPy 2.4; the
# fastest runs took 9.7 and 42.7 ms).  The constants only set the unit:
# they leave every ratio between two runs unchanged.
INTERPRETER = Reference(interpreter_loop, 0.0100)
MEMORY = Reference(memory_loop, 0.0470)


def timed(
    action: Callable[[], Any], before: float, reference: Reference = INTERPRETER
) -> Tuple[float, float, Any]:
    """Run ``action`` once; returns its corrected wall time, the loop time
    measured after it (the next action's ``before``) and its output."""
    start = time.perf_counter()
    output = action()
    wall = time.perf_counter() - start
    after = reference.time()
    return reference.correct(wall, before, after), after, output
