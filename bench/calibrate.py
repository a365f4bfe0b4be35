"""Host-speed calibration: a fixed kernel sampled inside each op's process.

A vCPU of a shared host changes speed by tens of percent within seconds
and over minutes, as neighbours load the machine, so raw times of runs a
minute apart differ more than any code change worth measuring. While an
op runs, a Sampler in its process times one pass of this kernel every
INTERVAL_S; the op's own time excludes the passes. The kernel uses no
`whfactor` code and never changes. The harness rescales a run's times by
REF_S / (median pass of the run): a time then reads as seconds on a host
where one pass takes REF_S, and still moves in full with the program's
own cost.

Passes timed during the op track it: they run on its vCPU, in its slow
and fast spells. Passes timed in the harness between ops, or in the op's
process only before and after it, tracked multi-second ops far less
closely (see bench/README.md).

The kernel mixes the kinds of work the program does: a pure-Python loop
(config handling, orchestration), float-to-text formatting (CSV output),
small FFTs (the Cauchy engine), batched 2x2 matrix products (the step
solve) and a stream over two 8 MB arrays of 2^19 values, past the
per-core L2 cache, as sampling and the route cross-check stream their
2^19-node arrays; all on fixed inputs.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.5
# about the median wall time of one pass on the reference host (2 vCPUs,
# Intel Xeon, Python 3.11, numpy 2.4); rescaled times are in seconds of that host
REF_S = 0.01

_SIGNAL = np.random.default_rng(0).standard_normal(1 << 12)
_BLOCKS = np.random.default_rng(1).standard_normal((512, 2, 2))
_ROW = np.random.default_rng(2).standard_normal(8)
_STREAM = np.random.default_rng(3).standard_normal(1 << 19) + 0j
_STREAM_OUT = np.empty_like(_STREAM)


def kernel():
    acc = 0
    for i in range(10_000):
        acc += i * i % 7
    lines = [",".join(f"{v * k:.17g}" for v in _ROW) for k in range(100)]
    spec = _SIGNAL
    for _ in range(4):
        spec = np.fft.ifft(np.fft.fft(spec)).real
    prod = _BLOCKS
    for _ in range(4):
        prod = np.matmul(_BLOCKS, prod) * 0.5
    for _ in range(2):
        np.multiply(_STREAM, 1.0001, out=_STREAM_OUT)
        np.add(_STREAM_OUT, _STREAM, out=_STREAM_OUT)
    return acc + len("".join(lines)) + float(spec[0]) + float(prod[0, 0, 0])


class Sampler:
    """Times one kernel pass every INTERVAL_S of wall time, from a SIGALRM handler.

    The pass interrupts the process between two Python bytecodes, so it
    samples the host's speed during the op, on the op's vCPU. `wall` and
    `cpu` total the passes, for the caller to subtract from the op's time.
    """

    def __init__(self):
        self.passes = []  # [[wall s, cpu s], ...]
        self.wall = 0.0
        self.cpu = 0.0

    def _tick(self, _signum, _frame):
        t0, c0 = time.perf_counter(), time.process_time()
        kernel()
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        self.passes.append([wall, cpu])
        self.wall += wall
        self.cpu += cpu

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def factors(cal):
    """(wall, cpu) factors that rescale a run's times to the reference host speed.

    Medians, so that a pass the scheduler held off the CPU does not move them.
    """
    if not cal:
        return 1.0, 1.0
    return (REF_S / statistics.median(w for w, _ in cal),
            REF_S / statistics.median(c for _, c in cal))
