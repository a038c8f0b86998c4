"""The machine's speed during a run, from a fixed reference kernel.

The benchmark shares its host with other machines.  The CPU time that the
same Python and numpy work takes changes by up to 1.5x from one second to
the next as they come and go, and a run can spend most of its time on
either side of that.  The reference kernel below is the same work in every
run and at every commit, in two halves that stand for the two kinds of
work in dspn:

- a forward recursion over 4 states in a Python loop of small numpy calls,
  with a few batched array operations: the dispatch and arithmetic of the
  circuit passes, EM and Baum-Welch;
- a walk in random order over 60,000 small Python objects (about 20 MB):
  the pointer chasing of parsing, unrolling and building circuits.

Code of the second kind slows more than code of the first when the host is
busy, so the kernel needs both to stand for all of dspn.

The benchmark runs the kernel at the edges of every timed piece of work,
never inside one, and scales the piece's CPU time by the kernel's CPU time
on either side of it (their mean, over ``REFERENCE_S``).  A reported time is
therefore in *reference seconds*: the CPU seconds the work would take on a
machine where the kernel takes ``REFERENCE_S``.  The raw CPU times and the
kernel samples are kept in ``result.json``.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracer import clock

# The kernel's CPU time on an unloaded 2-core AMD EPYC (KVM) machine.  A
# constant, so that reference seconds stay comparable between commits.
REFERENCE_S = 0.016
STEPS = 1200
WALK = 15_000

_rng = np.random.default_rng(0)
_LOG_A = np.log(_rng.dirichlet(np.ones(4), 4))
_LOG_E = np.log(_rng.random((STEPS, 4)))
_BATCH = _rng.random((256, 16))
_OBJECTS = [(i, str(i), {"k": i}) for i in range(60_000)]
_ORDER = _rng.permutation(len(_OBJECTS))[:WALK].tolist()


def kernel() -> float:
    alpha = np.zeros(4)
    last = {}
    for t in range(STEPS):
        x = alpha[:, None] + _LOG_A
        top = x.max(axis=0)
        alpha = top + np.log(np.exp(x - top).sum(axis=0)) + _LOG_E[t]
        last[t % 61] = float(alpha[0])
        if t % 120 == 0:
            b = np.log(_BATCH @ _BATCH.T + 1.0)
            alpha = alpha + b[:4, :4].sum(axis=0) * 1e-6
    seen = {}
    for j in _ORDER:
        i, key, box = _OBJECTS[j]
        seen[key] = box["k"] + i
    return float(alpha.sum()) + sum(last.values()) + len(seen)


class Speed:
    """Kernel samples of one run, and the CPU time of the work between
    them."""

    def __init__(self):
        self.samples: list[float] = []
        self.cpu_s = 0.0        # raw CPU seconds of the laps so far
        self.ref_s = 0.0        # the same laps in reference seconds
        # (label, CPU seconds, index of the sample that ended the lap)
        self.laps: list[tuple[str, float, int]] = []
        self._mark = 0.0

    def sample(self) -> None:
        t0 = clock()
        kernel()
        self.samples.append(clock() - t0)

    def scale(self, cpu_s: float) -> float:
        """CPU seconds of work done between the last two samples, in
        reference seconds."""
        around = self.samples[-2:]
        return cpu_s * REFERENCE_S * len(around) / sum(around)

    def start(self) -> None:
        """Take a sample and start timing the next piece of work."""
        self.sample()
        self._mark = clock()

    def lap(self, label: str) -> float:
        """End the piece of work that started at the last ``start`` or
        ``lap``, take a sample, start the next piece, and return the ended
        piece's CPU time in reference seconds."""
        cpu = clock() - self._mark
        self.sample()
        ref = self.scale(cpu)
        self.laps.append((label, cpu, len(self.samples) - 1))
        self.cpu_s += cpu
        self.ref_s += ref
        self._mark = clock()
        return ref

    def factor(self) -> float:
        """The run's median kernel time over ``REFERENCE_S``: how many times
        slower than the reference machine it ran."""
        return statistics.median(self.samples) / REFERENCE_S
