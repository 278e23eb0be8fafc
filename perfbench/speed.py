"""Host-speed probe: times program work at a fixed reference speed.

The benchmark runs on a few vCPUs of a shared host, whose speed for this
process changes by up to a factor of two from second to second and from
minute to minute, as other tenants load the same physical cores. Wall
time of the same work follows that speed, and a run of under a minute
cannot average it away.

So the benchmark measures the host's speed while the program runs. A
fixed probe, independent of ridkit (see `Probe`), runs from a SIGALRM
handler PERIOD seconds after the previous one ended, in the benchmark's
single thread, between the program's bytecodes. The program runs in the
gaps between probes, and each gap's speed is that of the probes around
it, against REFERENCE_S, about the probe's duration on an unloaded core
of the machine the benchmark was defined on (Intel Xeon vCPU, Python
3.11, numpy 2.4 with OpenBLAS). `own_seconds` reports the program's time
in an interval at that reference speed:

    own_seconds(a, b) = sum over gaps in [a, b] of
                        gap length * REFERENCE_S / mean(probes around the gap)

The program's outputs are untouched: the probe uses only its own arrays
and no shared random state, and it allocates no arrays while it runs.
The correction assumes the timed work runs in the benchmark's one
thread, which holds while every workload runs ridkit with `threads=1`
and BLAS pinned to one thread.
"""

from __future__ import annotations

import bisect
import operator
import signal
import time
from contextlib import contextmanager
from typing import Callable

import numpy as np

PERIOD = 0.05  # seconds between the end of one probe and the start of the next
REFERENCE_S = 0.0070  # about the probe's duration on an unloaded core of the reference machine


class Probe:
    """Fixed work with the mix of the workloads, in about these shares of
    its time: Adam steps of a 4-64-64-2 tanh MLP on 128-row batches (numpy
    dispatch-bound, 30%), forward passes of 1024 rows through two 64x64
    layers (compute-bound, 25%), a walk of a graph of scalar operations in
    plain Python (interpreter-bound, like the autodiff graph walk, 10%),
    and passes over an 8 MB array, four times a core's L2 cache
    (memory-bound, like the 65536-row forward passes of `resim`, 35%).

    Every array op writes into a buffer made once, so the probe allocates
    no arrays while it runs: allocations between the program's own would
    change how its heap fragments, and with that its peak memory.
    """

    STEPS = 8
    PASSES = 2
    BATCH = 128
    DIMS = ((4, 64), (64, 64), (64, 2))
    NODES = 6000
    STREAM_PASSES = 3

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((1024, 4))
        self.y = rng.standard_normal((1024, 2))
        self.init = [a for din, dout in self.DIMS
                     for a in (rng.standard_normal((din, dout)) * 0.3, np.zeros((1, dout)))]

        def like_params():
            return [np.empty_like(a) for a in self.init]

        self.p, self.m, self.v, self.g, self.t = (like_params() for _ in range(5))
        self.act = [np.empty((self.BATCH, dout)) for _, dout in self.DIMS]
        self.delta = [np.empty((self.BATCH, dout)) for _, dout in self.DIMS]
        self.big_x = rng.standard_normal((1024, 64))
        self.big_w = rng.standard_normal((64, 64)) * 0.1
        self.h1, self.h2 = np.empty_like(self.big_x), np.empty_like(self.big_x)
        ops = (operator.add, operator.mul, operator.sub, max)
        leaves = [float(v) for v in rng.uniform(0.5, 1.0, 16)]
        # node i reads two of the 16 values before it, so values stay bounded
        self.graph = [(16 + i, ops[i % len(ops)], *(int(j) + i for j in rng.integers(0, 16, 2)))
                      for i in range(self.NODES)]
        self.env = leaves + [0.0] * self.NODES  # made once, overwritten by each walk
        self.stream = rng.standard_normal(1 << 20)

    def walk(self) -> float:
        env = self.env
        for out, op, a, b in self.graph:
            env[out] = op(env[a], env[b]) * 0.5 + 0.25
        return env[-1]

    def __call__(self) -> float:
        p, m, v, g, t, act, delta = self.p, self.m, self.v, self.g, self.t, self.act, self.delta
        for dst, src in zip(p, self.init):
            np.copyto(dst, src)
        for a in m + v:
            a.fill(0.0)
        for step in range(1, self.STEPS + 1):
            i = (step * self.BATCH) % len(self.x)
            x, y = self.x[i:i + self.BATCH], self.y[i:i + self.BATCH]
            h = x
            for layer in range(3):
                np.matmul(h, p[2 * layer], out=act[layer])
                act[layer] += p[2 * layer + 1]
                if layer < 2:
                    np.tanh(act[layer], out=act[layer])
                h = act[layer]
            np.subtract(h, y, out=delta[2])
            delta[2] *= 2.0 / len(y)
            for layer in (2, 1, 0):
                a = act[layer - 1] if layer else x
                np.matmul(a.T, delta[layer], out=g[2 * layer])
                np.sum(delta[layer], axis=0, keepdims=True, out=g[2 * layer + 1])
                if layer:
                    below = delta[layer - 1]
                    np.matmul(delta[layer], p[2 * layer].T, out=below)
                    np.multiply(a, a, out=act[layer - 1])  # a is spent after this
                    np.subtract(1.0, act[layer - 1], out=act[layer - 1])
                    below *= act[layer - 1]
            for j in range(len(p)):
                m[j] *= 0.9
                np.multiply(g[j], 0.1, out=t[j])
                m[j] += t[j]
                v[j] *= 0.999
                np.multiply(g[j], g[j], out=t[j])
                t[j] *= 0.001
                v[j] += t[j]
                np.divide(v[j], 1 - 0.999**step, out=t[j])
                np.sqrt(t[j], out=t[j])
                t[j] += 1e-8
                np.divide(m[j], t[j], out=t[j])
                t[j] *= 1e-3 / (1 - 0.9**step)
                p[j] -= t[j]
        total = 0.0
        h1, h2 = self.h1, self.h2
        for _ in range(self.PASSES):
            np.tanh(np.matmul(self.big_x, self.big_w, out=h1), out=h1)
            np.tanh(np.matmul(h1, self.big_w, out=h2), out=h2)
            h2 += h1
            total += float(np.einsum("ij,ij->", h2, h2))
        for _ in range(self.STREAM_PASSES):
            np.multiply(self.stream, 1.0, out=self.stream)
        return total + float(p[0].sum()) + self.walk() + float(self.stream[-1])


class SpeedProbe:
    """Runs `probe` every `period` seconds while `running()`, and keeps
    each run's (start, duration) in memory."""

    def __init__(self, probe: Callable[[], object] | None = None, period: float = PERIOD,
                 reference: float = REFERENCE_S):
        self.probe = probe or Probe()
        self.period = period
        self.reference = reference
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._armed = False

    def sample(self) -> None:
        # the clock of Runner and Tracer, so probes and stage spans line up
        start = time.perf_counter()
        self.probe()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def _on_alarm(self, signum, frame) -> None:
        if not self._armed:
            return
        self.sample()
        # one-shot timer, armed again only after this probe: probes never nest
        signal.setitimer(signal.ITIMER_REAL, self.period)

    @contextmanager
    def running(self):
        """Probes now, then every `period` seconds of the block, then at its end."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        try:
            self.sample()
            self._armed = True
            signal.setitimer(signal.ITIMER_REAL, self.period)
            yield self
        finally:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.sample()

    @contextmanager
    def paused(self):
        """No probes inside the block (while a child process does the work,
        a probe here would run beside it, not instead of it)."""
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            self.sample()
            self._armed = True
            signal.setitimer(signal.ITIMER_REAL, self.period)

    def own_seconds(self, a: float, b: float) -> float:
        """Time the program spent in [a, b], at the reference speed.

        Each gap between probes is scaled by the mean duration of the
        probes that start within one gap length of it, and at least the
        probe before and the probe after it. A speed change in the middle
        of a long interval so weighs only the time it lasted, and a long
        gap with no probes in it (a paused stretch) takes its speed from
        as long a stretch on either side.
        """
        starts, durations = self.starts, self.durations
        n = len(starts)
        if not n:
            raise ValueError(f"no probe ran near [{a}, {b}]")
        own = 0.0
        i = bisect.bisect_right(starts, a) - 1  # the probe before the first gap, or -1
        while i < n and (i < 0 or starts[i] < b):
            lo = a if i < 0 else max(starts[i] + durations[i], a)
            hi = b if i + 1 == n else min(starts[i + 1], b)
            if hi > lo:
                first = min(bisect.bisect_left(starts, lo - (hi - lo)), max(i, 0))
                last = max(bisect.bisect_right(starts, hi + (hi - lo)), min(i + 2, n))
                near = durations[first:last]
                own += (hi - lo) * len(near) / sum(near)
            i += 1
        return own * self.reference
