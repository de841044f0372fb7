"""Arrival processes for aperiodic workloads.

The paper's experiments use a bursty arrival: all 1000 transactions reach
the host simultaneously at ``t = 0``.  Poisson and uniform processes are
provided for the open-system extensions and the quantum ablation (arrival
rate is one of the signals the self-adjusting criterion reacts to).

The heavy-tailed (:class:`ParetoArrival`, :class:`LogNormalArrival`) and
:class:`DiurnalArrival` processes drive the streaming service mode's
open-loop load generator.  All rate-parameterized processes share the same
convention: ``rate`` is the *mean* number of arrivals per virtual time
unit, so swapping the process changes burstiness while holding offered
load constant.

:func:`make_arrival` builds a process from a short name (``"burst"``,
``"poisson"``, ...) so arrival shape can live in an
:class:`~repro.experiments.config.ExperimentConfig` field.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from typing import Callable, Dict, List


class ArrivalProcess(ABC):
    """Generates the arrival times of ``n`` tasks."""

    @abstractmethod
    def arrival_times(self, n: int, rng: random.Random) -> List[float]:
        """``n`` non-decreasing, non-negative arrival times."""

    @property
    def name(self) -> str:
        return type(self).__name__


class BurstyArrival(ArrivalProcess):
    """All tasks arrive at once, at ``t = 0`` (paper Section 5.1)."""

    def arrival_times(self, n: int, rng: random.Random) -> List[float]:
        if n < 0:
            raise ValueError("n must be non-negative")
        return [0.0] * n


class PoissonArrival(ArrivalProcess):
    """Poisson process: exponential inter-arrival gaps at a given rate."""

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError("arrival rate must be positive")
        self.rate = rate

    def arrival_times(self, n: int, rng: random.Random) -> List[float]:
        if n < 0:
            raise ValueError("n must be non-negative")
        times: List[float] = []
        now = 0.0
        for _ in range(n):
            now += rng.expovariate(self.rate)
            times.append(now)
        return times


class UniformArrival(ArrivalProcess):
    """Arrivals spread uniformly at random over a window, then sorted."""

    def __init__(self, start: float, end: float) -> None:
        if start < 0 or end <= start:
            raise ValueError("need 0 <= start < end")
        self.start = start
        self.end = end

    def arrival_times(self, n: int, rng: random.Random) -> List[float]:
        if n < 0:
            raise ValueError("n must be non-negative")
        return sorted(rng.uniform(self.start, self.end) for _ in range(n))


class BatchedArrival(ArrivalProcess):
    """Several bursts at fixed intervals — a stress case for the quantum.

    Tasks are split as evenly as possible across ``num_batches`` bursts
    spaced ``interval`` apart, the first at ``t = 0``.
    """

    def __init__(self, num_batches: int, interval: float) -> None:
        if num_batches <= 0:
            raise ValueError("num_batches must be positive")
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.num_batches = num_batches
        self.interval = interval

    def arrival_times(self, n: int, rng: random.Random) -> List[float]:
        if n < 0:
            raise ValueError("n must be non-negative")
        times: List[float] = []
        base, extra = divmod(n, self.num_batches)
        for batch in range(self.num_batches):
            count = base + (1 if batch < extra else 0)
            times.extend([batch * self.interval] * count)
        return times


class ParetoArrival(ArrivalProcess):
    """Heavy-tailed gaps: Lomax (shifted Pareto) inter-arrival times.

    Gaps are drawn as ``scale * (U**(-1/SHAPE) - 1)`` — a Pareto-II
    distribution with mean ``scale / (SHAPE - 1)`` (finite because ``SHAPE >
    1``).  The scale is derived from ``rate`` so the *mean* arrival rate
    matches a Poisson process of the same rate, but occasional very long
    gaps are followed by tight clumps: the classic self-similar traffic
    shape that stresses admission control far harder than exponential gaps.
    """

    #: Tail index of the gap distribution (heavier tail as it nears 1).
    SHAPE = 2.5

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError("arrival rate must be positive")
        self.rate = rate
        #: Lomax scale giving mean gap 1/rate: scale = (SHAPE - 1) / rate.
        self.scale = (self.SHAPE - 1.0) / rate

    def arrival_times(self, n: int, rng: random.Random) -> List[float]:
        if n < 0:
            raise ValueError("n must be non-negative")
        times: List[float] = []
        now = 0.0
        for _ in range(n):
            # Inverse-CDF sample of Lomax(SHAPE, scale); 1 - U avoids u == 0.
            u = 1.0 - rng.random()
            now += self.scale * (u ** (-1.0 / self.SHAPE) - 1.0)
            times.append(now)
        return times


class LogNormalArrival(ArrivalProcess):
    """Heavy-tailed gaps: log-normal inter-arrival times.

    :attr:`SIGMA` sets burstiness (sigma -> 0 degenerates to a uniform
    cadence); ``mu`` is derived from ``rate`` so the mean gap is exactly
    ``1/rate`` (``mu = ln(1/rate) - SIGMA**2 / 2``).
    """

    #: Standard deviation of the gaps' logarithm.
    SIGMA = 1.0

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError("arrival rate must be positive")
        self.rate = rate
        self.mu = math.log(1.0 / rate) - (self.SIGMA * self.SIGMA) / 2.0

    def arrival_times(self, n: int, rng: random.Random) -> List[float]:
        if n < 0:
            raise ValueError("n must be non-negative")
        times: List[float] = []
        now = 0.0
        for _ in range(n):
            now += rng.lognormvariate(self.mu, self.SIGMA)
            times.append(now)
        return times


class DiurnalArrival(ArrivalProcess):
    """Non-homogeneous Poisson process with a sinusoidal rate curve.

    The instantaneous rate is ``rate * (1 + AMPLITUDE * sin(2*pi*t /
    period))`` — a day/night cycle compressed to ``period`` virtual units.
    Sampling uses Lewis & Shedler thinning: candidate gaps are drawn at the
    peak rate ``rate * (1 + AMPLITUDE)`` and accepted with probability
    ``rate(t) / peak``, which is exact for any bounded rate curve.
    """

    #: Relative swing of the rate curve; below 1 so the rate stays positive.
    AMPLITUDE = 0.8

    def __init__(self, rate: float, period: float) -> None:
        if rate <= 0:
            raise ValueError("arrival rate must be positive")
        if period <= 0:
            raise ValueError("period must be positive")
        self.rate = rate
        self.period = period

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at virtual time ``t``."""
        return self.rate * (
            1.0 + self.AMPLITUDE * math.sin(2.0 * math.pi * t / self.period)
        )

    def arrival_times(self, n: int, rng: random.Random) -> List[float]:
        if n < 0:
            raise ValueError("n must be non-negative")
        peak = self.rate * (1.0 + self.AMPLITUDE)
        times: List[float] = []
        now = 0.0
        while len(times) < n:
            now += rng.expovariate(peak)
            if rng.random() * peak <= self.rate_at(now):
                times.append(now)
        return times


#: name -> ``(rate, horizon)`` constructor of that arrival shape.
_ARRIVALS: Dict[str, Callable[[float, float], ArrivalProcess]] = {
    "burst": lambda rate, horizon: BurstyArrival(),
    "poisson": lambda rate, horizon: PoissonArrival(rate),
    "uniform": lambda rate, horizon: UniformArrival(0.0, horizon),
    "batched": lambda rate, horizon: BatchedArrival(
        num_batches=8, interval=horizon / 8.0
    ),
    "pareto": lambda rate, horizon: ParetoArrival(rate),
    "lognormal": lambda rate, horizon: LogNormalArrival(rate),
    "diurnal": lambda rate, horizon: DiurnalArrival(rate, period=horizon),
}

#: Names accepted by :func:`make_arrival`; referenced by
#: ``ExperimentConfig.arrival`` validation and the ``repro load`` CLI.
ARRIVAL_NAMES = tuple(_ARRIVALS)


def make_arrival(name: str, rate: float, horizon: float = 0.0) -> ArrivalProcess:
    """Build an arrival process from a short name at a mean ``rate``.

    ``rate`` is mean arrivals per virtual unit for every process (so the
    offered load is comparable across shapes).  ``horizon`` only matters
    for the shapes that need a window: ``uniform`` spreads arrivals over
    ``[0, horizon]``, ``batched`` spaces 8 bursts across it, and
    ``diurnal`` fits one full day/night cycle into it; when ``horizon`` is
    0 it defaults to the time a rate-``rate`` process needs for ~100
    arrivals.
    """
    if name not in ARRIVAL_NAMES:
        raise ValueError(f"unknown arrival process {name!r}; expected one of {ARRIVAL_NAMES}")
    if rate <= 0:
        raise ValueError("arrival rate must be positive")
    if horizon <= 0:
        horizon = 100.0 / rate
    return _ARRIVALS[name](rate, horizon)
