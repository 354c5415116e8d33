"""Status-update queue simulation and peak age-of-information metrics.

FCFS single-server queue with infinite buffer fed by N status updates.
Arrival gaps and per-update service times come from pluggable models; the
departure recursion, sojourn times, and per-update peak AoI follow from
them. All times are in channel uses (cu); conversion to seconds happens
only at presentation (1 cu = 1e-6 s under the default link assumptions).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import _row_blocks
from .errors import DomainError


@dataclass(frozen=True)
class ArrivalModel:
    """Inter-arrival law of status updates, in channel uses."""

    kind: str  # "deterministic" | "poisson"
    period: float = 0.0  # deterministic gap
    rate: float = 0.0  # poisson arrivals per cu

    def __post_init__(self):
        if self.kind == "deterministic":
            if not self.period > 0:
                raise DomainError(f"deterministic period must be > 0, got {self.period}")
        elif self.kind == "poisson":
            if not self.rate > 0:
                raise DomainError(f"poisson rate must be > 0, got {self.rate}")
        else:
            raise DomainError(f"unknown arrival model kind {self.kind!r}")

    @classmethod
    def deterministic(cls, period: float) -> "ArrivalModel":
        return cls(kind="deterministic", period=period)

    @classmethod
    def poisson(cls, rate: float) -> "ArrivalModel":
        return cls(kind="poisson", rate=rate)

    @property
    def mean_gap(self) -> float:
        return self.period if self.kind == "deterministic" else 1.0 / self.rate

    def sample_gaps(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "deterministic":
            return np.full(n, float(self.period))
        return rng.exponential(1.0 / self.rate, size=n)


@dataclass(frozen=True)
class ServiceModel:
    """Per-update service law: fixed n cu, or geometric ARQ cycles of n cu.

    Under "arq" each attempt succeeds with probability 1 - epsilon and every
    attempt occupies n channel uses.
    """

    kind: str  # "fixed" | "arq"
    n: int
    epsilon: float = 0.0

    def __post_init__(self):
        if self.kind not in ("fixed", "arq"):
            raise DomainError(f"unknown service model kind {self.kind!r}")
        if self.n < 1:
            raise DomainError(f"service blocklength must be >= 1, got {self.n}")
        if not 0.0 <= self.epsilon < 1.0:
            raise DomainError(f"epsilon must be in [0, 1), got {self.epsilon}")

    @classmethod
    def fixed(cls, n: int) -> "ServiceModel":
        return cls(kind="fixed", n=n)

    @classmethod
    def arq(cls, n: int, epsilon: float) -> "ServiceModel":
        return cls(kind="arq", n=n, epsilon=epsilon)

    @property
    def mean_service(self) -> float:
        if self.kind == "fixed":
            return float(self.n)
        return self.n / (1.0 - self.epsilon)

    def sample_services(self, n_updates: int, rng: np.random.Generator) -> np.ndarray:
        """Service times of one rng.random(n_updates) draw of uniforms.

        The uniforms are drawn one block of rows at a time, which gives the
        doubles of one whole draw, so only the service column spans the
        updates.
        """
        services = np.empty(n_updates)
        for rows in _row_blocks(n_updates):
            services[rows] = self.services_from_uniforms(
                rng.random(rows.stop - rows.start))
        return services

    def services_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        """Service times from uniform(0,1) draws via the inverse CDF.

        Shared uniforms let paired variants (different epsilon) produce
        elementwise-ordered services, which the system comparisons rely on.
        """
        u = np.asarray(u, dtype=float)
        if self.kind == "fixed" or self.epsilon == 0.0:
            return np.full(u.shape, float(self.n))
        return float(self.n) * geometric_attempts(u, self.epsilon)


def geometric_attempts(u, epsilon: float) -> np.ndarray:
    """Number of ARQ attempts: smallest k >= 1 with u > epsilon^k.

    Nondecreasing in epsilon for fixed u, so coupled comparisons across
    error rates are elementwise monotone.
    """
    u = np.asarray(u, dtype=float)
    if epsilon <= 0.0:
        return np.ones_like(u)
    if not epsilon < 1.0:
        raise DomainError(
            f"epsilon must be < 1 for ARQ to ever succeed, got {epsilon}"
        )
    # floor(log(u) / log(epsilon)) + 1, in place in one new array; u is
    # never written, since coupled callers share it across error rates
    att = np.log(u, out=np.empty_like(u))
    att /= math.log(epsilon)
    np.floor(att, out=att)
    att += 1.0
    return att


def _departures(arrivals: np.ndarray, services: np.ndarray, prev: float,
                out: np.ndarray) -> float:
    """D[u] = max(D[u-1], A[u]) + S[u] over one block of rows into ``out``,
    starting from the departure ``prev`` carried in from the rows before;
    returns the block's last departure."""
    # Python floats, since numpy scalar indexing costs more than the
    # recursion; the conditional is max(prev, a), without the call overhead
    block = []
    for a, s in zip(arrivals.tolist(), services.tolist()):
        prev = (a if a > prev else prev) + s
        block.append(prev)
    out[:] = block
    return prev


def departure_times(arrivals: np.ndarray, services: np.ndarray) -> np.ndarray:
    """FCFS departures D[u] = max(D[u-1], A[u]) + S[u].

    This O(N) recursion equals the max-plus form
    max_{v<=u} (A[v] + sum_{i=v..u} S[i]) term for term, including float
    rounding, because float addition is monotone; tests assert the equality
    against the direct O(N^2) evaluation. It runs one block of rows at a
    time, so no list spans the whole column.
    """
    arrivals = np.asarray(arrivals, dtype=float)
    services = np.asarray(services, dtype=float)
    if arrivals.ndim != 1 or services.shape != arrivals.shape:
        raise ValueError("arrivals and services must be columns of equal length")
    dep = np.empty(len(arrivals))
    prev = -math.inf
    for rows in _row_blocks(len(dep)):
        prev = _departures(arrivals[rows], services[rows], prev, dep[rows])
    return dep


def departure_rows(arrivals: np.ndarray, services: np.ndarray) -> np.ndarray:
    """departure_times for every row of a (rows, N) service matrix at once.

    All rows share one arrival column. The float64 matrix is overwritten
    with the departures and returned, so a caller can reuse one buffer.
    Each element gets the same max-then-add as departure_times, so every
    row equals departure_times(arrivals, row) bit for bit.
    """
    arrivals = np.asarray(arrivals, dtype=float)
    if not (isinstance(services, np.ndarray) and services.ndim == 2
            and services.dtype == np.float64):
        raise ValueError("services must be a 2-D float64 array")
    _check_times(arrivals, services)
    prev = np.full(len(services), -math.inf)
    buf = np.empty_like(prev)
    for a, col in zip(arrivals.tolist(), services.T):
        np.maximum(prev, a, out=buf)
        np.add(buf, col, out=col)
        prev = col
    return services


def departure_times_maxplus(arrivals: np.ndarray, services: np.ndarray) -> np.ndarray:
    """Direct max-plus form max_{v<=u} (A[v] + S[v] + ... + S[u]), the oracle
    for departure_times.

    The candidate sum of every v <= u is kept and extended by S[u] at step
    u, one addition each, so each sum is added left to right and the whole
    evaluation is O(N^2).
    """
    arrivals = np.asarray(arrivals, dtype=float)
    services = np.asarray(services, dtype=float)
    n = len(arrivals)
    sums = np.empty(n)
    dep = np.empty(n)
    for u in range(n):
        sums[:u] += services[u]
        sums[u] = arrivals[u] + services[u]
        dep[u] = sums[: u + 1].max()
    return dep


def _check_times(arrivals: np.ndarray, rows: np.ndarray) -> None:
    """Input checks of the queue: one arrival column against a (rows, N)
    service matrix, one block of columns at a time, so no temporary spans
    the columns."""
    if rows.shape[1:] != arrivals.shape:
        raise ValueError("arrivals and services must have equal length")
    prev = 0.0  # each block is checked against the arrival before it
    for cols in _row_blocks(len(arrivals)):
        block = arrivals[cols]
        # negated comparisons, so that a NaN fails them as well
        if not (block[0] >= prev and np.all(np.diff(block) >= 0)
                and block[-1] < math.inf):
            raise ValueError(
                "arrival times must be finite, nonnegative and nondecreasing")
        prev = block[-1]
    for cols in _row_blocks(len(arrivals)):
        block = rows[:, cols]
        if block.size and not (block.min() >= 0 and block.max() < math.inf):
            raise ValueError("service times must be finite and nonnegative")


def sample_updates(
    am: ArrivalModel, sm: ServiceModel, n_updates: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Arrival and service times of n_updates updates drawn from the models:
    every gap first, then every service."""
    if n_updates < 1:
        raise DomainError(f"need at least one update, got {n_updates}")
    gaps = am.sample_gaps(n_updates, rng)
    services = sm.sample_services(n_updates, rng)
    return np.cumsum(gaps, out=gaps), services


TRACE_FIELDS = ["u", "arrival", "service", "departure", "sojourn", "peak_aoi"]


def trace_columns(arrivals: np.ndarray, services: np.ndarray):
    """Yield the trace columns of FCFS updates with these arrival and
    service times in TRACE_FIELDS order, one block of rows at a time, times
    in channel uses.

    The sojourn is departure minus arrival, and the peak AoI is the gap from
    the previous arrival (the virtual update 0 arrives at time 0) plus the
    sojourn. The previous departure and the previous arrival are carried
    across block edges, so every block equals the same rows of a whole-column
    pass bit for bit while only one block of the derived columns exists. The
    input checks run before the first block.
    """
    arrivals = np.asarray(arrivals, dtype=float)
    services = np.asarray(services, dtype=float)
    _check_times(arrivals, services[np.newaxis])
    dep_prev, arr_prev = -math.inf, 0.0
    for rows in _row_blocks(len(arrivals)):
        arr, serv = arrivals[rows], services[rows]
        dep = np.empty(len(arr))
        dep_prev = _departures(arr, serv, dep_prev, dep)
        soj = dep - arr
        peak = np.diff(arr, prepend=arr_prev)
        peak += soj
        arr_prev = arr[-1]
        yield [range(rows.start + 1, rows.stop + 1), arr, serv, dep, soj, peak]


def violation_frequency(arrivals: np.ndarray, services: np.ndarray,
                        a_th: float) -> float:
    """Fraction of updates whose peak AoI strictly exceeds a_th (cu),
    counted one block of trace_columns at a time."""
    if a_th < 0:
        raise DomainError(f"peak AoI threshold must be >= 0, got {a_th}")
    count = sum(np.count_nonzero(block[-1] > a_th)
                for block in trace_columns(arrivals, services))
    return count / len(arrivals)
