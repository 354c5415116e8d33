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
        return self.services_from_uniforms(rng.random(n_updates))

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
    return np.floor(np.log(u) / math.log(epsilon)) + 1.0


@dataclass
class UpdateTrace:
    """Per-update timing columns for N status updates, all in channel uses.

    Index i holds update u = i + 1; the virtual update 0 arrives at time 0,
    which is what makes the first peak-AoI entry well defined.
    """

    arrivals: np.ndarray
    services: np.ndarray
    departures: np.ndarray
    sojourns: np.ndarray
    peak_aoi: np.ndarray

    def __len__(self) -> int:
        return len(self.arrivals)


def cumulative_interarrival(trace: UpdateTrace, v: int, u: int) -> float:
    """Total gap arrivals[u] - arrivals[v] for updates 1 <= v <= u <= N."""
    _check_span(trace, v, u)
    return float(trace.arrivals[u - 1] - trace.arrivals[v - 1])


def cumulative_service(trace: UpdateTrace, v: int, u: int) -> float:
    """Total service time of updates v..u inclusive."""
    _check_span(trace, v, u)
    return float(np.sum(trace.services[v - 1 : u]))


def _check_span(trace: UpdateTrace, v: int, u: int) -> None:
    if not 1 <= v <= u <= len(trace):
        raise ValueError(f"need 1 <= v <= u <= N, got v={v}, u={u}, N={len(trace)}")


def departure_times(arrivals: np.ndarray, services: np.ndarray) -> np.ndarray:
    """FCFS departures D[u] = max(D[u-1], A[u]) + S[u].

    This O(N) recursion equals the max-plus form
    max_{v<=u} (A[v] + sum_{i=v..u} S[i]) term for term, including float
    rounding, because float addition is monotone; tests assert the equality
    against the direct O(N^2) evaluation.
    """
    arrivals = np.asarray(arrivals, dtype=float)
    services = np.asarray(services, dtype=float)
    dep = []
    prev = -math.inf
    # Python floats, since numpy scalar indexing costs more than the
    # recursion; the conditional is max(prev, a), without the call overhead
    for a, s in zip(arrivals.tolist(), services.tolist()):
        prev = (a if a > prev else prev) + s
        dep.append(prev)
    return np.array(dep, dtype=float)


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
    """Direct O(N^2) max-plus evaluation, the oracle for departure_times."""
    n = len(arrivals)
    dep = np.empty(n)
    for u in range(n):
        best = -math.inf
        for v in range(u + 1):
            t = arrivals[v]
            for i in range(v, u + 1):
                t += services[i]
            best = max(best, t)
        dep[u] = best
    return dep


def sojourn_times(arrivals: np.ndarray, departures: np.ndarray) -> np.ndarray:
    """Time in system: departure minus arrival per update."""
    return np.asarray(departures, dtype=float) - np.asarray(arrivals, dtype=float)


def peak_aoi(arrivals: np.ndarray, sojourns: np.ndarray) -> np.ndarray:
    """Peak AoI per update: preceding inter-arrival gap plus sojourn time.

    The gap of the first update is measured from the virtual arrival at 0.
    """
    arrivals = np.asarray(arrivals, dtype=float)
    gaps = np.diff(arrivals, prepend=0.0)
    return gaps + np.asarray(sojourns, dtype=float)


def _check_times(arrivals: np.ndarray, rows: np.ndarray) -> None:
    """Input checks of the queue: one arrival column against a (rows, N)
    service matrix."""
    if rows.shape[1:] != arrivals.shape:
        raise ValueError("arrivals and services must have equal length")
    if np.any(np.diff(arrivals) < 0) or (len(arrivals) and arrivals[0] < 0):
        raise ValueError("arrival times must be nonnegative and nondecreasing")
    if np.any(rows < 0):
        raise ValueError("service times must be nonnegative")


def build_trace(arrivals: np.ndarray, services: np.ndarray) -> UpdateTrace:
    """Fill every derived column from raw arrival and service times."""
    arrivals = np.asarray(arrivals, dtype=float)
    services = np.asarray(services, dtype=float)
    _check_times(arrivals, services[np.newaxis])
    dep = departure_times(arrivals, services)
    soj = sojourn_times(arrivals, dep)
    return UpdateTrace(
        arrivals=arrivals,
        services=services,
        departures=dep,
        sojourns=soj,
        peak_aoi=peak_aoi(arrivals, soj),
    )


def simulate_trace(
    am: ArrivalModel, sm: ServiceModel, n_updates: int, rng: np.random.Generator
) -> UpdateTrace:
    """Draw arrivals and services from the models and fill the trace."""
    if n_updates < 1:
        raise DomainError(f"need at least one update, got {n_updates}")
    gaps = am.sample_gaps(n_updates, rng)
    services = sm.sample_services(n_updates, rng)
    return build_trace(np.cumsum(gaps), services)


def empirical_violation(trace: UpdateTrace, a_th: float) -> float:
    """Fraction of updates whose peak AoI strictly exceeds a_th (cu)."""
    if a_th < 0:
        raise DomainError(f"peak AoI threshold must be >= 0, got {a_th}")
    return float(np.mean(trace.peak_aoi > a_th))


TRACE_FIELDS = ["u", "arrival", "service", "departure", "sojourn", "peak_aoi"]


def trace_columns(trace: UpdateTrace) -> list:
    """Columns for the CSV export in TRACE_FIELDS order, times in channel uses."""
    return [np.arange(1, len(trace) + 1), trace.arrivals, trace.services,
            trace.departures, trace.sojourns, trace.peak_aoi]
