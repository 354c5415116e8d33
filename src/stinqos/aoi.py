"""Status-update queue simulation and peak age-of-information metrics.

FCFS single-server queue with infinite buffer fed by N status updates.
Arrival gaps and per-update service times come from pluggable models; the
departure recursion, sojourn times, and per-update peak AoI follow from
them. All times are in channel uses (cu); conversion to seconds happens
only at presentation (1 cu = 1e-6 s under the default link assumptions).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from ._startup import np
from .channel import _drawn_blocks
from .errors import DomainError, NumericError

# Updates a run may draw. The draw and the trace hold one block whatever the
# count, so the cap bounds time and output instead: at 1.7 us and 72 B per
# row (default models, one CPU of a 2-CPU VM), an aoi-sim run at the cap
# takes about half an hour and writes about 72 GB of CSV.
MAX_UPDATES = 10 ** 9

# Rows per block of drawn updates and of their trace: the CSV writer's chunk.
# A float64 block is 32 KiB, below glibc's 128 KiB mmap threshold, so block
# buffers are reused from the heap rather than mapped afresh.
_TRACE_ROWS = 1 << 12


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
    """Per-update service law: geometric ARQ cycles of n cu.

    Each attempt succeeds with probability 1 - epsilon and occupies n
    channel uses; at epsilon = 0 every service is the fixed n cu.
    """

    n: int
    epsilon: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"service blocklength must be >= 1, got {self.n}")
        if not 0.0 <= self.epsilon < 1.0:
            raise DomainError(f"epsilon must be in [0, 1), got {self.epsilon}")
        if self.epsilon < sys.float_info.min:  # subnormal: 1/epsilon overflows
            object.__setattr__(self, "epsilon", 0.0)

    @classmethod
    def arq(cls, n: int, epsilon: float) -> "ServiceModel":
        return cls(n=n, epsilon=epsilon)

    @property
    def mean_service(self) -> float:
        return self.n / (1.0 - self.epsilon)

    def sample_services(self, n_updates: int, rng: np.random.Generator) -> np.ndarray:
        """Service times of one rng.random(n_updates) draw of uniforms, by
        the inverse CDF.

        Uniforms are drawn even where every service is fixed, so the stream
        position after a draw does not depend on the model.
        """
        return float(self.n) * geometric_attempts(rng.random(n_updates), self.epsilon)


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


def departure_row(arrivals: np.ndarray, services: np.ndarray, prev: float):
    """FCFS departures D[u] = max(D[u-1], A[u]) + S[u] of one block of
    updates after the departure ``prev`` (-inf before the first update), as
    a new array, and the block's last departure (``prev`` if it is empty).
    The 1-D float64 columns, which _block_step has passed, are not written.

    Where no update waits, D[u] = A[u] + S[u], which is computed for the
    whole block at once. An update waits where D[u-1] >= A[u]; a tie takes
    the branch D[u-1] + S[u] too. As D[u-1] >= A[u-1] + S[u-1], it can wait
    only at a start, where A[u-1] + S[u-1] >= A[u], or right after a wait.
    So the max-then-add runs from each start until an update finds the
    server idle, and every other departure keeps the A + S of the same add.

    A start is read through memoryviews, and a stretch that goes on past it
    is walked by zip over memoryview slices, in Python floats.
    """
    dep = arrivals + services
    starts = (np.flatnonzero(arrivals[1:] <= dep[:-1]) + 1).tolist()
    if len(dep) and not arrivals[0] > prev:
        starts.insert(0, 0)
    a, s, d = memoryview(arrivals), memoryview(services), memoryview(dep)
    n, end = len(d), 0
    for u in starts:
        if u < end:  # inside the stretch of an earlier start
            continue
        p = (d[u - 1] if u else prev) + s[u]  # a start waits
        d[u] = p
        u += 1
        if u < n and not a[u] > p:  # so does the next update
            for x, y in zip(a[u:], s[u:]):
                if x > p:
                    break
                p += y
                d[u] = p
                u += 1
        end = u
    return dep, d[-1] if n else prev


def departure_times_maxplus(arrivals: np.ndarray, services: np.ndarray) -> np.ndarray:
    """Direct max-plus form max_{v<=u} (A[v] + S[v] + ... + S[u]), which the
    recursion D[u] = max(D[u-1], A[u]) + S[u] equals term for term, rounding
    included, as float addition is monotone.

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


def update_blocks(am: ArrivalModel, sm: ServiceModel, n_updates: int,
                  rng: np.random.Generator):
    """Arrival and service times of n_updates updates drawn from the models,
    as the _arrival_blocks of the gaps and the service uniforms. The count
    is checked here, before any draw; nothing else may draw from ``rng``
    until the blocks are taken.
    """
    _check_update_count(n_updates)
    return _arrival_blocks(am, n_updates, rng, sm.sample_services)


def _check_update_count(n_updates: int) -> None:
    """Refuse a run of fewer than one or more than MAX_UPDATES updates."""
    if n_updates < 1:
        raise DomainError(f"need at least one update, got {n_updates}")
    if n_updates > MAX_UPDATES:
        raise NumericError(
            f"{n_updates} updates exceed the cap of {MAX_UPDATES} per run")


def _arrival_blocks(am: ArrivalModel, n_updates: int, rng: np.random.Generator, *draws):
    """channel._drawn_blocks of 2^12 rows of the gaps of n_updates updates
    drawn from ``am``, then of ``draws``, with each block of gaps made
    arrival times in place by the sequential adds of one whole cumsum. A
    sum past the float range is left infinite, without a warning, for the
    queue's input checks to refuse."""
    carry = 0.0
    for arrivals, *rest in _drawn_blocks(rng, n_updates, _TRACE_ROWS,
                                         am.sample_gaps, *draws):
        arrivals[0] += carry
        with np.errstate(over="ignore"):
            np.cumsum(arrivals, out=arrivals)
        carry = arrivals[-1]
        yield arrivals, *rest


TRACE_FIELDS = ["u", "arrival", "service", "departure", "sojourn", "peak_aoi"]


def _block_gaps(arrivals: np.ndarray, prev: float) -> np.ndarray:
    """Gaps of a block of arrivals from the arrival ``prev`` before it, once
    the arrivals are checked: one column, finite, nonnegative and
    nondecreasing from ``prev``."""
    if arrivals.ndim != 1:
        raise ValueError("arrivals must be one column")
    # negated, so a NaN fails too; an infinite arrival makes a NaN gap
    with np.errstate(invalid="ignore"):
        gaps = np.diff(arrivals, prepend=prev)
        if arrivals.size and not (np.all(gaps >= 0) and arrivals[-1] < math.inf):
            raise DomainError("arrival times must be finite, nonnegative and nondecreasing")
    return gaps


def _block_step(arrivals, gaps, services: np.ndarray, prev: float):
    """Departures, sojourns (departure minus arrival) and peak AoI (gap plus
    sojourn) of a block of updates after the departure ``prev``, and its last
    departure, once the services are checked against _block_gaps' arrivals."""
    if services.shape != arrivals.shape:
        raise ValueError("arrivals and services must have equal length")
    if services.size and not (services.min() >= 0 and services.max() < math.inf):
        raise DomainError("service times must be finite and nonnegative")
    dep, last = departure_row(arrivals, services, prev)
    soj = dep - arrivals
    return dep, soj, gaps + soj, last


def trace_blocks(updates):
    """Yield the trace columns of FCFS updates in TRACE_FIELDS order, one
    block for each (arrivals, services) block of ``updates``, times in
    channel uses.

    Each block is one _block_step, where the virtual update 0 arrives at
    time 0. The previous departure, the previous arrival and the row number
    are carried across block edges, so every block equals the same rows of
    a whole-column pass bit for bit while only one block exists. Each
    block's input checks run before its rows, against the carried arrival.
    """
    dep_prev, arr_prev, start = -math.inf, 0.0, 0
    for arr, serv in updates:
        arr, serv = np.asarray(arr, dtype=float), np.asarray(serv, dtype=float)
        dep, soj, peak, dep_prev = _block_step(arr, _block_gaps(arr, arr_prev),
                                               serv, dep_prev)
        if not arr.size:
            continue
        arr_prev = arr[-1]
        yield [range(start + 1, start + len(arr) + 1), arr, serv, dep, soj, peak]
        start += len(arr)


def trace_violation_frequency(trace, a_th: float) -> float:
    """Fraction of the rows of the trace blocks ``trace`` (from
    trace_blocks) whose peak AoI strictly exceeds a_th (cu)."""
    if a_th < 0:
        raise DomainError(f"peak AoI threshold must be >= 0, got {a_th}")
    count = rows = 0
    for block in trace:
        count += np.count_nonzero(block[-1] > a_th)
        rows += len(block[-1])
    if not rows:
        raise DomainError("a trace with no rows has no violation frequency")
    return count / rows

