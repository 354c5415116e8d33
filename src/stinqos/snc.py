"""Mellin-transform network calculus bounds for peak AoI and queueing delay.

Random times are mapped to the exponential domain (X = e^T), where the
Mellin transform M_X(1+s) = E[X^s] is the moment generating function of T
at s. Every transform here takes that exponent s (theta or -theta), and
each kernel is a lead term times the geometric series of one lag ratio,
summed by _log_geometric_sum. The peak-AoI kernel gives a Chernoff-type
violation bound, and the bit-domain service process gives the delay bound
with its stability condition. The delay layer sees the link only through
the bits per block and the average decoding error probability eps, which
the caller computes once from the fading and coding models.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable

from .errors import DomainError, NumericError, StabilityError
from .optimize import golden_section_min

if TYPE_CHECKING:  # the bounds read these models' fields only
    from .aoi import ArrivalModel, ServiceModel
    from .fbc import CodingSpec

# relative tolerance of the golden-section theta search, as a share of the
# stable interval
_THETA_TOL = 1e-9


@dataclass(frozen=True)
class QoSReport:
    """A peak-AoI ("aoi") or delay ("delay") violation bound with the
    parameters producing it: ``bound_value`` is clamped to [0, 1] and
    ``raw_bound`` is the unclamped Chernoff value. ``params`` is a read-only
    copy of the mapping given; ``dataclasses.replace`` gives a new report.
    """

    kind: str
    theta: float
    bound_value: float
    threshold: float
    kernel_value: float
    raw_bound: float
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))


# ---------------------------------------------------------------------------
# Transforms of inter-arrival and service times (channel-use domain)
# ---------------------------------------------------------------------------

def _log_mellin_gap(s: float, am: ArrivalModel) -> float:
    """log E[e^{s G}] = log M_I(1+s) for a single inter-arrival gap."""
    if am.kind == "deterministic":
        return s * am.period
    if s >= am.rate:
        raise DomainError(f"inter-arrival transform diverges: s={s:g} >= rate={am.rate:g}")
    return -math.log1p(-s / am.rate)


def _log_mellin_service(s: float, sm: ServiceModel) -> float:
    """log E[e^{s S}] = log M_S(1+s) for a single update's service time."""
    if sm.epsilon == 0.0:
        return s * sm.n
    if s * sm.n >= math.log(1.0 / sm.epsilon):
        raise DomainError(f"service transform diverges: s*n={s * sm.n:g} >= "
                          f"ln(1/epsilon)={math.log(1.0 / sm.epsilon):g}")
    return (math.log1p(-sm.epsilon) + s * sm.n
            - math.log1p(-sm.epsilon * math.exp(s * sm.n)))


def _log_lag_terms(theta: float, am: ArrivalModel,
                   sm: ServiceModel) -> tuple[float, float]:
    """log M_S(1+theta) and the log lag ratio log M_S(1+theta) + log
    M_I(1-theta), the factor each further lag adds to the peak-AoI kernel."""
    log_ms = _log_mellin_service(theta, sm)
    return log_ms, log_ms + _log_mellin_gap(-theta, am)


# the largest x whose exp is a finite float; exp and expm1 overflow past it
_LOG_MAX = math.log(sys.float_info.max)


def _safe_exp(x: float) -> float:
    return math.inf if x > _LOG_MAX else math.exp(x)


def _log_geometric_sum(log_r: float, terms: float = math.inf) -> float:
    """log of sum_{j=0}^{terms-1} r^j, overflow-safe for any log ratio; the
    whole series (terms = inf) is inf where r >= 1."""
    if log_r == 0.0:
        return math.log(terms)
    if log_r > 0.0:
        return (terms - 1) * log_r + _log_geometric_sum(-log_r, terms)
    # (1 - r^terms) / (1 - r) with both factors as -expm1 for precision
    return math.log(-math.expm1(terms * log_r)) - math.log(-math.expm1(log_r))


def _stable_edge(log_ratio: Callable[[float], float], t_max: float,
                 scale: float) -> float:
    """Upper edge of the stable set (0, edge) where ``log_ratio`` < 0.

    log_ratio is convex and 0 at theta = 0, so the set is an interval. t_max
    caps it: a transform pole or a point known to be unstable. With no cap
    (inf) the search doubles from ``scale`` to the first unstable point and
    takes it as cap; after 64 doublings the set has no edge, as a D/D/1
    queue's, and the edge is inf. A cap with a stable inner neighbour is the
    edge; else one bisection of (0, cap) runs until no float lies between
    its ends and returns the last stable float. NumericError means nothing
    is stable down to the least normal float.
    """
    if math.isinf(t_max):
        t_max = scale
        for _ in range(64):
            if log_ratio(t_max) >= 0.0:
                break
            t_max *= 2.0
        else:
            return math.inf
    probe = t_max * (1.0 - 1e-9)
    if log_ratio(probe) < 0.0:
        return t_max
    lo, hi = 0.0, probe
    while math.nextafter(lo, hi) < hi and hi >= sys.float_info.min:
        mid = 0.5 * (lo + hi)
        if log_ratio(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    if lo == 0.0:
        raise NumericError("no stable theta in double precision: load within "
                           "rounding of the service rate")
    return lo


def _theta_search(objective: Callable[[float], float], edge: float,
                  scale: float) -> tuple[float, float, float]:
    """Minimize a convex objective over the stable set (0, edge); returns
    (theta, value, bracket end). With no edge (inf) the bracket ends one
    doubling past the objective's last decrease from ``scale``, at most 64."""
    if math.isinf(edge):
        edge, prev = scale, objective(scale)
        for _ in range(64):
            edge *= 2.0
            cur = objective(edge)
            if cur >= prev:
                break
            prev = cur
    theta, value = golden_section_min(objective, edge * 1e-9, edge * (1.0 - 1e-9),
                                      tol=_THETA_TOL * edge)
    return theta, value, edge


# ---------------------------------------------------------------------------
# Peak-AoI kernel and bound
# ---------------------------------------------------------------------------

def log_paoi_kernel(
    theta: float, u: int | None, am: ArrivalModel, sm: ServiceModel
) -> float:
    """log of the kernel K(theta, u); overflow-safe building block.

    The sum runs over v = 1..u with u - v + 1 service terms and u - v gap
    terms; under i.i.d. gaps and services each lag contributes
    M_S(1+theta)^(lag+1) * M_I(1-theta)^lag. u = None evaluates the
    steady-state kernel, the full geometric series 1 / (1 - ratio); a
    nondecaying lag ratio means the sum diverges.
    """
    if theta <= 0:
        raise DomainError(f"theta must be > 0, got {theta}")
    if u is not None and u < 1:
        raise DomainError(f"update index must be >= 1, got {u}")
    log_ms, log_ratio = _log_lag_terms(theta, am, sm)
    if u is None and log_ratio >= 0.0:
        raise StabilityError(
            f"kernel sum diverges: term ratio {_safe_exp(log_ratio):g} >= 1",
            margin=_safe_exp(log_ratio),
        )
    return (_log_mellin_gap(theta, am) + log_ms
            + _log_geometric_sum(log_ratio, math.inf if u is None else u))


def paoi_theta_interval(am: ArrivalModel, sm: ServiceModel) -> tuple[float, float]:
    """Open interval (0, theta_ub) on which the steady-state kernel is finite.

    The cap is the smallest of the gap-transform pole, the service-transform
    pole, and the point where the lag-sum ratio returns to 1; a D/D/1 queue
    has none of them, and its interval is (0, inf).
    """
    if sm.mean_service >= am.mean_gap:
        raise StabilityError(
            f"no feasible theta: mean service {sm.mean_service:g} >= "
            f"mean gap {am.mean_gap:g}"
        )
    caps = [math.inf]
    if am.kind == "poisson":
        caps.append(am.rate)
    if sm.epsilon > 0.0:
        caps.append(math.log(1.0 / sm.epsilon) / sm.n)
    return 0.0, _stable_edge(lambda theta: _log_lag_terms(theta, am, sm)[1],
                             min(caps), 1.0 / am.mean_gap)


def paoi_bound(
    theta: float,
    a_th: float,
    n: int,
    u: int | None,
    am: ArrivalModel,
    sm: ServiceModel,
) -> QoSReport:
    """Peak-AoI violation bound exp(-theta A_th / n) * K(theta, u), clamped.

    a_th is the peak-AoI threshold in channel uses; n is the FBC blocklength
    entering the bound's exponent scaling.
    """
    if a_th < 0:
        raise DomainError(f"a_th must be >= 0, got {a_th}")
    if n < 1:
        raise DomainError(f"blocklength must be >= 1, got {n}")
    log_kernel = log_paoi_kernel(theta, u, am, sm)
    kernel = _safe_exp(log_kernel)
    raw = _safe_exp(-theta * a_th / n + log_kernel)
    return QoSReport(
        kind="aoi",
        theta=theta,
        threshold=a_th,
        kernel_value=kernel,
        bound_value=min(1.0, raw),
        raw_bound=raw,
        params={"n": n, "u": "inf" if u is None else u},
    )


def optimize_paoi_bound(
    a_th: float,
    n: int,
    u: int | None,
    am: ArrivalModel,
    sm: ServiceModel,
) -> QoSReport:
    """Tightest peak-AoI bound over the transform-finite theta interval."""
    _, t_ub = paoi_theta_interval(am, sm)

    def log_raw(theta: float) -> float:
        try:
            return -theta * a_th / n + log_paoi_kernel(theta, u, am, sm)
        except StabilityError:  # the lag ratio rounds to >= 1 near the critical load
            return math.inf

    theta_star, _, t_ub = _theta_search(log_raw, t_ub, 1.0 / am.mean_gap)
    report = paoi_bound(theta_star, a_th, n, u, am, sm)
    return replace(report, params={**report.params, "theta_interval": (0.0, t_ub)})


# ---------------------------------------------------------------------------
# Delay-bounded QoS: bit-domain arrivals and service, kernel, stability, bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BitArrival:
    """Bits arriving per block: a constant alpha, or Poisson-many fixed batches."""

    kind: str  # "constant_rate" | "poisson_batch"
    alpha_bits: float = 0.0  # constant_rate bits per block
    rate: float = 0.0  # poisson_batch batches per block
    batch_bits: float = 0.0  # poisson_batch bits per batch

    def __post_init__(self):
        if self.kind == "constant_rate":
            if self.alpha_bits < 0:
                raise DomainError(f"arrival rate must be >= 0, got {self.alpha_bits}")
        elif self.kind != "poisson_batch":
            raise DomainError(f"unknown bit arrival kind {self.kind!r}")
        elif self.rate <= 0 or self.batch_bits <= 0:
            raise DomainError("poisson batch arrival needs positive rate and batch size")

    @classmethod
    def constant_rate(cls, alpha_bits: float) -> "BitArrival":
        return cls(kind="constant_rate", alpha_bits=alpha_bits)

    @classmethod
    def poisson_batch(cls, rate: float, batch_bits: float) -> "BitArrival":
        return cls(kind="poisson_batch", rate=rate, batch_bits=batch_bits)

    @property
    def mean_bits(self) -> float:
        return self.alpha_bits if self.kind == "constant_rate" else self.rate * self.batch_bits

    def log_mellin(self, theta: float) -> float:
        """log M_A(1+theta) = log E[e^{theta A}]; inf where expm1 overflows."""
        if self.kind == "constant_rate":
            return theta * self.alpha_bits
        x = theta * self.batch_bits
        return math.inf if x > _LOG_MAX else self.rate * math.expm1(x)


def _log_mellin_served(theta: float, bits: float, eps: float) -> float:
    """log M_S(1-theta) = log(eps + (1-eps) e^{-theta bits}) of the bits served
    per block, at average decoding error eps; exactly 0 at theta = 0 and at
    eps = 1. The log1p form near 0 would cancel once the sum is below 1/2."""
    if not 0.0 <= eps <= 1.0:
        raise DomainError(f"average error must be in [0, 1], got {eps}")
    if eps == 0.0:
        return -theta * bits
    x = (1.0 - eps) * math.expm1(-theta * bits)
    if x > -0.5:
        return math.log1p(x)
    return math.log(eps + (1.0 - eps) * math.exp(-theta * bits))


def _log_delay_terms(theta: float, arrival: BitArrival, bits: float,
                     eps: float) -> tuple[float, float, float]:
    """log M_A(1+theta), log M_S(1-theta) and their sum, the log of the
    product that is below 1 exactly at a stable theta."""
    log_ma = arrival.log_mellin(theta)
    log_ms = _log_mellin_served(theta, bits, eps)
    return log_ma, log_ms, log_ma + log_ms


def stability_check(
    theta: float, arrival: BitArrival, spec: CodingSpec, eps: float
) -> tuple[bool, float]:
    """Whether M_A(1+theta) M_S(1-theta) < 1, plus the product as margin."""
    log_p = _log_delay_terms(theta, arrival, spec.bits_per_block, eps)[2]
    return log_p < 0.0, _safe_exp(log_p)


def delay_bound(d_th: float, arrival: BitArrival, spec: CodingSpec, eps: float) -> QoSReport:
    """Delay violation bound: inf over stable theta of the delay kernel
    M_S(1-theta)^d_th / (1 - M_A(1+theta) M_S(1-theta)).

    eps is the average decoding error probability of the link; the link
    enters the bound only through it and the bits per block of ``spec``.
    The log product is convex and 0 at theta = 0, so a stable theta exists
    exactly when the mean arrival is below the mean service (1 - eps) bits.
    """
    if d_th < 0:
        raise DomainError(f"d_th must be >= 0, got {d_th}")
    bits, mean = spec.bits_per_block, arrival.mean_bits
    if mean >= (1.0 - eps) * bits:
        raise StabilityError(
            f"no stable theta: mean arrival {mean:g} bits >= mean service "
            f"{(1.0 - eps) * bits:g} bits per block",
            margin=stability_check(1.0 / bits, arrival, spec, eps)[1],
        )
    # log M_A(1+theta) >= theta E[A] and log M_S(1-theta) > log eps
    t_max = -math.log(eps) / mean if eps > 0.0 and mean > 0.0 else math.inf
    theta_hi = _stable_edge(lambda theta: _log_delay_terms(theta, arrival, bits, eps)[2],
                            t_max, 1.0 / bits)
    # Rounding sets a finite edge when the convex log product is not resolved
    # on the stable set: at its midpoint it must lie below the rounding of
    # its two terms, 16 ulps of their sizes.
    if math.isfinite(theta_hi):
        log_ma, log_ms, log_p = _log_delay_terms(0.5 * theta_hi, arrival, bits, eps)
        if not log_p < -16.0 * sys.float_info.epsilon * (abs(log_ma) + abs(log_ms)):
            raise NumericError("no resolved stable theta in double precision: load "
                               "within rounding of the service rate")

    def log_kernel(theta: float) -> float:
        _, log_ms, log_p = _log_delay_terms(theta, arrival, bits, eps)
        return d_th * log_ms + _log_geometric_sum(log_p)

    # convex, and +inf at both ends of a finite (0, theta_hi)
    theta_star, log_k, theta_hi = _theta_search(log_kernel, theta_hi, 1.0 / bits)
    raw = _safe_exp(log_k)
    return QoSReport(
        kind="delay",
        theta=theta_star,
        threshold=d_th,
        kernel_value=raw,
        bound_value=min(1.0, raw),
        raw_bound=raw,
        params={
            "avg_error": eps,
            "bits_per_block": bits,
            "arrival": arrival,
            "stability_margin": stability_check(theta_star, arrival, spec, eps)[1],
            "theta_hi": theta_hi,
        },
    )
