"""Mellin-transform network calculus bounds for peak AoI and queueing delay.

Random times are mapped to the exponential domain (X = e^T), where the
Mellin transform M_X(theta) = E[X^(theta-1)] is the moment generating
function of T at theta - 1. Closed forms exist for the supported arrival
and service models; the peak-AoI kernel combines them into a Chernoff-type
violation bound, and the bit-domain service process gives the delay bound
with its stability condition. The delay layer sees the link only through
the bits per block and the average decoding error probability eps, which
the caller computes once from the fading and coding models.
"""
from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable

from .aoi import ArrivalModel, ServiceModel
from .errors import DomainError, StabilityError
from .fbc import CodingSpec
from .optimize import grid_then_golden
from .reports import QoSReport


# ---------------------------------------------------------------------------
# Transforms of inter-arrival and service times (channel-use domain)
# ---------------------------------------------------------------------------

def _log_mellin_gap(theta: float, am: ArrivalModel) -> float:
    """log E[e^{(theta-1) G}] for a single inter-arrival gap."""
    s = theta - 1.0
    if am.kind == "deterministic":
        return s * am.period
    if s >= am.rate:
        raise DomainError(
            f"inter-arrival transform diverges: theta-1={s:g} >= rate={am.rate:g}"
        )
    return -math.log1p(-s / am.rate)


def _log_mellin_service(theta: float, sm: ServiceModel) -> float:
    """log E[e^{(theta-1) S}] for a single update's service time."""
    s = theta - 1.0
    if sm.kind == "fixed" or sm.epsilon == 0.0:
        return s * sm.n
    if s * sm.n >= math.log(1.0 / sm.epsilon):
        raise DomainError(
            f"service transform diverges: (theta-1)*n={s * sm.n:g} >= "
            f"ln(1/epsilon)={math.log(1.0 / sm.epsilon):g}"
        )
    return (
        math.log1p(-sm.epsilon) + s * sm.n
        - math.log1p(-sm.epsilon * math.exp(s * sm.n))
    )


def _safe_exp(x: float) -> float:
    return math.inf if x > 709.0 else math.exp(x)


def _log_geometric_sum(log_r: float, terms: int) -> float:
    """log of sum_{j=0}^{terms-1} r^j, overflow-safe for any log ratio."""
    if terms < 1:
        raise ValueError("geometric sum needs at least one term")
    if abs(log_r) < 1e-14:  # exp(log_r) rounds to 1; sum is essentially flat
        return math.log(terms)
    if log_r > 0.0:
        return (terms - 1) * log_r + _log_geometric_sum(-log_r, terms)
    # (1 - r^terms) / (1 - r) with both factors as -expm1 for precision
    return math.log(-math.expm1(terms * log_r)) - math.log(-math.expm1(log_r))


def _bisect_edge(inside: Callable[[float], bool], lo: float, hi: float) -> float:
    """Inner edge of the set where ``inside`` holds, by 200 halvings of [lo, hi].

    lo must be inside; the last midpoint found inside is returned.
    """
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return lo


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
    log_lead = _log_mellin_gap(1.0 + theta, am)
    log_ms = _log_mellin_service(1.0 + theta, sm)
    log_ratio = log_ms + _log_mellin_gap(1.0 - theta, am)
    if u is not None:
        return log_lead + log_ms + _log_geometric_sum(log_ratio, u)
    if log_ratio >= 0.0:
        raise StabilityError(
            f"kernel sum diverges: term ratio {_safe_exp(log_ratio):g} >= 1",
            margin=_safe_exp(log_ratio),
        )
    return log_lead + log_ms - math.log(-math.expm1(log_ratio))


def paoi_theta_interval(am: ArrivalModel, sm: ServiceModel) -> tuple[float, float]:
    """Open interval (0, theta_ub) on which the steady-state kernel is finite.

    The cap is the smallest of the gap-transform pole, the service-transform
    pole, and the point where the lag-sum ratio returns to 1.
    """
    if sm.mean_service >= am.mean_gap:
        raise StabilityError(
            f"no feasible theta: mean service {sm.mean_service:g} >= "
            f"mean gap {am.mean_gap:g}"
        )
    caps = [math.inf]
    if am.kind == "poisson":
        caps.append(am.rate)
    if sm.kind == "arq" and sm.epsilon > 0.0:
        caps.append(math.log(1.0 / sm.epsilon) / sm.n)
    t_max = min(caps)

    def log_ratio(theta: float) -> float:
        return _log_mellin_service(1.0 + theta, sm) + _log_mellin_gap(1.0 - theta, am)

    if math.isinf(t_max):
        # fixed service + deterministic gaps may never reach a transform pole
        # (the lag ratio e^{theta (n - a)} stays below 1); expand a bounded
        # number of times and accept the last cap as the search interval
        t_max = 1.0 / am.mean_gap
        for _ in range(64):
            if log_ratio(t_max) >= 0.0:
                break
            t_max *= 2.0
    probe = t_max * (1.0 - 1e-9)
    if log_ratio(probe) < 0.0:
        return 0.0, t_max
    return 0.0, _bisect_edge(lambda theta: theta <= 0.0 or log_ratio(theta) < 0.0,
                             0.0, probe)


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
        stability_ok=True,
        params={"n": n, "u": "inf" if u is None else u},
    )


def optimize_paoi_bound(
    a_th: float,
    n: int,
    u: int | None,
    am: ArrivalModel,
    sm: ServiceModel,
    theta_tol: float = 1e-9,
) -> QoSReport:
    """Tightest peak-AoI bound over the transform-finite theta interval."""
    _, t_ub = paoi_theta_interval(am, sm)
    lo = t_ub * 1e-6
    hi = t_ub * (1.0 - 1e-6)

    def log_raw(theta: float) -> float:
        return -theta * a_th / n + log_paoi_kernel(theta, u, am, sm)

    theta_star, _ = grid_then_golden(log_raw, lo, hi, n_grid=96, tol=theta_tol * t_ub)
    report = paoi_bound(theta_star, a_th, n, u, am, sm)
    return replace(report, params={**report.params, "theta_interval": (0.0, t_ub)})


# ---------------------------------------------------------------------------
# Delay-bounded QoS: bit-domain service process, kernel, stability, bound
# ---------------------------------------------------------------------------

def constant_rate_arrival(alpha_bits: float) -> Callable[[float], float]:
    """Transform of a constant arrival of alpha bits per block."""
    if alpha_bits < 0:
        raise DomainError(f"arrival rate must be >= 0, got {alpha_bits}")

    def mellin(theta: float) -> float:
        return math.exp((theta - 1.0) * alpha_bits)

    mellin.description = f"constant_rate({alpha_bits}bits/block)"
    return mellin


def poisson_batch_arrival(rate_per_block: float, batch_bits: float) -> Callable[[float], float]:
    """Transform of Poisson-many batches of fixed size per block."""
    if rate_per_block <= 0 or batch_bits <= 0:
        raise DomainError("poisson batch arrival needs positive rate and batch size")

    def mellin(theta: float) -> float:
        return math.exp(rate_per_block * (math.exp((theta - 1.0) * batch_bits) - 1.0))

    mellin.description = f"poisson_batch({rate_per_block}/block,{batch_bits}bits)"
    return mellin


def mellin_service_process(theta: float, spec: CodingSpec, eps: float) -> float:
    """Transform of the per-block served bits: log2(M) with prob 1 - eps.

    eps is the average decoding error probability of the link.
    """
    if not 0.0 <= eps <= 1.0:
        raise DomainError(f"average error must be in [0, 1], got {eps}")
    return eps + (1.0 - eps) * math.exp((theta - 1.0) * spec.bits_per_block)


def _delay_transforms(
    theta: float, arrival_mellin: Callable[[float], float], spec: CodingSpec, eps: float
) -> tuple[float, float]:
    """(M_S(1-theta), M_A(1+theta) M_S(1-theta)): service transform and product."""
    ms = mellin_service_process(1.0 - theta, spec, eps)
    return ms, arrival_mellin(1.0 + theta) * ms


def stability_check(
    theta: float, arrival_mellin: Callable[[float], float], spec: CodingSpec, eps: float
) -> tuple[bool, float]:
    """Whether M_A(1+theta) M_S(1-theta) < 1, plus the product as margin."""
    _, product = _delay_transforms(theta, arrival_mellin, spec, eps)
    return product < 1.0, product


def delay_bound(
    d_th: float,
    arrival_mellin: Callable[[float], float],
    spec: CodingSpec,
    eps: float,
    theta_tol: float = 1e-9,
) -> QoSReport:
    """Delay violation bound inf over stable theta of the delay kernel.

    eps is the average decoding error probability of the link; the link
    enters the bound only through it and the bits per block of ``spec``.
    """

    def product(theta: float) -> float:
        try:
            return _delay_transforms(theta, arrival_mellin, spec, eps)[1]
        except OverflowError:
            return math.inf

    # the stable set is an interval (0, theta_hi): the product is log-convex
    # with value 1 at theta = 0
    probe = None
    for theta in [10.0 ** e for e in range(-8, 4)]:
        if product(theta) < 1.0:
            probe = theta
            break
    if probe is None:
        raise StabilityError(
            "no stable theta: transform product >= 1 everywhere",
            margin=min(product(10.0 ** e) for e in range(-8, 4)),
        )
    hi = probe
    while product(hi) < 1.0:
        hi *= 2.0
        if hi > 1e12:
            break
    theta_hi = _bisect_edge(lambda theta: product(theta) < 1.0, probe, hi)

    def log_kernel(theta: float) -> float:
        ms, p = _delay_transforms(theta, arrival_mellin, spec, eps)
        if p >= 1.0:
            return math.inf
        return d_th * math.log(ms) - math.log(1.0 - p)

    theta_star, log_k = grid_then_golden(
        log_kernel, theta_hi * 1e-9, theta_hi * (1.0 - 1e-9),
        n_grid=96, tol=theta_tol * theta_hi,
    )
    raw = math.exp(log_k)
    _, margin = _delay_transforms(theta_star, arrival_mellin, spec, eps)
    return QoSReport(
        kind="delay",
        theta=theta_star,
        threshold=d_th,
        kernel_value=raw,
        bound_value=min(1.0, raw),
        raw_bound=raw,
        stability_ok=True,
        params={
            "avg_error": eps,
            "bits_per_block": spec.bits_per_block,
            "arrival": getattr(arrival_mellin, "description", "custom"),
            "stability_margin": margin,
            "theta_hi": theta_hi,
        },
    )
