"""Finite-blocklength error probability and error-rate QoS exponents.

Normal-approximation decoding error for short packets, its average over the
fading/interference law (Monte Carlo, or fading panels times a 32-node Gauss
rule of the interference at any K), the Gallager-style exponent of the
averaged channel, and the closed-form exponent approximation in the link SNRs.

Rates are natural-log units (nats per channel use) throughout; bit-domain
quantities are converted at module boundaries.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import channel
from ._startup import _special, np
from .channel import Scenario, srician_quad_nodes
from .errors import DomainError, NumericError
from .optimize import golden_section_min

# Nodes of the Gauss rule for the aggregate interference, at every K.
_INTERFERENCE_NODES = 32
_QUAD_PANELS = (96, 144, 216, 324)
# width of the final rho bracket of the exponent search
_RHO_TOL = 1e-6

# Monte Carlo SINR draws a run may take, refused before any draw. The error
# path holds one block of draws whatever the count, so the cap bounds its
# time: about 0.15 s per 10^6 draws at K = 5 on one CPU of a 2-CPU VM, some
# 15 s at the cap.
MAX_SAMPLE_BUDGET = 10 ** 8
# The exponent path holds its whole SINR column and its Gallager terms, 32 B
# per draw by tracemalloc, so its own cap bounds its memory: 341 MB of peak
# RSS and 3.2 s at the cap on a 2-CPU VM, against about 3.2 GB at 10^8.
_MAX_EXPONENT_DRAWS = 10 ** 7


@dataclass(frozen=True)
class CodingSpec:
    """Finite-blocklength code: n channel uses carrying one of M messages.

    ``rate`` defaults to ln(M)/n nats per channel use and may be overridden
    for rate sweeps that keep M fixed.
    """

    blocklength: int
    code_size: int
    rate: float | None = None

    def __post_init__(self):
        if self.blocklength < 1:
            raise DomainError(f"blocklength must be >= 1, got {self.blocklength}")
        if self.code_size < 2:
            raise DomainError(f"code_size must be >= 2, got {self.code_size}")
        if self.rate is None:
            object.__setattr__(
                self, "rate", math.log(self.code_size) / self.blocklength
            )
        if not self.rate > 0:
            raise DomainError(f"rate must be > 0, got {self.rate}")

    @property
    def bits_per_block(self) -> float:
        return math.log2(self.code_size)


@dataclass(frozen=True)
class ErrorModel:
    """How fading expectations are evaluated."""

    method: str = "quadrature"  # "quadrature" | "monte_carlo"
    sample_budget: int = 100_000
    quad_tolerance: float = 1e-6

    def __post_init__(self):
        if self.method not in ("quadrature", "monte_carlo"):
            raise DomainError(f"unknown error model method {self.method!r}")
        if self.method == "monte_carlo" and self.sample_budget < 1_000:
            raise DomainError(
                f"sample_budget must be >= 1000, got {self.sample_budget}"
            )
        if not 0 < self.quad_tolerance <= 1e-3:
            raise DomainError(
                f"quad_tolerance must be in (0, 1e-3], got {self.quad_tolerance}"
            )


@dataclass(frozen=True)
class ErrorResult:
    """Average error probability with its accuracy estimate."""

    value: float
    std_error: float | None  # Monte Carlo mode
    achieved_tol: float | None  # quadrature mode
    method: str


# ---------------------------------------------------------------------------
# Normal approximation pieces
# ---------------------------------------------------------------------------

def q_function(x):
    """Gaussian tail probability Q(x) = erfc(x / sqrt(2)) / 2."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * _special().erfc(x / math.sqrt(2.0))
    return float(out) if out.ndim == 0 else out


def conditional_error(gamma, spec: CodingSpec):
    """Decoding error probability at a fixed SINR.

    Q((C - R) / sqrt(V / n)); the zero-dispersion corner (gamma = 0)
    degenerates to an error/no-error indicator on rate vs capacity.
    """
    g = np.asarray(gamma, dtype=float)
    if np.any(g < 0):
        raise DomainError("SINR must be >= 0")
    c = np.log1p(g)
    v = 1.0 - (1.0 + g) ** -2
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = (c - spec.rate) / np.sqrt(v / spec.blocklength)
    pos = v > 0
    if not pos.all():
        arg = np.where(
            pos,
            arg,
            np.where(c > spec.rate, np.inf, np.where(c < spec.rate, -np.inf, 0.0)),
        )
    return q_function(arg)


# ---------------------------------------------------------------------------
# SINR law: Monte Carlo draws or deterministic quadrature nodes
# ---------------------------------------------------------------------------

def _sinr_blocks(s: Scenario, n_draws: int, stream_index: int = 0):
    """Monte Carlo SINR draws with interferer positions frozen per scenario:
    channel._gain_blocks with the Rayleigh interferer gains, summed per
    block. A count above MAX_SAMPLE_BUDGET is refused before any draw."""
    if n_draws > MAX_SAMPLE_BUDGET:
        raise NumericError(
            f"{n_draws} Monte Carlo draws exceed the cap of {MAX_SAMPLE_BUDGET}")
    coef = s.interferer_coefficients

    def interference(size, rng):
        return rng.exponential(1.0, size=(size, coef.size)) @ coef

    blocks = channel._gain_blocks(s.fading, s.rng(channel.STREAM_CHANNEL, stream_index),
                                  n_draws, interference)
    return itertools.starmap(lambda gain, i_a: channel.sinr(s, gain, i_a), blocks)


def sinr_samples(s: Scenario, n_draws: int, stream_index: int = 0) -> np.ndarray:
    """The blocks of _sinr_blocks joined into one array; the count is
    refused before the array exists."""
    return channel._joined(_sinr_blocks(s, n_draws, stream_index), n_draws)


def _gauss_rule(x: np.ndarray, w: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-node Gauss rule of the discrete measure sum_i w_i delta(x_i).

    Stieltjes recurrence on nodes scaled to [0, 1], then Golub-Welsch on the
    Jacobi matrix, of which eigh reads only the lower triangle.
    """
    t = x / x.max()
    a, sqrt_b = np.zeros(n), np.zeros(n)
    q_prev, q = np.zeros_like(t), np.full_like(t, 1.0 / math.sqrt(w.sum()))
    for j in range(n):
        a[j] = np.sum(w * t * q * q)
        r = (t - a[j]) * q - sqrt_b[j - 1] * q_prev  # q_prev = 0 at j = 0
        sqrt_b[j] = math.sqrt(np.sum(w * r * r))
        q_prev, q = q, r / sqrt_b[j]
    nodes, vecs = np.linalg.eigh(np.diag(a) + np.diag(sqrt_b[:-1], -1))
    return x.max() * nodes, w.sum() * vecs[0] ** 2


def _interference_nodes(coefficients: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule of the aggregate interference sum_j c_j E_j, E_j ~ Exp(1),
    for the interferer coefficients c_j.

    Interferers are added one at a time: the rule so far times a
    Gauss-Laguerre rule in the new gain, reduced back to the same node count.
    """
    from numpy.polynomial.laguerre import laggauss

    x, w = laggauss(_INTERFERENCE_NODES)
    i_a, iw = np.zeros(1), np.ones(1)
    for c in coefficients:
        i_a = (i_a[:, None] + c * x[None, :]).ravel()
        iw = (iw[:, None] * w[None, :]).ravel()
        if i_a.size > _INTERFERENCE_NODES:
            i_a, iw = _gauss_rule(i_a, iw, _INTERFERENCE_NODES)
    return i_a, iw


def _sinr_rules(s: Scenario, panel_counts):
    """Yield the deterministic (SINR node, weight) pairs of the scenario's
    law on n fading panels, for each n of ``panel_counts`` in turn, with the
    interference rule built once for all of them."""
    i_a, iw = _interference_nodes(s.interferer_coefficients)
    for n_panels in panel_counts:
        x, w = srician_quad_nodes(s.fading, n_panels)
        yield (channel.sinr(s, x[:, None], i_a[None, :]).ravel(),
               (w[:, None] * iw[None, :]).ravel())


def average_error(s: Scenario, spec: CodingSpec, em: ErrorModel) -> ErrorResult:
    """Decoding error probability averaged over fading and interference.

    Monte Carlo mode reports a standard error; quadrature mode refines the
    panel count until successive values differ by less than quad_tolerance.
    """
    if em.method == "monte_carlo":
        # a sum of block sums, and squared deviations merged across blocks by
        # Chan et al.'s update: np.mean and np.std(ddof=1) for one block
        n, total, m2, seen = em.sample_budget, 0.0, 0.0, 0
        for gam in _sinr_blocks(s, n):
            errs = conditional_error(gam, spec)
            block_sum, size = np.sum(errs), errs.size
            if seen:
                m2 += ((block_sum / size - total / seen) ** 2
                       * (seen * size / (seen + size)))
            m2 += np.sum(np.square(errs - block_sum / size))
            total += block_sum
            seen += size
            del gam, errs  # before the next block is drawn
        return ErrorResult(value=float(total / n),
                           std_error=math.sqrt(m2 / (n - 1)) / math.sqrt(n),
                           achieved_tol=None, method="monte_carlo")
    prev = math.inf
    for g, w in _sinr_rules(s, _QUAD_PANELS):
        value = float(np.sum(w * conditional_error(g, spec)))
        achieved, prev = abs(value - prev), value
        if achieved <= em.quad_tolerance:
            return ErrorResult(value=min(max(value, 0.0), 1.0), std_error=None,
                               achieved_tol=achieved, method="quadrature")
    raise NumericError(
        f"SINR quadrature did not reach tolerance {em.quad_tolerance:g}",
        achieved=achieved,
    )


# ---------------------------------------------------------------------------
# Gallager exponent of the averaged channel
# ---------------------------------------------------------------------------

def gallager_e0_samples(rho: float, gammas, n: int, weights=None) -> float:
    """E0(rho) = -(1/n) ln E[(1 + gamma/(1+rho))^(-n rho)] for a discrete law.

    ``weights`` of None means equally weighted samples; a weight of 0 drops
    its term. The inner expectation is taken of each term relative to its
    largest term, so large n does not underflow.
    """
    if not 0.0 <= rho <= 1.0:
        raise DomainError(f"rho must be in [0, 1], got {rho}")
    if rho == 0.0:
        return 0.0
    t = -n * rho * np.log1p(np.asarray(gammas, dtype=float) / (1.0 + rho))
    if weights is not None:
        w = np.asarray(weights, dtype=float)
        t[w == 0] = -np.inf
    t_max = t.max()
    e = np.exp(t - t_max)
    mean = e.mean() if weights is None else np.dot(w, e) / w.sum()
    return -float(t_max + np.log(mean)) / n


def error_exponent_samples(
    gammas, rate: float, n: int, weights=None
) -> tuple[float, float]:
    """sup over rho of E0(rho) - rho * rate for a discrete SINR law.

    Returns (theta, rho_star). E0 is concave in rho, so golden-section search
    on [0, 1] locates the supremum. The search keeps its ends: the edge
    rho = 1 is exact, and where no rho > 0 gains, rho = 0 gives theta = 0.
    """
    def neg_objective(rho: float) -> float:
        return -(gallager_e0_samples(rho, gammas, n, weights) - rho * rate)

    rho_star, neg_best = golden_section_min(neg_objective, 0.0, 1.0, tol=_RHO_TOL)
    return -neg_best, rho_star


def error_exponent(s: Scenario, spec: CodingSpec, em: ErrorModel) -> tuple[float, float]:
    """Error-rate QoS exponent sup_rho {E0(rho) - rho R*} for the scenario,
    as (theta, rho_star). Quadrature searches each rule of average_error's
    panel ladder until E0 at rho_star on the next rule is within
    quad_tolerance of theta, and refuses as average_error does after the last."""
    if em.method == "monte_carlo":
        if em.sample_budget > _MAX_EXPONENT_DRAWS:
            raise NumericError(f"{em.sample_budget} Monte Carlo draws exceed the cap "
                               f"of {_MAX_EXPONENT_DRAWS} on an exponent")
        return error_exponent_samples(sinr_samples(s, em.sample_budget), spec.rate,
                                      spec.blocklength)
    rules = _sinr_rules(s, _QUAD_PANELS)
    gam, wts = next(rules)
    for gam2, wts2 in rules:
        theta, rho_star = error_exponent_samples(gam, spec.rate, spec.blocklength, wts)
        achieved = abs(gallager_e0_samples(rho_star, gam2, spec.blocklength, wts2)
                       - rho_star * spec.rate - theta)
        if achieved <= em.quad_tolerance:
            return theta, rho_star
        gam, wts = gam2, wts2
    raise NumericError(
        f"SINR quadrature did not reach tolerance {em.quad_tolerance:g}",
        achieved=achieved,
    )


def error_exponent_closed_form(s: Scenario, spec: CodingSpec) -> float:
    """Closed-form exponent approximation from the link SNR budget.

    Uses the noise-normalized transmit SNRs of the satellite and of the K
    interferers plus the receive antenna count; independent of blocklength.
    Clamped at 0 when the rate meets or exceeds the effective log SNR ratio.
    """
    p_s = s.satellite.tx_snr
    p_t_sum = s.interferers.count * s.interferers.tx_snr
    n_r = s.rx_antennas
    b = 2.0 * n_r * p_t_sum + 1.0
    a = 2.0 * p_s * n_r + b
    denom = 4.0 - 2.0 * b / a
    excess = math.log(a / b) - spec.rate
    return excess ** 2 / denom if excess > 0.0 else 0.0
