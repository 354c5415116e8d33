"""Independent reference implementations of the library's paths.

The mpmath oracles form their quantity from the defining formula at a
working precision far above float64 and return it as a float. The float64
references are the whole-array channel sampler, the tabulated CDF of the
channel gain and the slotted bit-queue simulation, which the tests compare
the library's draws, density and delay bound against.
"""
import math

import mpmath
import numpy as np

from stinqos import channel
from stinqos.channel import ShadowedRicianParams
from stinqos.errors import DomainError


def shadowed_rician_log_alpha(b: float, m: float, omega: float, dps: int = 50) -> float:
    """log alpha = m log(2bm / (2bm + omega)) - log(2b), the log of the
    shadowed-Rician density at 0 (Abdi et al., IEEE TWC 2003)."""
    with mpmath.workdps(dps):
        b, m, omega = mpmath.mpf(b), mpmath.mpf(m), mpmath.mpf(omega)
        return float(m * mpmath.log(2 * b * m / (2 * b * m + omega)) - mpmath.log(2 * b))


def _srician_density(b: float, m: float, omega: float):
    """x -> alpha e^{-beta x} 1F1(m; 1; delta x) as an mpf at the working
    precision, with alpha = (2bm / (2bm + omega))^m / (2b), beta = 1 / (2b)
    and delta = omega / (2b (2bm + omega)); call it inside the workdps that
    it was made in."""
    b, m, omega = (mpmath.mpf(v) for v in (b, m, omega))
    alpha = (2 * b * m / (2 * b * m + omega)) ** m / (2 * b)
    beta = 1 / (2 * b)
    delta = omega / (2 * b * (2 * b * m + omega))
    return lambda x: alpha * mpmath.exp(-beta * x) * mpmath.hyp1f1(m, 1, delta * x)


def shadowed_rician_pdf(x: float, b: float, m: float, omega: float,
                        dps: int = 30) -> float:
    """The shadowed-Rician density of the power gain |h|^2 at x."""
    with mpmath.workdps(dps):
        return float(_srician_density(b, m, omega)(mpmath.mpf(x)))


def gallager_log_mean(rho: float, gammas, n: int, weights=None, dps: int = 40) -> float:
    """log E[(1 + gamma/(1+rho))^(-n rho)], the -n E0(rho) of a discrete
    law: each float64 node gamma_i with its weight w_i (1 for all when
    ``weights`` is None), summed at ``dps`` digits. A weight of 0 drops its
    term."""
    weights = np.ones(len(gammas)) if weights is None else weights
    with mpmath.workdps(dps):
        rho = mpmath.mpf(rho)
        terms = [mpmath.mpf(w) * (1 + mpmath.mpf(g) / (1 + rho)) ** (-n * rho)
                 for g, w in zip(gammas, weights) if w != 0]
        return float(mpmath.log(mpmath.fsum(terms) / mpmath.fsum(weights)))


def _fading_integral(s, integrand):
    """E[integrand(gamma)] over the SINR law of a scenario without
    interferers, gamma = c |h|^2, at the working precision: mpmath.quad of
    the density times the integrand, with breakpoints at 0, the decades
    1e-14..1e2 and 4 times the support cut of the library's fading rules."""
    p = s.fading
    end = 4 * channel._support_cut(p)
    density, c = _srician_density(p.b, p.m, p.omega), mpmath.mpf(s.satellite_coefficient)
    points = [0] + [mpmath.mpf(10) ** e for e in range(-14, 3) if 10.0 ** e < end]
    return mpmath.quad(lambda x: density(x) * integrand(c * x), points + [end])


def average_error_k0(s, n: int, rate: float, dps: int = 30) -> float:
    """E[Q((C - R) / sqrt(V / n))] with C = ln(1 + gamma) and
    V = 1 - (1 + gamma)^-2 = gamma (2 + gamma) / (1 + gamma)^2, over the
    SINR law of a scenario without interferers."""
    def q(g):
        arg = (mpmath.log1p(g) - rate) / mpmath.sqrt(g * (2 + g) / n) * (1 + g)
        return mpmath.erfc(arg / mpmath.sqrt(2)) / 2

    with mpmath.workdps(dps):
        return float(_fading_integral(s, q))


def gallager_e0_k0(rho: float, s, n: int, dps: int = 30) -> float:
    """E0(rho) = -(1/n) ln E[(1 + gamma/(1+rho))^(-n rho)] over the SINR law
    of a scenario without interferers."""
    with mpmath.workdps(dps):
        rho = mpmath.mpf(rho)
        mean = _fading_integral(s, lambda g: (1 + g / (1 + rho)) ** (-n * rho))
        return float(-mpmath.log(mean) / n)


def unblocked_channel_gain(p: ShadowedRicianParams, rng, size=None):
    """|h|^2 as one whole-array draw of each column: the oracle of
    channel._gain_blocks, whose draws it gives bit for bit."""
    a = (np.sqrt(rng.gamma(shape=p.m, scale=p.omega / p.m, size=size))
         if p.omega > 0 else np.zeros(size if size is not None else ()))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=size)
    sd = math.sqrt(p.b)
    re = a * np.cos(phi) + rng.normal(0.0, sd, size=size)
    im = a * np.sin(phi) + rng.normal(0.0, sd, size=size)
    gain = re * re + im * im
    return float(gain) if size is None else gain


def srician_cdf_grid(p: ShadowedRicianParams,
                     n_panels: int = 4096) -> tuple[np.ndarray, np.ndarray]:
    """CDF of |h|^2 tabulated at panel edges.

    Panel masses come from Gauss-Legendre quadrature of the density, so the
    edge values carry only quadrature error; linear interpolation between
    edges is accurate to O((x_max / n_panels)^2).
    """
    edges = np.linspace(0.0, channel._support_cut(p), n_panels + 1)
    panel_mass = np.sum(channel._panel_rule(p, edges)[1], axis=1)
    return edges, np.minimum(np.concatenate([[0.0], np.cumsum(panel_mass)]), 1.0)


def _backlog(alpha_bits: float, served: np.ndarray) -> np.ndarray:
    """Bits left after blocks 0..T of the slotted queue, starting empty.

    The Lindley recursion q_t = max(0, q_{t-1} + alpha - s_t) in closed
    form (Lindley 1952): q_t = L_t - min_{v<=t} L_v, where L is the running
    sum of alpha - s from L_0 = 0. It is exact whenever alpha and the served
    bits are integers, since then every sum is.
    """
    level = np.concatenate([[0.0], np.cumsum(alpha_bits - served)])
    return level - np.minimum.accumulate(level)


def simulate_delay_violation(
    alpha_bits: float,
    bits_per_block: float,
    eps: float,
    n_blocks: int,
    d_th_list,
    rng: np.random.Generator,
) -> dict:
    """Empirical violation frequency of the per-block FIFO delay.

    Each block delivers bits_per_block with probability 1 - eps and nothing
    otherwise; alpha_bits arrive at the start of every block. The delay of
    block t counts the extra blocks until the service accumulated from t
    onward covers the backlog present at t plus t's own arrivals. The
    backlog recursion accounts for idle slots, which a raw cumulative
    service comparison would wrongly bank.
    """
    if not 0.0 <= eps < 1.0:
        raise DomainError(f"eps must be in [0, 1), got {eps}")
    extra = int(max(d_th_list)) + 10
    total = n_blocks + extra
    served = bits_per_block * (rng.random(total) >= eps)
    cpot = np.concatenate([[0.0], np.cumsum(served)])  # cpot[t] = service through block t
    backlog = _backlog(alpha_bits, served[:n_blocks])  # bits left after block t
    # work ahead of and including block t's arrivals, to be cleared by service
    # starting at block t
    targets = cpot[: n_blocks] + backlog[: n_blocks] + alpha_bits
    tau = np.searchsorted(cpot, targets, side="left")  # first block index covering it
    t_idx = np.arange(1, n_blocks + 1)
    if np.any(tau > total):
        raise DomainError(
            "service never caught up with arrivals; system looks unstable"
        )
    delay = tau - t_idx
    return {float(d): float(np.mean(delay > d)) for d in d_th_list}


def queue_growth_ratio(
    alpha_bits: float,
    bits_per_block: float,
    eps: float,
    n_blocks: int,
    rng: np.random.Generator,
) -> float:
    """Mean backlog of the second half over the first half of the horizon.

    Near 1 for a stable queue; about 3 when the backlog grows linearly.
    """
    served = bits_per_block * (rng.random(n_blocks) >= eps)
    backlog = _backlog(alpha_bits, served)[1:]
    half = n_blocks // 2
    first = float(np.mean(backlog[:half]))
    second = float(np.mean(backlog[half:]))
    return second / max(first, 1e-12)
