"""Independent reference implementations of the library's paths.

The mpmath oracles form their quantity from the defining formula at a
working precision far above float64 and return it as a float; the M/G/1
sojourn and peak-AoI tails, Laplace inversions, stay mpmath numbers, as a
tail can fall below the float range. The float64 references are the
whole-array channel sampler, the tabulated CDF of the channel gain and the
slotted bit-queue simulation, which the tests compare the library's draws,
density and delay bound against, and two exact queue laws: the M/G/1 mean
peak AoI of the sweeps and the stationary delay tail of the bit queue.
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
    """Empirical violation frequency of the per-block FIFO delay, over the
    block_delays of a run long enough for the largest threshold."""
    delay = block_delays(alpha_bits, bits_per_block, eps, n_blocks,
                         int(max(d_th_list)) + 10, rng)
    return {float(d): float(np.mean(delay > d)) for d in d_th_list}


def block_delays(
    alpha_bits: float,
    bits_per_block: float,
    eps: float,
    n_blocks: int,
    extra: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """The delay of each of n_blocks blocks of the slotted bit queue, with
    ``extra`` more blocks of service drawn to clear the last of them.

    Each block delivers bits_per_block with probability 1 - eps and nothing
    otherwise; alpha_bits arrive at the start of every block. The delay of
    block t counts the extra blocks until the service accumulated from t
    onward covers the backlog present at t plus t's own arrivals. The
    backlog recursion accounts for idle slots, which a raw cumulative
    service comparison would wrongly bank.
    """
    if not 0.0 <= eps < 1.0:
        raise DomainError(f"eps must be in [0, 1), got {eps}")
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
    return tau - t_idx


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


def mg1_mean_peak_aoi(rate: float, slot: float, eps_branches) -> float:
    """Mean peak AoI of an FCFS M/G/1 queue with Poisson arrivals at
    ``rate`` and service S = slot * A, by Pollaczek-Khinchine:
    E[peak] = 1/lambda + E[S] + lambda E[S^2] / (2 (1 - lambda E[S])).

    A is an ARQ attempt count, geometric on {1, 2, ...}; with failure
    probability eps it has E[A] = 1/(1 - eps) and E[A^2] = (1 + eps)/(1 - eps)^2.
    ``eps_branches`` lists (probability, eps) pairs of a mixture of such
    counts (Kleinrock, Queueing Systems, vol. 1, 1975, ch. 5; Costa,
    Codreanu and Ephremides, IEEE Trans. Inf. Theory 2016)."""
    mean_a = sum(p / (1.0 - eps) for p, eps in eps_branches)
    mean_a2 = sum(p * (1.0 + eps) / (1.0 - eps) ** 2 for p, eps in eps_branches)
    mean_s, mean_s2 = slot * mean_a, slot * slot * mean_a2
    load = rate * mean_s
    if not load < 1.0:
        raise DomainError(f"load {load} >= 1: the queue has no stationary law")
    return 1.0 / rate + mean_s + rate * mean_s2 / (2.0 * (1.0 - load))


def delay_backlog_law(alpha_bits: int, bits_per_block: int, eps: float,
                      n_states: int = 2000, tol: float = 1e-15) -> np.ndarray:
    """Stationary law of the backlog after a block, in units of g =
    gcd(alpha, bits), of q' = max(0, q + alpha/g - (bits/g) B) with
    B ~ Bernoulli(1 - eps): power iteration of the chain truncated to
    ``n_states`` states, whose top state keeps what would pass it, until
    no state's mass moves by more than ``tol`` relative to it."""
    g = math.gcd(alpha_bits, bits_per_block)
    up, down = alpha_bits // g, bits_per_block // g
    if not up < (1.0 - eps) * down:
        raise DomainError("mean arrival >= mean service: no stationary law")
    top = n_states - 1
    states = np.arange(n_states)
    fail = np.minimum(states + up, top)  # B = 0: nothing served
    served = np.clip(states + up - down, 0, top)  # B = 1
    pi = np.zeros(n_states)
    pi[0] = 1.0
    for _ in range(100_000):
        nxt = (np.bincount(fail, weights=eps * pi, minlength=n_states)
               + np.bincount(served, weights=(1.0 - eps) * pi, minlength=n_states))
        done = np.all(np.abs(nxt - pi) <= tol * np.maximum(nxt, 1e-300))
        pi = nxt
        if done:
            return pi / pi.sum()
    raise DomainError("power iteration did not converge")


def delay_violation_exact(alpha_bits: int, bits_per_block: int, eps: float,
                          d: int, pi=None) -> float:
    """P(delay > d) of the slotted bit queue that simulate_delay_violation
    runs, at its stationary law: a block's delay exceeds d exactly when the
    next d + 1 services fall short of the backlog before it plus its own
    arrival, Σ_q π(q) P(bits Bin(d + 1, 1 - eps) < g q + alpha)."""
    if pi is None:
        pi = delay_backlog_law(alpha_bits, bits_per_block, eps)
    g = math.gcd(alpha_bits, bits_per_block)
    n = d + 1
    # P(Bin(n, 1 - eps) = j) for j = 0..n, and the work each state waits on
    pmf = np.array([math.comb(n, j) * (1.0 - eps) ** j * eps ** (n - j)
                    for j in range(n + 1)])
    work = g * np.arange(len(pi)) + alpha_bits
    short = bits_per_block * np.arange(n + 1)[None, :] < work[:, None]
    return float(np.sum(pi * (short @ pmf)))


def _mg1_arq_transforms(rate: float, slot: float, eps: float):
    """Laplace transforms, in mpmath at the working precision, of the
    service S = slot * K, K geometric on {1, 2, ...} with failure
    probability eps, S*(s) = (1 - eps) e^{-s slot} / (1 - eps e^{-s slot}),
    and of the stationary sojourn T = W + S of an FCFS M/G/1 queue with
    Poisson arrivals at ``rate``, T*(s) = W*(s) S*(s), where W*(s) =
    (1 - rho) s / (s - rate (1 - S*(s))) is the Pollaczek-Khinchine
    waiting time (Kleinrock, Queueing Systems, vol. 1, 1975, ch. 5).

    Each tail below is e^{-rate y} times the inverse of its transform
    shifted by -rate, so Talbot's absolute error, about 10^-dps, is relative
    to the gap's tail e^{-rate y}. That needs the sojourn tail to decay
    faster than the gap's, E[e^{rate S}] < 2; it also makes the load < 1.
    """
    z = math.exp(rate * slot)  # E[e^{rate S}] = (1 - eps) z / (1 - eps z)
    if not (eps * z < 1.0 and (1.0 - eps) * z < 2.0 * (1.0 - eps * z)):
        raise DomainError("E[e^{rate S}] >= 2: the sojourn tail decays no faster "
                          "than the gap's")
    lam, n, e = mpmath.mpf(rate), mpmath.mpf(slot), mpmath.mpf(eps)
    rho = lam * n / (1 - e)

    def service(s):
        z = mpmath.exp(-s * n)
        return (1 - e) * z / (1 - e * z)

    def sojourn(s):
        b = service(s)
        return (1 - rho) * s / (s - lam * (1 - b)) * b

    return service, sojourn


def _shifted_tail(rate: float, transform, y: float):
    """The tail whose Laplace transform is (1 - transform(s)) / s, at y, as
    e^{-rate y} times the Talbot inverse of the transform shifted by -rate;
    an mpmath number, which keeps a tail below the float range."""
    lam = mpmath.mpf(rate)
    g = mpmath.invertlaplace(lambda s: (1 - transform(s - lam)) / (s - lam), y,
                             method="talbot")
    return g * mpmath.exp(-lam * y)


def mg1_sojourn_tail(rate: float, slot: float, eps: float, y: float, dps: int = 30):
    """P(T > y) of the stationary sojourn of _mg1_arq_transforms' queue."""
    with mpmath.workdps(dps):
        return _shifted_tail(rate, _mg1_arq_transforms(rate, slot, eps)[1], y)


def paoi_violation_exact(rate: float, slot: float, eps: float, a_th: float,
                         dps: int = 30):
    """Stationary P(peak AoI > a_th) of _mg1_arq_transforms' queue.

    An update's peak AoI is its gap G ~ Exp(rate) plus its sojourn, that is
    max(G, T) + S, with T the sojourn of the update before it; the three are
    independent. So P(peak > a) = Σ_k P(K = k) [1 - (1 - e^{-rate y}) F_T(y)]
    with y = a - k slot, a term with y <= 0 counting as 1. Its transform is
    inverted whole: max(G, T) has P(max <= y) = (1 - e^{-rate y}) F_T(y), so
    E[e^{-s max}] = T*(s) - s T*(s + rate) / (s + rate), times S*(s) for
    the peak."""
    with mpmath.workdps(dps):
        service, sojourn = _mg1_arq_transforms(rate, slot, eps)
        lam = mpmath.mpf(rate)

        def peak(s):
            return service(s) * (sojourn(s) - s * sojourn(s + lam) / (s + lam))

        return _shifted_tail(rate, peak, a_th)
