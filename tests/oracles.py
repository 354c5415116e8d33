"""Independent high-precision oracles for the library's analytic paths.

Each oracle forms its quantity from the defining formula in mpmath, at a
working precision far above float64, and returns it as a float.
"""
import mpmath


def shadowed_rician_log_alpha(b: float, m: float, omega: float, dps: int = 50) -> float:
    """log alpha = m log(2bm / (2bm + omega)) - log(2b), the log of the
    shadowed-Rician density at 0 (Abdi et al., IEEE TWC 2003)."""
    with mpmath.workdps(dps):
        b, m, omega = mpmath.mpf(b), mpmath.mpf(m), mpmath.mpf(omega)
        return float(m * mpmath.log(2 * b * m / (2 * b * m + omega)) - mpmath.log(2 * b))


def shadowed_rician_pdf(x: float, b: float, m: float, omega: float,
                        dps: int = 30) -> float:
    """The shadowed-Rician density alpha e^{-beta x} 1F1(m; 1; delta x) of the
    power gain |h|^2, with alpha = (2bm / (2bm + omega))^m / (2b),
    beta = 1 / (2b) and delta = omega / (2b (2bm + omega))."""
    with mpmath.workdps(dps):
        x, b, m, omega = (mpmath.mpf(v) for v in (x, b, m, omega))
        alpha = (2 * b * m / (2 * b * m + omega)) ** m / (2 * b)
        beta = 1 / (2 * b)
        delta = omega / (2 * b * (2 * b * m + omega))
        return float(alpha * mpmath.exp(-beta * x) * mpmath.hyp1f1(m, 1, delta * x))
