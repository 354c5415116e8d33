"""Scalar minimization used by the bound and exponent searches.

Golden-section search for objectives that are unimodal on their interval:
the log peak-AoI and delay bounds, convex in theta, and the Gallager
objective, concave in rho. A minimum at an end of the interval is found exactly.
"""
from __future__ import annotations

import math
from typing import Callable

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_min(
    f: Callable[[float], float], a: float, b: float, tol: float
) -> tuple[float, float]:
    """Minimize f on [a, b] to a bracket of width tol; returns (x_min, f(x_min))
    at the best of the bracket's midpoint, b and a, where an end wins a tie."""
    ends = a, b
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
    # min keeps the first of equal values: a, then b, then the midpoint
    return min(((x, f(x)) for x in (*ends, 0.5 * (a + b))), key=lambda p: p[1])
