"""Scalar minimization used by the bound and exponent searches.

Golden-section search for objectives that are unimodal on their interval:
the convex log delay kernel in theta and the concave Gallager objective in
rho. ``grid_then_golden`` scans a coarse grid first and then refines inside
the best grid point's neighbors; it is kept only for the peak-AoI search,
whose flat minimum it pins to the values recorded in
``perfbench/reference.json``.
"""
from __future__ import annotations

import math
from typing import Callable

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# points of the coarse grid of grid_then_golden
_N_GRID = 96


def golden_section_min(
    f: Callable[[float], float], a: float, b: float, tol: float
) -> tuple[float, float]:
    """Minimize f on [a, b] to a bracket of width tol; returns (x_min, f(x_min))."""
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
    x = 0.5 * (a + b)
    return x, f(x)


def grid_then_golden(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> tuple[float, float]:
    """Coarse-grid bracketing on lo < hi followed by golden-section refinement."""
    xs = [lo + (hi - lo) * i / (_N_GRID - 1) for i in range(_N_GRID)]
    fs = [f(x) for x in xs]
    i = min(range(_N_GRID), key=fs.__getitem__)
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, _N_GRID - 1)]
    x, fx = golden_section_min(f, a, b, tol=tol)
    if fs[i] < fx:
        return xs[i], fs[i]
    return x, fx
