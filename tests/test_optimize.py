"""Contract of the golden-section search shared by the theta and rho searches."""
import math

import pytest

from stinqos.optimize import golden_section_min

A, B, TOL = -1.0, 3.0, 1e-6


def counted(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


def test_interior_minimum_of_convex_quadratic():
    x, fx = golden_section_min(lambda x: (x - 0.3) ** 2 + 2.0, A, B, TOL)
    assert abs(x - 0.3) <= TOL
    assert fx == (x - 0.3) ** 2 + 2.0


@pytest.mark.parametrize("f, end", [
    pytest.param(lambda x: x, A, id="increasing"),
    pytest.param(math.exp, A, id="exp"),
    pytest.param(lambda x: -x, B, id="decreasing"),
    pytest.param(lambda x: -x ** 3, B, id="cubic"),
    pytest.param(lambda x: 1.5, A, id="constant"),  # ties go to an end, a first
])
def test_monotone_and_constant_objectives_return_an_end(f, end):
    x, fx = golden_section_min(f, A, B, TOL)
    assert x == end
    assert fx == f(end)


@pytest.mark.parametrize("f", [lambda x: (x - 0.3) ** 2, lambda x: x, lambda x: -x,
                               lambda x: abs(x - 2.9), lambda x: 0.0],
                         ids=["quadratic", "increasing", "decreasing", "kink", "constant"])
@pytest.mark.parametrize("tol", [1e-3, 1e-9])
def test_value_and_evaluation_count(f, tol):
    g, calls = counted(f)
    x, fx = golden_section_min(g, A, B, tol)
    assert fx == f(x)
    steps = math.ceil(math.log(tol / (B - A)) / math.log(0.618))
    assert len(calls) <= steps + 5
