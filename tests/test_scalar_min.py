import math

import numpy as np
import pytest

from gent.errors import BracketFailure
from gent.scalar_min import EPS, bracket_doubling, falling_root, golden_section, grid_minimize, resolution


def test_golden_section_parabola():
    x, fx = golden_section(lambda t: (t - 1.7) ** 2 + 3.0, 0.0, 5.0, tol=1e-12)
    # argmin accuracy is limited to ~sqrt(eps) by flatness at the bottom
    assert x == pytest.approx(1.7, abs=1e-7)
    assert fx == pytest.approx(3.0, abs=1e-15)


def _counted(f):
    calls = []

    def g(t):
        calls.append(t)
        return f(t)

    return g, calls


@pytest.mark.parametrize(
    "f, a, b, x_min",
    [
        (lambda t: (t - 1.7) ** 2 + 3.0, 0.0, 5.0, 1.7),
        (lambda t: math.cosh(t - 2.0), -3.0, 10.0, 2.0),
        (lambda t: math.exp(t) - 3 * t, -5.0, 5.0, math.log(3.0)),
    ],
)
def test_parabolic_steps_reach_the_resolution_on_smooth_functions(f, a, b, x_min):
    # measured 6, 10 and 13 evaluations; golden steps alone take about 50 on these brackets
    g, calls = _counted(f)
    x, fx = golden_section(g, a, b, tol=1e-10)
    assert abs(x - x_min) <= resolution(x_min, 1e-10)
    assert fx == f(x)
    assert len(calls) <= 15


def test_golden_steps_converge_on_a_kink():
    # parabolas through points on both sides of a kink are refused or overshoot
    x, fx = golden_section(lambda t: abs(t - math.pi), 0.0, 10.0, tol=1e-10)
    assert abs(x - math.pi) <= resolution(math.pi, 1e-10)
    assert fx == abs(x - math.pi)


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-12])
@pytest.mark.parametrize(
    "f, a, b, end",
    [
        (lambda t: t, 0.0, 1.0, 0.0),
        (lambda t: -t, 0.0, 1.0, 1.0),
        (lambda t: t, -7.0, 3.0, -7.0),
        (lambda t: -t, -7.0, 3.0, 3.0),
        (lambda t: math.exp(t), 5.0, 9.0, 5.0),
        (lambda t: (t - 20.0) ** 2, 5.0, 9.0, 9.0),
    ],
)
def test_minimum_at_an_end_is_returned_within_two_resolutions(f, a, b, end, tol):
    # the search stops once both ends of its bracket are within 2 resolutions of x
    g, calls = _counted(f)
    x, _ = golden_section(g, a, b, tol)
    assert a < x < b
    assert abs(x - end) <= 2 * resolution(end, tol)
    assert all(a < t < b for t in calls)  # the ends themselves are never evaluated


@pytest.mark.parametrize(
    "f, a, b, root, most_calls",
    [
        (lambda t: 1.7 - t, 0.0, 5.0, 1.7, 3),
        (lambda t: math.cos(t), 0.0, 3.0, math.pi / 2, 8),
        (lambda t: 3.0 - math.exp(t), -5.0, 5.0, math.log(3.0), 14),
        (lambda t: 1e-300 - t, -1.0, 2.0, 1e-300, 4),
        (lambda t: math.copysign(1.0, math.pi - t), 0.0, 10.0, math.pi, 54),
    ],
)
def test_falling_root_places_a_root_to_rounding(f, a, b, root, most_calls):
    # interpolation steps on smooth slopes, bisection where only the sign is informative
    # (the step at pi); the counts are the measured ones
    g, calls = _counted(f)
    x = falling_root(g, a, b)
    assert abs(x - root) <= 4 * EPS * abs(root)
    assert len(calls) <= most_calls
    assert all(a <= t <= b for t in calls)


def test_bracket_doubling_brackets_minimum():
    f = lambda t: (t - 40.0) ** 2
    a, b = bracket_doubling(f, 0.0, 0.1)
    assert a <= 40.0 <= b


def test_bracket_failure_on_monotone_decrease():
    with pytest.raises(BracketFailure):
        bracket_doubling(lambda t: -t, 0.0, 1.0, xmax=100.0)


def test_grid_minimize_refines():
    x, fx = grid_minimize(lambda t: np.abs(t - math.pi), 0.0, 10.0)
    assert x == pytest.approx(math.pi, abs=1e-8)
    assert fx < 1e-8
