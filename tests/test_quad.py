"""Adaptive Simpson quadrature: convergence and its typed failure."""

import numpy as np
import pytest

from conftest import simpson_weights
from nmqfi._quad import adaptive_simpson
from nmqfi.errors import ConvergenceError, NmqfiError


def test_smooth_integrand_converges():
    got = adaptive_simpson(np.cos, 0.0, 0.5 * np.pi, rel_tol=1e-12)
    assert got == pytest.approx(1.0, abs=1e-12)


def test_unconverged_integrand_raises_at_the_panel_cap():
    # cos(400 x) is unresolved on 8 to 64 panels, so each doubling moves
    # the estimate by far more than the tolerance
    with pytest.raises(ConvergenceError):
        adaptive_simpson(lambda x: np.cos(400.0 * x), 0.0, 1.0,
                         max_panels=64)
    assert issubclass(ConvergenceError, NmqfiError)


def _wave(x):
    return np.exp(3j * x) / (1.0 + x * x)


def test_array_ends_match_scalar_calls():
    a = np.array([0.0, 0.3, 1.0, 2.0])
    b = np.array([0.5, 1.7, 1.0, 1.5])     # the last two are empty
    got = adaptive_simpson(_wave, a, b, rel_tol=1e-10)
    assert got.shape == (4,)
    for k in (0, 1):
        want = adaptive_simpson(_wave, a[k], b[k], rel_tol=1e-10)
        assert got[k] == pytest.approx(want, rel=1e-12)
    assert got[2] == 0.0 and got[3] == 0.0


def test_leading_axes_give_one_integral_per_row():
    a, b = np.array([0.0, 0.4]), np.array([1.0, 2.5])
    got = adaptive_simpson(lambda x: np.stack([np.cos(x), x * x]), a, b,
                           rel_tol=1e-12)
    assert got.shape == (2, 2)
    assert got[0] == pytest.approx(np.sin(b) - np.sin(a), rel=1e-12)
    assert got[1] == pytest.approx((b ** 3 - a ** 3) / 3.0, rel=1e-12)


def test_one_unresolved_entry_raises():
    # sqrt(x) has an unbounded derivative at 0, so its Simpson estimate
    # still moves by ~1e-4 at 64 panels; x^2 is exact on any panel count
    powers = np.array([2.0, 0.5])
    with pytest.raises(ConvergenceError):
        adaptive_simpson(lambda x: x ** powers[:, None], np.zeros(2),
                         np.ones(2), rel_tol=1e-6, max_panels=64)
    got = adaptive_simpson(lambda x: x ** powers[:1, None], np.zeros(1),
                           np.ones(1), rel_tol=1e-6, max_panels=64)
    assert got[0] == pytest.approx(1.0 / 3.0, rel=1e-12)


def _recording(f):
    nodes = []

    def integrand(x):
        nodes.append(np.array(x))
        return f(x)
    return integrand, nodes


def test_matches_weighted_composite_rule_at_its_final_panel_count():
    integrand, nodes = _recording(_wave)
    got = adaptive_simpson(integrand, 0.3, 2.9, rel_tol=1e-12)
    n = sum(x.size for x in nodes) - 1
    assert n > 8                       # at least one doubling happened
    x = np.linspace(0.3, 2.9, n + 1)
    want = (_wave(x) @ simpson_weights(n)) * (2.6 / n)
    assert abs(got - want) <= 1e-14 * abs(want)


def test_scalar_call_evaluates_each_node_once():
    integrand, nodes = _recording(np.cos)
    adaptive_simpson(integrand, 0.0, 1.0, rel_tol=1e-12)
    assert len(nodes) > 2
    seen = np.concatenate(nodes)
    n = seen.size - 1
    assert np.unique(seen).size == seen.size
    assert np.allclose(np.sort(seen), np.linspace(0.0, 1.0, n + 1),
                       rtol=0.0, atol=1e-15)
