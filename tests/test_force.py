"""Force modulation kinds: values, derivatives, support clipping."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nmqfi import force as fc


def test_constant_inside_and_outside_support():
    f = fc.constant(2.5, (1.0, 3.0))
    assert f.value(2.0) == 2.5
    assert f.value(0.5) == 0.0
    assert f.value(3.5) == 0.0
    assert f.derivative(2.0) == 0.0


def test_support_endpoints_inclusive():
    f = fc.constant(1.0, (0.0, 2.0))
    assert f.value(0.0) == 1.0
    assert f.value(2.0) == 1.0


def test_sinusoid_value_and_derivative():
    f = fc.sinusoid(2.0, 3.0, 0.4, (0.0, 10.0))
    t = np.array([0.3, 1.7])
    assert_allclose(f.value(t), 2.0 * np.sin(3.0 * t + 0.4))
    assert_allclose(f.derivative(t), 6.0 * np.cos(3.0 * t + 0.4))


def test_gaussian_pulse():
    f = fc.gaussian_pulse(2.0, 0.5, (0.0, 4.0))
    assert f.value(2.0) == 1.0
    assert f.value(2.5) == pytest.approx(np.exp(-0.5))
    # derivative oracle by central differences
    eps = 1e-6
    fd = (f.value(1.8 + eps) - f.value(1.8 - eps)) / (2 * eps)
    assert f.derivative(1.8) == pytest.approx(fd, rel=1e-8)


def test_table_interpolation_and_secant_derivative():
    f = fc.TabulatedForce.from_samples([0.0, 1.0, 3.0], [0.0, 2.0, 0.0])
    assert f.support == (0.0, 3.0)
    assert f.value(0.5) == pytest.approx(1.0)
    assert f.value(2.0) == pytest.approx(1.0)
    assert f.derivative(0.5) == pytest.approx(2.0)
    assert f.derivative(2.0) == pytest.approx(-1.0)
    assert f.value(3.5) == 0.0


def test_table_validation():
    with pytest.raises(ValueError):
        fc.TabulatedForce.from_samples([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        fc.TabulatedForce.from_samples([0.0], [1.0])


def test_window_pieces():
    # a smooth force is one piece: the window clipped to the support
    f = fc.constant(1.0, (1.0, 5.0))
    assert f.pieces(0.0, 3.0) == [(1.0, 3.0)]
    assert f.pieces(2.0, 9.0) == [(2.0, 5.0)]
    [(lo, hi)] = f.pieces(6.0, 9.0)
    assert hi <= lo
    # a table is cut at each sample time inside its support
    table = fc.TabulatedForce(support=(0.5, 4.0), times=(0.0, 0.3, 0.7, 4.0),
                              values=(0.0, 2.0, -1.0, 0.5))
    assert table.pieces(0.0, 2.0) == [(0.5, 0.7), (0.7, 2.0)]
    (lo, hi), (lo2, hi2) = table.pieces(np.array([0.0, 1.0]),
                                        np.array([0.6, 2.0]))
    assert lo.tolist() == [0.5, 1.0] and hi.tolist() == [0.6, 1.0]
    assert lo2.tolist() == [0.6, 1.0] and hi2.tolist() == [0.6, 2.0]


def test_invalid_support_rejected():
    with pytest.raises(ValueError):
        fc.constant(1.0, (2.0, 1.0))


def test_vectorized_matches_scalar():
    f = fc.sinusoid(1.0, 2.0, 0.0, (0.5, 4.0))
    ts = np.linspace(0.0, 5.0, 23)
    vec = f.value(ts)
    assert_allclose(vec, [f.value(float(t)) for t in ts])
