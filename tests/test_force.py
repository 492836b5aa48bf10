"""Force modulation kinds: values, square integrals, support clipping."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from nmqfi import force as fc


def test_constant_inside_and_outside_support():
    f = fc.constant(2.5, (1.0, 3.0))
    assert f.value(2.0) == 2.5
    assert f.value(0.5) == 0.0
    assert f.value(3.5) == 0.0
    assert f.square_integrals(0.0, 2.0) == (6.25, 0.0)    # [1, 2] inside


def test_support_endpoints_inclusive():
    f = fc.constant(1.0, (0.0, 2.0))
    assert f.value(0.0) == 1.0
    assert f.value(2.0) == 1.0


def test_sinusoid_value_and_derivative():
    f = fc.sinusoid(2.0, 3.0, 0.4, (0.0, 10.0))
    t = np.array([0.3, 1.7])
    assert_allclose(f.value(t), 2.0 * np.sin(3.0 * t + 0.4))
    # a short window centred on t averages zeta'^2 to zeta'(t)^2 + O(h^2)
    h = 1e-4
    for ti in t:
        _, dz2 = f.square_integrals(ti - h, ti + h)
        zdot = 6.0 * np.cos(3.0 * ti + 0.4)
        assert dz2 / (2.0 * h) == pytest.approx(zdot ** 2, rel=1e-6)
    # over a whole period zeta^2 averages A^2 / 2, zeta'^2 A^2 Omega^2 / 2
    z2, dz2 = f.square_integrals(1.0, 1.0 + 2.0 * np.pi / 3.0)
    assert z2 == pytest.approx(4.0 * np.pi / 3.0, rel=1e-13)
    assert dz2 == pytest.approx(12.0 * np.pi, rel=1e-13)


def test_gaussian_pulse():
    f = fc.gaussian_pulse(2.0, 0.5, (0.0, 4.0))
    assert f.value(2.0) == 1.0
    assert f.value(2.5) == pytest.approx(np.exp(-0.5))
    # over the whole line: int zeta^2 = w sqrt(pi), int zeta'^2 = sqrt(pi) / (2 w)
    wide = fc.gaussian_pulse(2.0, 0.5, (-40.0, 40.0))
    z2, dz2 = wide.square_integrals(-40.0, 40.0)
    assert z2 == pytest.approx(0.5 * np.sqrt(np.pi), rel=1e-14)
    assert dz2 == pytest.approx(np.sqrt(np.pi), rel=1e-14)


def test_table_interpolation_and_secant_derivative():
    f = fc.TabulatedForce.from_samples([0.0, 1.0, 3.0], [0.0, 2.0, 0.0])
    assert f.support == (0.0, 3.0)
    assert f.value(0.5) == pytest.approx(1.0)
    assert f.value(2.0) == pytest.approx(1.0)
    assert f.value(3.5) == 0.0
    # slopes 2 and -1 on segments of length 1 and 2
    assert f.square_integrals(-1.0, 4.0) == pytest.approx((4.0, 6.0),
                                                          rel=1e-15)
    # inside one segment zeta' is its secant slope, up to the knot
    assert f.square_integrals(0.25, 1.0)[1] == pytest.approx(4.0 * 0.75,
                                                             rel=1e-15)
    assert f.square_integrals(1.0, 2.5)[1] == pytest.approx(1.0 * 1.5,
                                                            rel=1e-15)


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


# square_integrals against scipy's adaptive quadrature, piece by piece, to
# the convergence test of the window quadrature it replaced.

def _slope(force, t):
    """zeta'(t) at a point inside one smooth piece."""
    if isinstance(force, fc.SinusoidForce):
        return (force.amplitude * force.angular_frequency
                * np.cos(force.angular_frequency * t + force.phase))
    if isinstance(force, fc.GaussianPulseForce):
        x = (t - force.center) / force.width
        return -x / force.width * np.exp(-0.5 * x * x)
    if isinstance(force, fc.TabulatedForce):
        times, values = force.times, force.values
        k = np.searchsorted(times, t, side="right") - 1
        if k < 0 or k >= len(times) - 1:
            return 0.0                       # end values hold outside
        return (values[k + 1] - values[k]) / (times[k + 1] - times[k])
    return 0.0


# quad warns of bad integrand behavior on a piece up to a few hundred ulps
# long (6e-13 at |t| <= 25); below this length the left-point rule is
# exact to L^2 max|f'| / 2, under 1e-15 for every force drawn here. The
# left end lies in the piece's own table segment, as an interior node
# of a one-ulp piece may not.
_SHORT_PIECE = 1e-11


def _integral(f, lo, hi, epsabs):
    if hi - lo < _SHORT_PIECE:
        return (hi - lo) * f(lo)
    return quad(f, lo, hi, epsabs=epsabs, epsrel=1e-12, limit=4000)[0]


def _quad_squares(force, t0, t1, epsabs=1e-15):
    z2 = dz2 = 0.0
    for lo, hi in force.pieces(t0, t1):
        if hi > lo:
            z2 += _integral(lambda t: force.value(t) ** 2, lo, hi, epsabs)
            dz2 += _integral(lambda t: _slope(force, t) ** 2, lo, hi, epsabs)
    return z2, dz2


def _assert_matches_quad(force, t0, t1):
    for got, want in zip(force.square_integrals(t0, t1),
                         _quad_squares(force, t0, t1)):
        assert abs(got - want) <= max(1e-13, 1e-9 * abs(want)), (got, want)


_AMPLITUDES = st.floats(-3.0, 3.0)


@st.composite
def _forces(draw):
    lo = draw(st.floats(-5.0, 5.0))
    hi = lo + draw(st.floats(0.0, 10.0))
    kind = draw(st.sampled_from(["constant", "sinusoid", "pulse", "table"]))
    if kind == "constant":
        return fc.constant(draw(_AMPLITUDES), (lo, hi))
    if kind == "sinusoid":
        omega = draw(st.just(0.0) | st.floats(-100.0, 100.0))
        return fc.sinusoid(draw(_AMPLITUDES), omega,
                           draw(st.floats(-np.pi, np.pi)), (lo, hi))
    if kind == "pulse":
        return fc.gaussian_pulse(draw(st.floats(lo - 3.0, hi + 3.0)),
                                 draw(st.floats(0.05, 3.0)), (lo, hi))
    # samples on a grid of 40 cells over the support widened by 2 each way,
    # so the support may end inside or beyond the sampled range
    cells = sorted(draw(st.lists(st.integers(0, 40), min_size=2, max_size=6,
                                 unique=True)))
    times = [lo - 2.0 + k * (hi - lo + 4.0) / 40.0 for k in cells]
    values = draw(st.lists(_AMPLITUDES, min_size=len(times),
                           max_size=len(times)))
    return fc.TabulatedForce(support=(lo, hi), times=times, values=values)


@settings(max_examples=120, deadline=None)
@given(force=_forces(), start=st.floats(-8.0, 8.0),
       length=st.floats(-1.0, 15.0))
@example(force=fc.constant(1.5, (1.0, 1.0000000000000002)), start=0.0,
         length=2.0)     # a one-ulp piece
def test_square_integrals_match_quadrature(force, start, length):
    # windows partly or wholly outside the support; length <= 0 is empty
    _assert_matches_quad(force, start, start + length)
    if length <= 0.0:
        assert force.square_integrals(start, start + length) == (0.0, 0.0)


@settings(max_examples=40, deadline=None)
@given(amplitude=_AMPLITUDES, omega=st.floats(0.5, 100.0),
       phase=st.floats(-np.pi, np.pi), turn=st.integers(0, 30))
def test_sinusoid_short_window_at_a_zero(amplitude, omega, phase, turn):
    zero = (turn * np.pi - phase) / omega
    force = fc.sinusoid(amplitude, omega, phase, (-20.0, 20.0))
    _assert_matches_quad(force, zero, zero + 1e-5)
    _assert_matches_quad(force, zero - 0.5e-5, zero + 0.5e-5)


@settings(max_examples=40, deadline=None)
@given(center=st.floats(-5.0, 5.0), width=st.floats(0.05, 3.0),
       depth=st.floats(6.0, 20.0), length=st.floats(1e-3, 10.0),
       side=st.sampled_from([-1.0, 1.0]))
def test_pulse_far_tail(center, width, depth, length, side):
    # a window 6 or more widths into either tail keeps its digits: each
    # integral matches the quadrature to 1e-9 relative, however small
    ends = sorted(center + side * width * np.array([depth, depth + length]))
    force = fc.gaussian_pulse(center, width, (ends[0] - 1.0, ends[1] + 1.0))
    got = force.square_integrals(*ends)
    want = _quad_squares(force, *ends, epsabs=0.0)
    assert all(w > 0.0 for w in want)
    assert got == pytest.approx(want, rel=1e-9, abs=0.0)
