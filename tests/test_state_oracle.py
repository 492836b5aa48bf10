"""The probe state's variance, determinant and trace against mpmath.

The oracle builds the covariance (nbar + 1/2) R(axis) diag(e^{2r}, e^{-2r})
R(axis)^T as a matrix from the same float inputs and reads v^T Sigma v,
det Sigma and its trace off it. Its working precision is 50 digits plus
the digits that the matrix's cancellation, up to e^{4r}, takes, so every
oracle value keeps 50 significant digits.

An input angle a is a float, known only to eps |a| / 2, and the float route
reduces theta - axis once; that moves the variance by (|theta| + |axis|)
|d ln V / d phi| eps / 2 of its value. The bound is a few eps times this
angle condition number (plus one); the determinant and the trace do not
depend on the angles and get a few eps.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from nmqfi.probe import GaussianProbeInit

EPS = np.finfo(float).eps
DIGITS = 50
# Relative bounds, in units of eps (times the condition number for the
# variance), fixed before the state representation was changed.
VARIANCE_EPS, DET_EPS, TRACE_EPS = 8.0, 4.0, 4.0

RS = [0.0, 0.3, 1.7, 4.0, 8.0, 12.0, 20.0, 35.0]
NBARS = [0.0, 0.4, 9.0]


def _oracle(nbar: float, r: float, axis: float, thetas):
    """(variances, det, trace, condition numbers) of the 50-digit matrix."""
    with mp.workdps(DIGITS + math.ceil(4.0 * r / math.log(10.0)) + 5):
        nu = mp.mpf(nbar) + mp.mpf(0.5)
        big, small = mp.exp(2 * mp.mpf(r)), mp.exp(-2 * mp.mpf(r))
        c, s = mp.cos(mp.mpf(axis)), mp.sin(mp.mpf(axis))
        rot = mp.matrix([[c, -s], [s, c]])
        sigma = nu * rot * mp.diag([big, small]) * rot.T
        variances, conds = [], []
        for theta in thetas:
            v = mp.matrix([mp.cos(mp.mpf(theta)), mp.sin(mp.mpf(theta))])
            var = (v.T * sigma * v)[0]
            phi = mp.mpf(theta) - mp.mpf(axis)
            slope = nu * (small - big) * mp.sin(2 * phi)
            variances.append(float(var))
            conds.append(float(1 + (abs(theta) + abs(axis)) * abs(slope / var)))
        det = float(mp.det(sigma))
        trace = float(sigma[0, 0] + sigma[1, 1])
    return np.array(variances), det, trace, np.array(conds)


def _angles(rng, axis: float) -> np.ndarray:
    """Random angles, the two principal axes and angles just off them."""
    near = axis + np.array([0.0, 1e-9, 1e-5, 0.5 * np.pi, 0.5 * np.pi + 1e-9,
                            0.5 * np.pi - 1e-5, np.pi])
    return np.concatenate((rng.uniform(-7.0, 7.0, 24), near))


def _state(nbar: float, r: float, axis: float) -> GaussianProbeInit:
    if nbar == 0.0:
        return GaussianProbeInit(0.0, r=r, axis=axis)
    return GaussianProbeInit(0.0, nbar, r, axis)


@pytest.mark.parametrize("nbar", NBARS)
@pytest.mark.parametrize("r", RS)
def test_state_moments_match_the_fifty_digit_matrix(nbar, r):
    rng = np.random.default_rng(int(1000 * r + 10 * nbar))
    for axis in (0.0, *rng.uniform(0.0, np.pi, 4)):
        thetas = _angles(rng, axis)
        want, det, trace, cond = _oracle(nbar, r, axis, thetas)
        state = _state(nbar, r, axis)
        got = state.variance(thetas)
        assert np.all(np.abs(got - want) <= VARIANCE_EPS * EPS * cond * want)
        assert abs(state.det - det) <= DET_EPS * EPS * det
        assert abs(state.trace - trace) <= TRACE_EPS * EPS * trace


def test_squeezed_state_builds_at_every_angle_up_to_r_35():
    angles = np.linspace(0.0, np.pi, 200, endpoint=False)
    for r in np.linspace(0.0, 35.0, 71):
        for angle in angles:
            state = GaussianProbeInit(0.0, r=float(r), axis=float(angle))
            assert state.det == 0.25
