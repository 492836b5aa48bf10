"""Adaptive Simpson quadrature: convergence and its typed failure."""

import numpy as np
import pytest

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
