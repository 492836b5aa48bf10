"""Composite Simpson quadrature with node doubling, on vectorized integrands."""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, retired


def simpson_weights(n_panels: int) -> np.ndarray:
    """Weights for composite Simpson on n_panels (even) uniform panels.

    The returned array has n_panels + 1 entries and already carries the
    1/3 factor; multiply by the step to get quadrature weights.
    """
    if n_panels < 2 or n_panels % 2:
        raise ValueError("Simpson rule needs an even, positive panel count")
    w = np.ones(n_panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


def adaptive_simpson(f, a, b, rel_tol: float = 1e-9, abs_tol: float = 1e-13,
                     min_panels: int = 8, max_panels: int = 1 << 16):
    """Integrate f over [a, b], doubling the node count until converged.

    a and b are scalars or equal-shape arrays of ends, one integral per
    entry; f maps nodes shaped like a plus a trailing node axis to values
    of that shape, with optional extra leading axes. Each entry keeps its
    first estimate within max(abs_tol, rel_tol |estimate|) of the one
    before, as a scalar call would. Empty intervals (b <= a) give exactly
    0; raises ConvergenceError when max_panels panels do not reach the
    tolerance.
    """
    a = np.asarray(a, dtype=float)
    b = np.maximum(a, b)
    n = max(2, min_panels + (min_panels % 2))
    value, done = None, False
    while True:
        x = np.linspace(a, b, n + 1, axis=-1)
        refined = np.where(b > a, (f(x) @ simpson_weights(n)) * ((b - a) / n), 0.0)
        if value is not None:
            moved = np.abs(refined - value)
            refined = np.where(done, value, refined)
            done = done | (moved <= np.maximum(abs_tol, rel_tol * np.abs(refined)))
            if np.all(done):
                return refined if refined.ndim else complex(refined)
        if n >= max_panels:
            raise ConvergenceError(f"Simpson quadrature on [{a.min()}, {b.max()}] "
                                   f"not converged at {max_panels} panels")
        value = refined
        n *= 2


adaptive_simpson_vector = retired("adaptive_simpson_vector")
