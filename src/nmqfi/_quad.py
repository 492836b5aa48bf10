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


def adaptive_simpson(f, a: float, b: float, rel_tol: float = 1e-9,
                     abs_tol: float = 1e-13, min_panels: int = 8,
                     max_panels: int = 1 << 16) -> complex:
    """Integrate f over [a, b], doubling the node count until converged.

    f takes an ndarray of nodes and returns values of the same shape
    (complex allowed). Returns 0 for an empty interval; raises
    ConvergenceError when max_panels panels do not reach the tolerance.
    """
    if b <= a:
        return 0.0 + 0.0j
    n = max(2, min_panels + (min_panels % 2))
    span = b - a
    x = np.linspace(a, b, n + 1)
    value = complex(np.dot(simpson_weights(n), f(x)) * (span / n))
    while n < max_panels:
        n *= 2
        x = np.linspace(a, b, n + 1)
        refined = complex(np.dot(simpson_weights(n), f(x)) * (span / n))
        if abs(refined - value) <= max(abs_tol, rel_tol * abs(refined)):
            return refined
        value = refined
    raise ConvergenceError(f"Simpson quadrature on [{a}, {b}] not converged "
                           f"at {max_panels} panels")


adaptive_simpson_vector = retired("adaptive_simpson_vector")
