"""Composite Simpson quadrature with node doubling, on vectorized integrands."""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, retired


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

    Every node is evaluated once: the rule keeps the sums of f over the
    two ends, the odd and the even interior nodes, and a doubling passes
    only the new midpoints to f (the old odd nodes become even ones).
    Each entry's sums depend on its own nodes alone, so a batched value
    does not depend on the batch it was computed in.
    """
    a = np.asarray(a, dtype=float)
    b = np.maximum(a, b)
    width = (b - a)[..., None]
    n = max(2, min_panels + (min_panels % 2))
    x = a[..., None] + np.arange(n + 1) * (width / n)
    x[..., -1] = b
    fx = f(x)
    ends = fx[..., 0] + fx[..., -1]
    odd = fx[..., 1::2].sum(axis=-1)
    even = fx[..., 2:-1:2].sum(axis=-1)
    value, done = None, False
    while True:
        refined = np.where(b > a, (ends + 4.0 * odd + 2.0 * even)
                           * ((b - a) / (3 * n)), 0.0)
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
        even = even + odd
        odd = f(a[..., None] + np.arange(1, n, 2) * (width / n)).sum(axis=-1)


adaptive_simpson_vector = retired("adaptive_simpson_vector")
