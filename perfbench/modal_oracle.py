"""Exact modal oracle for a probe coupled to a finite set of bath modes.

Every bath the engine accepts is a finite mode set with rotating-wave
coupling, so probe plus bath is a linear system whose amplitude generator
is the real symmetric (N+1)x(N+1) arrowhead matrix

    H = [[omega0, K^T], [K, diag(omega_n)]],   K_n = sqrt(|K_n|^2).

One `eigh` of H gives the amplitude propagator U(tau) = V exp(-i L tau) V^T
at any tau without a time grid, and from it the exact response
G(tau) = e^{i omega0 tau} U_00(tau), the bath amplitudes U_0n(tau), the
bath noise n_B(tau) = sum_n (N_n + 1/2) |U_0n(tau)|^2 and the two-time
correlation of the collective coupling. This is the modal form of the
symplectic oracles in the test suite; it shares no code with the engine.
"""

from __future__ import annotations

import numpy as np

# Gauss-Legendre rule used for every force integral; panels are kept short
# enough (see _PANEL) that the integrands are resolved to rounding.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_PANEL = 0.25


class ModalOracle:
    """Eigen-decomposition of the probe-plus-bath amplitude generator."""

    def __init__(self, coupling_sq, frequencies, occupations, omega0: float):
        k = np.sqrt(np.asarray(coupling_sq, dtype=float))
        n = k.size
        h = np.zeros((n + 1, n + 1))
        h[0, 0] = omega0
        h[0, 1:] = h[1:, 0] = k
        h[1:, 1:] = np.diag(np.asarray(frequencies, dtype=float))
        self.omega0 = float(omega0)
        self.k = k
        self.occupations = np.asarray(occupations, dtype=float)
        self.lam, self.vec = np.linalg.eigh(h)

    def _phases(self, tau) -> np.ndarray:
        return np.exp(-1j * np.multiply.outer(np.asarray(tau, dtype=float),
                                              self.lam))

    def amplitudes(self, tau) -> np.ndarray:
        """U_0m(tau) for m = 0..N; shape tau.shape + (N+1,)."""
        return (self._phases(tau) * self.vec[0]) @ self.vec.T

    def g(self, tau) -> np.ndarray:
        """Exact response G(tau) (probe frame rotating at omega0)."""
        tau = np.asarray(tau, dtype=float)
        return (np.exp(1j * self.omega0 * tau)
                * (self._phases(tau) @ (self.vec[0] ** 2)))

    def n_b(self, tau) -> np.ndarray:
        """Bath-injected quadrature noise sum_n (N_n + 1/2) |U_0n(tau)|^2."""
        u = self.amplitudes(tau)[..., 1:]
        return np.abs(u) ** 2 @ (self.occupations + 0.5)

    def correlation(self, t, t_prime, probe_fluctuation: float) -> np.ndarray:
        """Symmetrized two-time correlation of the collective coupling.

        C(t, t') = sum_m beta_m(t) conj(beta_m(t')) occ_m with
        beta_m(t) = sum_n K_n U_nm(t); occ_0 is the probe's centered
        fluctuation and occ_n = N_n + 1/2 for the bath modes.
        """
        proj = self.k @ self.vec[1:]                       # sum_n K_n V_nk

        def beta(time):
            return (self._phases(time) * proj) @ self.vec.T

        occ = np.concatenate(([probe_fluctuation], self.occupations + 0.5))
        return (beta(t) * np.conj(beta(t_prime))) @ occ

    def displacement(self, force, t0: float, t1: float) -> complex:
        """omega0 int_{t0}^{t1} zeta(u) e^{i omega0 (u - t0)} G(t1 - u) du."""
        return complex(self.step_displacements(force, t0, t1 - t0, 1)[0])

    def step_displacements(self, force, start: float, tau: float,
                           steps: int) -> np.ndarray:
        """Displacements of the windows [start + k tau, start + (k+1) tau].

        With G written as a sum of eigen-exponentials the window integral
        factorises into int zeta(u) e^{i lam_j u} du, taken by panelled
        Gauss-Legendre on the force support inside each window.
        """
        edges = start + tau * np.arange(steps + 1)
        lo = np.maximum(edges[:-1], force.support[0])
        hi = np.minimum(edges[1:], force.support[1])
        span = np.maximum(hi - lo, 0.0)
        panels = max(1, int(np.ceil(tau / _PANEL)))
        # nodes: (steps, panels * 16) mapped onto [lo, hi] of each window
        a = np.linspace(0.0, 1.0, panels + 1)
        local = ((a[:-1, None] + 0.5 * (_GL_X[None, :] + 1.0) / panels)
                 .ravel())
        weights = np.tile(_GL_W, panels) * 0.5 / panels
        u = lo[:, None] + span[:, None] * local[None, :]
        zeta = np.asarray(force.value(u.ravel())).reshape(u.shape)
        # sum over nodes of zeta w e^{i lam (u - t_end)}: shape (steps, N+1)
        phase = np.exp(1j * (u - edges[1:, None])[..., None] * self.lam)
        integral = np.einsum("kn,knj->kj", zeta * weights * span[:, None],
                             phase)
        return (self.omega0 * np.exp(1j * self.omega0 * tau)
                * (integral @ (self.vec[0] ** 2)))
