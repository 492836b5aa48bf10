"""Two-time bath correlation function.

The correlation of the collective bath coupling splits into a free (Born)
part, set entirely by the bare bath, and an interaction part carrying the
response derivative; the interaction part scales with the squared total
coupling and the decay time of the whole function matches the inverse
moment frequencies of the coupling spectrum. Windows are measured from
t0 = 0, the start of the solved response grid. Evaluation is at zero force
amplitude: the amplitude-dependent piece shifts only the mean of the
collective coupling and the correlation subtracts means. Both parts come
in closed form from the bath's modal propagator, with no time quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bath import DiscreteBath, bare_correlation
from .errors import retired
from .response import ResponseFunction


@dataclass(frozen=True)
class CorrelationResult:
    """Two-time correlation split into free and interaction parts."""

    total: complex
    born: complex
    interaction: complex


def bath_correlation(bath: DiscreteBath, response: ResponseFunction,
                     probe_fluctuation: float, t: float, t_prime: float,
                     omega0: float) -> CorrelationResult:
    """Correlation of the collective coupling between times t and t_prime.

    probe_fluctuation is the centered symmetric second moment of the
    initial probe, (<a adag + adag a>/2 - |<a>|^2); one half for any pure
    coherent or vacuum preparation. With beta(t) = (0, K)^T U(t) from the
    modal propagator, the total is sum_m beta_m(t) conj(beta_m(t')) occ_m,
    where occ_0 is the probe fluctuation and occ_n = N_n + 1/2. The Born
    part is e^{-i omega0 (t - t')} C0(t - t'); the interaction part is the
    rest. omega0 sets the frame of both, as the Born phase does.
    """
    response.require_coverage(max(t, t_prime))
    born = np.exp(-1j * omega0 * (t - t_prime)) * bare_correlation(bath, t - t_prime)
    couplings = np.concatenate(([0.0], np.sqrt(bath.coupling_sq)))
    beta, beta_prime = bath.propagate(couplings, [t, t_prime])
    occ = np.concatenate(([probe_fluctuation], bath.occupations + 0.5))
    frame = np.exp(-1j * (omega0 - bath.probe_frequency) * (t - t_prime))
    total = frame * ((beta * np.conj(beta_prime)) @ occ)
    return CorrelationResult(total=complex(total), born=complex(born),
                             interaction=complex(total - born))


_double_term = retired("_double_term")
equal_start_correlation = retired("equal_start_correlation")
