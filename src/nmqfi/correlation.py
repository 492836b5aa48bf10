"""Two-time bath correlation function.

The correlation of the collective bath coupling splits into a free (Born)
part, set entirely by the bare bath, and an interaction part carrying the
response derivative; the interaction part scales with the squared total
coupling and the decay time of the whole function matches the inverse
moment frequencies of the coupling spectrum. Windows are measured from
t0 = 0, the start of the solved response grid. Evaluation is at zero force
amplitude: the amplitude-dependent piece shifts only the mean of the
collective coupling and the correlation subtracts means. Both parts come
from the bath's modal propagator, exact at any time: no quadrature and no
response sample.
"""

from __future__ import annotations

from typing import NamedTuple, Union

import numpy as np

from .bath import bare_correlation
from .errors import retired
from .response import ResponseFunction


class CorrelationResult(NamedTuple):
    """Two-time correlation split into free and interaction parts:
    complex numbers for one time t, arrays shaped like an array t."""

    total: Union[complex, np.ndarray]
    born: Union[complex, np.ndarray]
    interaction: Union[complex, np.ndarray]


def bath_correlation(response: ResponseFunction, probe_fluctuation: float,
                     t, t_prime: float) -> CorrelationResult:
    """Correlation of the collective coupling between times t and t_prime.

    probe_fluctuation is the centered symmetric second moment of the
    initial probe, (<a adag + adag a>/2 - |<a>|^2); one half for any pure
    coherent or vacuum preparation. With beta(t) = (0, K)^T U(t) from the
    modal propagator, the total is sum_m beta_m(t) conj(beta_m(t')) occ_m,
    where occ_0 is the probe fluctuation and occ_n = N_n + 1/2, for the
    response's bath. The Born part is e^{-i omega0 (t - t')} C0(t - t')
    at the bath's probe frequency omega0; the interaction part is the rest.
    An array t gives every time from one propagate call over all of t and
    t_prime, and one bare_correlation call.
    """
    t = np.asarray(t, dtype=float)
    bath = response.bath
    born = (np.exp(-1j * bath.probe_frequency * (t - t_prime))
            * bare_correlation(bath, t - t_prime))
    couplings = np.concatenate(([0.0], np.sqrt(bath.coupling_sq)))
    beta = bath.propagate(couplings, np.append(t, t_prime))
    occ = np.concatenate(([probe_fluctuation], bath.occupations + 0.5))
    total = ((beta[:-1] * np.conj(beta[-1])) @ occ).reshape(t.shape)
    return CorrelationResult(*(v if t.ndim else complex(v)
                               for v in (total, born, total - born)))


_double_term = retired("_double_term")
equal_start_correlation = retired("equal_start_correlation")
