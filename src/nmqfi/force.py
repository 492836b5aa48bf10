"""Known time profiles of the sensed force.

A modulation is a scalar profile zeta(t) with a hard support window
[t_i, t_f]; outside the window the profile and its derivative are zero.
All profiles are immutable and evaluate on scalars or arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class ForceModulation:
    """Base class; concrete kinds override the inside-support evaluations."""

    support: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.support
        if not hi >= lo:
            raise ValueError("support must satisfy t_i <= t_f")
        object.__setattr__(self, "support", (float(lo), float(hi)))

    def _value_inside(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _derivative_inside(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _masked(self, t, inner) -> ArrayLike:
        arr = np.atleast_1d(np.asarray(t, dtype=float))
        lo, hi = self.support
        mask = (arr >= lo) & (arr <= hi)
        out = np.where(mask, inner(arr), 0.0)
        return float(out[0]) if np.ndim(t) == 0 else out

    def value(self, t) -> ArrayLike:
        """zeta(t), zero outside the support window."""
        return self._masked(t, self._value_inside)

    def derivative(self, t) -> ArrayLike:
        """d zeta/dt taken inside the support (zero outside)."""
        return self._masked(t, self._derivative_inside)

    def _knots(self) -> tuple[float, ...]:
        """Support ends and the kinks between them, increasing."""
        return self.support

    def pieces(self, t0, t1) -> list[tuple[ArrayLike, ArrayLike]]:
        """The window [t0, t1] inside the support, cut at every kink.

        One (lo, hi) pair, clamped into [t0, t1] elementwise, per interval
        between knots; zeta is smooth on each, so a quadrature over each
        converges at its smooth rate. An empty piece has hi <= lo.
        """
        knots = self._knots()
        return [(np.clip(a, t0, t1), np.clip(b, t0, t1))
                for a, b in zip(knots, knots[1:])]


@dataclass(frozen=True)
class ConstantForce(ForceModulation):
    amplitude: float = 1.0

    def _value_inside(self, t):
        return np.full_like(t, self.amplitude)

    def _derivative_inside(self, t):
        return np.zeros_like(t)


@dataclass(frozen=True)
class SinusoidForce(ForceModulation):
    """amplitude * sin(angular_frequency * t + phase)."""

    amplitude: float = 1.0
    angular_frequency: float = 1.0
    phase: float = 0.0

    def _value_inside(self, t):
        return self.amplitude * np.sin(self.angular_frequency * t + self.phase)

    def _derivative_inside(self, t):
        return (self.amplitude * self.angular_frequency
                * np.cos(self.angular_frequency * t + self.phase))


@dataclass(frozen=True)
class GaussianPulseForce(ForceModulation):
    """Unit-peak Gaussian pulse exp(-(t - center)^2 / (2 width^2))."""

    center: float = 0.0
    width: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if self.width <= 0:
            raise ValueError("width must be > 0")

    def _value_inside(self, t):
        x = (t - self.center) / self.width
        return np.exp(-0.5 * x * x)

    def _derivative_inside(self, t):
        x = (t - self.center) / self.width
        return -x / self.width * np.exp(-0.5 * x * x)


@dataclass(frozen=True)
class TabulatedForce(ForceModulation):
    """Piecewise-linear profile through (times, values) samples.

    The derivative is the segment secant; at interior nodes the right
    segment's slope is used. Support defaults to the sample range.
    """

    times: tuple[float, ...] = ()
    values: tuple[float, ...] = ()

    def __post_init__(self):
        super().__post_init__()
        times = tuple(float(t) for t in self.times)
        values = tuple(float(v) for v in self.values)
        if len(times) < 2 or len(times) != len(values):
            raise ValueError("table needs matching times/values with >= 2 samples")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("table times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_samples(cls, times, values) -> "TabulatedForce":
        times = tuple(float(t) for t in times)
        return cls(support=(times[0], times[-1]), times=times, values=values)

    def _knots(self):
        lo, hi = self.support
        return (lo, *(t for t in self.times if lo < t < hi), hi)

    def _value_inside(self, t):
        return np.interp(t, self.times, self.values)

    def _derivative_inside(self, t):
        ts = np.asarray(self.times)
        vs = np.asarray(self.values)
        slopes = np.diff(vs) / np.diff(ts)
        seg = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, slopes.size - 1)
        return slopes[seg]


def constant(amplitude: float = 1.0, support: tuple[float, float] = (0.0, np.inf)) -> ConstantForce:
    return ConstantForce(support=support, amplitude=amplitude)


def sinusoid(amplitude: float, angular_frequency: float, phase: float = 0.0,
             support: tuple[float, float] = (0.0, np.inf)) -> SinusoidForce:
    return SinusoidForce(support=support, amplitude=amplitude,
                         angular_frequency=angular_frequency, phase=phase)


def gaussian_pulse(center: float, width: float,
                   support: tuple[float, float]) -> GaussianPulseForce:
    return GaussianPulseForce(support=support, center=center, width=width)
