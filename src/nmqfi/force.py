"""Known time profiles of the sensed force.

A modulation is a scalar profile zeta(t) with a hard support window
[t_i, t_f]; outside the window the profile is zero. All profiles are
immutable and evaluate on scalars or arrays; each kind also integrates
zeta^2 and zeta'^2 over a window in closed form.
"""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np

from .errors import Frozen

ArrayLike = Union[float, np.ndarray]


class ForceModulation(Frozen):
    """Base class; each kind gives zeta inside its support and the square
    integrals of one smooth piece."""

    def __init__(self, support: tuple[float, float]):
        lo, hi = support
        if not hi >= lo:
            raise ValueError("support must satisfy t_i <= t_f")
        vars(self).update(support=(float(lo), float(hi)))

    def _value_inside(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _squares(self, lo: float, hi: float) -> tuple[float, float]:
        """(int zeta^2, int zeta'^2) over one nonempty smooth piece."""
        raise NotImplementedError

    def value(self, t) -> ArrayLike:
        """zeta(t), zero outside the support window."""
        arr = np.atleast_1d(np.asarray(t, dtype=float))
        lo, hi = self.support
        out = np.where((arr >= lo) & (arr <= hi), self._value_inside(arr), 0.0)
        return float(out[0]) if np.ndim(t) == 0 else out

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

    def square_integrals(self, t0: float, t1: float) -> tuple[float, float]:
        """(int zeta^2, int zeta'^2) over the window [t0, t1], exactly.

        One closed form per smooth piece of the window, summed; an empty
        window gives zeros. An integral too large for a float raises
        OverflowError naming the force amplitude.
        """
        z2 = dz2 = 0.0
        for lo, hi in self.pieces(t0, t1):
            if hi > lo:
                try:
                    a, b = self._squares(float(lo), float(hi))
                    z2, dz2 = z2 + a, dz2 + b
                    if not math.isfinite(z2 + dz2):
                        raise OverflowError("inf")
                except OverflowError as exc:
                    raise OverflowError(
                        f"force amplitude too large: the integral of zeta^2 "
                        f"or zeta'^2 overflows on [{float(lo)!r}, "
                        f"{float(hi)!r}]") from exc
        return z2, dz2


class ConstantForce(ForceModulation):
    def __init__(self, amplitude: float = 1.0,
                 support: tuple[float, float] = (0.0, np.inf)):
        super().__init__(support)
        vars(self).update(amplitude=amplitude)

    def _value_inside(self, t):
        return np.full_like(t, self.amplitude)

    def _squares(self, lo, hi):
        return self.amplitude ** 2 * (hi - lo), 0.0


class SinusoidForce(ForceModulation):
    """amplitude * sin(angular_frequency * t + phase)."""

    def __init__(self, amplitude: float = 1.0, angular_frequency: float = 1.0,
                 phase: float = 0.0,
                 support: tuple[float, float] = (0.0, np.inf)):
        super().__init__(support)
        vars(self).update(amplitude=amplitude,
                          angular_frequency=angular_frequency, phase=phase)

    def _value_inside(self, t):
        return self.amplitude * np.sin(self.angular_frequency * t + self.phase)

    def _squares(self, lo, hi):
        # sin^2 and cos^2 of Omega t + phi integrate to L/2 -/+ swing with
        # swing = cos(Omega (lo + hi) + 2 phi) sin(Omega L) / (2 Omega),
        # written through sinc so that Omega = 0 needs no division
        w, half = self.angular_frequency, 0.5 * (hi - lo)
        swing = (math.cos(w * (lo + hi) + 2.0 * self.phase) * half
                 * float(np.sinc(w * (hi - lo) / np.pi)))
        a2 = self.amplitude ** 2
        return a2 * (half - swing), a2 * w * w * (half + swing)


class GaussianPulseForce(ForceModulation):
    """Unit-peak Gaussian pulse exp(-(t - center)^2 / (2 width^2))."""

    def __init__(self, center: float, width: float,
                 support: tuple[float, float] = (0.0, np.inf)):
        super().__init__(support)
        if width <= 0:
            raise ValueError("width must be > 0")
        vars(self).update(center=center, width=width)

    def _value_inside(self, t):
        # a node past 1e154 widths from the center squares to inf: exp gives 0
        with np.errstate(over="ignore"):
            x = (t - self.center) / self.width
            return np.exp(-0.5 * x * x)

    def _squares(self, lo, hi):
        # with x = (t - center) / width: int e^{-x^2} dx is the erf mass
        # below and int x^2 e^{-x^2} dx = mass / 2 - [x e^{-x^2}] / 2
        a, b = ((t - self.center) / self.width for t in (lo, hi))
        mass = 0.5 * math.sqrt(math.pi) * _erf_gap(a, b)
        edge = 0.5 * (a * math.exp(-a * a) - b * math.exp(-b * b))
        return self.width * mass, (0.5 * mass + edge) / self.width


def _erf_gap(a: float, b: float) -> float:
    """erf(b) - erf(a) for a <= b.

    A window on one side of zero is an erfc difference, which keeps its
    digits in the far tail, where both erf values round to +-1.
    """
    if a >= 0.0:
        return math.erfc(a) - math.erfc(b)
    if b <= 0.0:
        return math.erfc(-b) - math.erfc(-a)
    return math.erf(b) - math.erf(a)


class TabulatedForce(ForceModulation):
    """Piecewise-linear profile through (times, values) samples.

    Each sample time inside the support is a knot of pieces; outside the
    sample range the end values hold. Support defaults to the sample range.
    """

    def __init__(self, times: tuple[float, ...], values: tuple[float, ...],
                 support: Optional[tuple[float, float]] = None):
        times = tuple(float(t) for t in times)
        super().__init__(support or (times[0], times[-1]))
        values = tuple(float(v) for v in values)
        if len(times) < 2 or len(times) != len(values):
            raise ValueError("table needs matching times/values with >= 2 samples")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("table times must be strictly increasing")
        with np.errstate(over="ignore", invalid="ignore"):   # refused below
            slopes = np.diff(values) / np.diff(times)
        if not np.isfinite(slopes).all():
            raise ValueError("a table slope between samples overflows")
        vars(self).update(times=times, values=values)

    def _knots(self):
        lo, hi = self.support
        return (lo, *(t for t in self.times if lo < t < hi), hi)

    def _value_inside(self, t):
        return np.interp(t, self.times, self.values)

    def _squares(self, lo, hi):
        # a piece is one linear segment from a to b
        a, b = np.interp((lo, hi), self.times, self.values).tolist()
        return (hi - lo) * (a * a + a * b + b * b) / 3.0, (b - a) ** 2 / (hi - lo)
