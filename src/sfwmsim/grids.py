"""Uniform, centred sampling grids: time (ps) and detuning (rad/ps).

Every grid is power-of-two sized and has its zero sample at index n/2, so
the time/frequency bridge is an exact unitary DFT pairing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError

DEFAULT_N_POINTS = 512
DEFAULT_SPAN_SIGMAS = 8.0


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _check_uniform(n_points, step, size_error: str, step_error: str) -> None:
    """Both grid types need a power-of-two size of at least 8 and a positive step."""
    if not (isinstance(n_points, (int, np.integer)) and n_points >= 8
            and is_power_of_two(int(n_points))):
        raise ConfigError(size_error)
    if not step > 0:
        raise ConfigError(step_error)


def _trapezoid_weights(n_points: int, step: float) -> np.ndarray:
    w = np.full(n_points, step)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


@dataclass(frozen=True)
class TemporalGrid:
    """Uniform time grid (ps), symmetric about the origin."""

    n_points: int
    dt: float

    def __post_init__(self):
        _check_uniform(self.n_points, self.dt,
                       f"grid.n_points: {self.n_points!r} is not a power of two >= 8",
                       f"grid.dt: nonpositive step {self.dt!r}")

    @property
    def tau(self) -> np.ndarray:
        """Sample times, index k at (k - n/2)*dt."""
        return (np.arange(self.n_points) - self.n_points // 2) * self.dt

    @property
    def trapezoid_weights(self) -> np.ndarray:
        return _trapezoid_weights(self.n_points, self.dt)

    @property
    def half_width(self) -> float:
        return (self.n_points // 2) * self.dt


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform detuning grid (rad/ps), conjugate to a TemporalGrid."""

    n_points: int
    d_omega: float

    def __post_init__(self):
        _check_uniform(self.n_points, self.d_omega,
                       f"spectral grid n_points {self.n_points!r} is not a power of two >= 8",
                       f"spectral grid d_omega {self.d_omega!r} must be positive")

    @property
    def omega(self) -> np.ndarray:
        return (np.arange(self.n_points) - self.n_points // 2) * self.d_omega

    @property
    def trapezoid_weights(self) -> np.ndarray:
        return _trapezoid_weights(self.n_points, self.d_omega)

    @classmethod
    def conjugate_to(cls, grid: TemporalGrid) -> "SpectralGrid":
        """Grid satisfying d_omega * dt * n = 2 pi."""
        return cls(n_points=grid.n_points,
                   d_omega=2.0 * math.pi / (grid.n_points * grid.dt))


def _check_grid_size(span_sigmas: float, n_points: int) -> None:
    """The checks of a grid's span and size, which need no pulse."""
    if not math.isfinite(span_sigmas):
        raise ConfigError(f"grid.span_sigmas: expected a finite number, got {span_sigmas!r}")
    if not span_sigmas >= 6:
        raise ConfigError(f"grid.span_sigmas: {span_sigmas!r} is below the minimum 6")
    if not (isinstance(n_points, (int, np.integer)) and n_points >= 64
            and is_power_of_two(int(n_points))):
        raise ConfigError(
            f"grid.n_points: {n_points!r} is not a power of two >= 64")


def build_temporal_grid(pulse, filters: Sequence = (),
                        span_sigmas: float = DEFAULT_SPAN_SIGMAS,
                        n_points: int = DEFAULT_N_POINTS) -> TemporalGrid:
    """Size a grid from the slowest feature among the pump and filter kernels.

    The effective width is the larger of the pulse width and the broadest
    filter time kernel (1/sigma_f); the grid spans +-span_sigmas of it.
    """
    _check_grid_size(span_sigmas, n_points)
    sigma_eff = float(pulse.sigma_t)
    for f in filters:
        if f is not None and getattr(f, "shape", None) == "gaussian":
            sigma_eff = max(sigma_eff, 1.0 / f.sigma_f)
    dt = span_sigmas * sigma_eff * 2.0 / n_points
    return TemporalGrid(n_points=int(n_points), dt=dt)
