"""Uniform, center-origin sampling grids for the time-domain machinery.

All grids are power-of-two sized so the time/frequency bridge is an exact
unitary DFT pairing.
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


@dataclass(frozen=True)
class TemporalGrid:
    """Uniform time grid (ps), symmetric about ``center``."""

    n_points: int
    dt: float
    center: float = 0.0

    def __post_init__(self):
        if not (isinstance(self.n_points, (int, np.integer)) and self.n_points >= 8
                and is_power_of_two(int(self.n_points))):
            raise ConfigError(
                f"grid.n_points: {self.n_points!r} is not a power of two >= 8")
        if not self.dt > 0:
            raise ConfigError(f"grid.dt: nonpositive step {self.dt!r}")

    @property
    def tau(self) -> np.ndarray:
        """Sample times, index k at (k - n/2)*dt + center."""
        return (np.arange(self.n_points) - self.n_points // 2) * self.dt + self.center

    @property
    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.n_points, self.dt)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    @property
    def half_width(self) -> float:
        return (self.n_points // 2) * self.dt

    def time_at(self, index: int) -> float:
        return (index - self.n_points // 2) * self.dt + self.center

    def index_of(self, time: float) -> int:
        return int(round((time - self.center) / self.dt)) + self.n_points // 2


def build_temporal_grid(pulse, filters: Sequence = (),
                        span_sigmas: float = DEFAULT_SPAN_SIGMAS,
                        n_points: int = DEFAULT_N_POINTS) -> TemporalGrid:
    """Size a grid from the slowest feature among the pump and filter kernels.

    The effective width is the larger of the pulse width and the broadest
    filter time kernel (1/sigma_f); the grid spans +-span_sigmas of it.
    """
    if not math.isfinite(span_sigmas):
        raise ConfigError(f"grid.span_sigmas: expected a finite number, got {span_sigmas!r}")
    if not span_sigmas >= 6:
        raise ConfigError(f"grid.span_sigmas: {span_sigmas!r} is below the minimum 6")
    if not (isinstance(n_points, (int, np.integer)) and n_points >= 64
            and is_power_of_two(int(n_points))):
        raise ConfigError(
            f"grid.n_points: {n_points!r} is not a power of two >= 64")

    sigma_eff = float(pulse.sigma_t)
    for f in filters:
        if f is not None and getattr(f, "shape", None) == "gaussian":
            sigma_eff = max(sigma_eff, 1.0 / f.sigma_f)
    dt = span_sigmas * sigma_eff * 2.0 / n_points
    return TemporalGrid(n_points=int(n_points), dt=dt)
