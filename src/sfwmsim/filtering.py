"""Spectral filters as time-domain kernels, overlap functions, and the
construction of the filtered two-time amplitude.

An unfiltered side (shape "none") enters the filtered amplitude as a
Dirac-delta kernel of weight sqrt(2 pi) rather than as a narrow sampled
Gaussian, so the exact single-sided results stay grid-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grids import SpectralGrid, TemporalGrid
from .jta import DiagonalJTA
from .pump import PumpPulse

FILTER_SHAPES = ("gaussian", "none")

# integral of the time kernel: sqrt(2)*sigma_f*exp(-sigma_f^2 tau^2) -> sqrt(2 pi) * delta
DELTA_KERNEL_WEIGHT = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class FilterSpec:
    """Field-amplitude filter: bandwidth parameter sigma_f (rad/ps) and shape.

    shape "none" encodes the unfiltered (infinite-bandwidth) limit; sigma_f is
    ignored for it.
    """

    sigma_f: float | None = None
    shape: str = "gaussian"

    def __post_init__(self):
        if self.shape not in FILTER_SHAPES:
            raise ConfigError(
                f"filter shape {self.shape!r} not one of {FILTER_SHAPES}")
        if self.shape == "gaussian":
            if self.sigma_f is None or not self.sigma_f > 0:
                raise ConfigError(
                    f"filter sigma_f must be positive for a gaussian filter, got {self.sigma_f!r}")

    @classmethod
    def unfiltered(cls) -> "FilterSpec":
        return cls(sigma_f=None, shape="none")

    @property
    def is_gaussian(self) -> bool:
        return self.shape == "gaussian"


@dataclass(frozen=True)
class FilterPair:
    """Signal and idler filters applied to the generated pair."""

    signal: FilterSpec
    idler: FilterSpec

    def ratios(self, pulse: PumpPulse) -> tuple[float, float]:
        """Pump-to-filter bandwidth ratios (lambda, mu); 0 encodes an unfiltered side."""
        lam = pulse.sigma_w / self.signal.sigma_f if self.signal.is_gaussian else 0.0
        mu = pulse.sigma_w / self.idler.sigma_f if self.idler.is_gaussian else 0.0
        return lam, mu


def gaussian_time_kernel(sigma_f: float, x):
    """Time-domain filter kernel sqrt(2) * sigma_f * exp(-sigma_f^2 x^2)."""
    x = np.asarray(x, dtype=float)
    return math.sqrt(2.0) * sigma_f * np.exp(-(sigma_f ** 2) * x ** 2)


def overlap(filt: FilterSpec, dT):
    """Self-overlap of a filter's time kernel at detection-time separation dT.

    Gaussian closed form sigma_f*sqrt(2 pi)*exp(-sigma_f^2 dT^2 / 4). An
    unfiltered side has no overlap function; callers use the single-sided
    closed forms instead.
    """
    if not filt.is_gaussian:
        raise ConfigError("overlap is defined for gaussian filters only")
    dT = np.asarray(dT, dtype=float)
    s = filt.sigma_f
    return s * math.sqrt(2.0 * math.pi) * np.exp(-(s ** 2) * dT ** 2 / 4.0)


@dataclass(frozen=True, eq=False)
class JointAmplitudeMatrix:
    """Dense two-coordinate amplitude, in time or frequency domain.

    Rows run over the signal coordinate, columns over the idler coordinate,
    both sampled on ``grid``, whose type fixes the domain.
    """

    grid: TemporalGrid | SpectralGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim != 2:
            raise ConfigError("joint amplitude must be a 2-D matrix")
        if v.shape != (self.grid.n_points,) * 2:
            raise ConfigError("joint amplitude shape does not match its grids")
        if not np.all(np.isfinite(v)):
            raise ConfigError("joint amplitude contains non-finite entries")
        object.__setattr__(self, "values", v)

    @property
    def domain_tag(self) -> str:
        """Derived from the grid: "frequency" on a spectral grid, else "time"."""
        return "frequency" if isinstance(self.grid, SpectralGrid) else "time"


def filtered_jta(diag: DiagonalJTA, filters: FilterPair) -> JointAmplitudeMatrix:
    """Two-time amplitude after filtering, by diagonal convolution.

    With both filters gaussian each output point is
    (1/2pi) * integral JTA(u) f_s(tau_s - u) f_i(tau_i - u) du, discretized
    with the trapezoid rule on the diagonal's grid, which is also the output
    grid. With exactly one side unfiltered the delta kernel collapses the
    convolution and broadening occurs along the filtered axis only.
    """
    sig, idl = filters.signal, filters.idler
    if not (sig.is_gaussian or idl.is_gaussian):
        raise ConfigError(
            "both filters are unfiltered: the two-time amplitude is a pure delta "
            "ridge; use the single-sided metric operations instead")
    grid = diag.grid
    tau = grid.tau
    # the kernels are even in tau_out - u, so one orientation serves both axes,
    # and each is exactly symmetric: tau_j - tau_k = -(tau_k - tau_j) in floating point
    kernels = [gaussian_time_kernel(f.sigma_f, tau[:, None] - tau[None, :])
               for f in (sig, idl) if f.is_gaussian]
    if len(kernels) == 2:
        a, b = kernels
        values = (a * (grid.trapezoid_weights * diag.values)[None, :]) @ b.T / (2.0 * math.pi)
    else:
        # the unfiltered side stays pinned to the generation time: one delta
        # survives; an unfiltered signal is the mirror image, the transpose
        values = diag.values[None, :] * kernels[0] * (DELTA_KERNEL_WEIGHT / (2.0 * math.pi))
        values = values if sig.is_gaussian else np.ascontiguousarray(values.T)
    return JointAmplitudeMatrix(grid, values)
