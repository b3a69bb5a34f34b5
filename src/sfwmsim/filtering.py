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

from .errors import ConfigError, ModelCompatibilityError
from .grids import SpectralGrid, TemporalGrid
from .jta import DiagonalJTA, lossless_violation
from .pump import PumpPulse, Waveguide

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

    Rows run over the signal coordinate, columns over the idler coordinate.
    Both grids are of one type, which fixes the domain.
    """

    grid_s: TemporalGrid | SpectralGrid
    grid_i: TemporalGrid | SpectralGrid
    values: np.ndarray

    def __post_init__(self):
        if type(self.grid_s) is not type(self.grid_i):
            raise ConfigError("joint amplitude grids must be of one type")
        v = np.asarray(self.values, dtype=complex)
        if v.ndim != 2:
            raise ConfigError("joint amplitude must be a 2-D matrix")
        if v.shape != (self.grid_s.n_points, self.grid_i.n_points):
            raise ConfigError("joint amplitude shape does not match its grids")
        if not np.all(np.isfinite(v)):
            raise ConfigError("joint amplitude contains non-finite entries")
        object.__setattr__(self, "values", v)

    @property
    def domain_tag(self) -> str:
        """Derived from the grids: "frequency" on spectral grids, else "time"."""
        return "frequency" if isinstance(self.grid_s, SpectralGrid) else "time"


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
    # the kernels are even in tau_out - u, so one orientation serves both axes
    a, b = (gaussian_time_kernel(f.sigma_f, tau[:, None] - tau[None, :])
            if f.is_gaussian else None for f in (sig, idl))
    if a is not None and b is not None:
        values = (a * (grid.trapezoid_weights * diag.values)[None, :]) @ b.T / (2.0 * math.pi)
    elif a is not None:
        # idler stays pinned to the generation time: one delta survives
        values = diag.values[None, :] * a * (DELTA_KERNEL_WEIGHT / (2.0 * math.pi))
    else:
        values = diag.values[:, None] * b * (DELTA_KERNEL_WEIGHT / (2.0 * math.pi))
    return JointAmplitudeMatrix(grid, grid, values)


def _gaussian_ratios_or_raise(pulse: PumpPulse, filters: FilterPair) -> tuple[float, float]:
    lam, mu = filters.ratios(pulse)
    if lam == 0.0 or mu == 0.0:
        raise ConfigError(
            "closed forms require gaussian filters on both sides (the "
            "unfiltered limit has a divergent prefactor)")
    return lam, mu


def filtered_jta_linear_gaussian(pulse: PumpPulse, wg: Waveguide, filters: FilterPair,
                                 out_grid: TemporalGrid) -> JointAmplitudeMatrix:
    """Closed-form filtered amplitude for the weak-pump (linear) tier."""
    lam, mu = _gaussian_ratios_or_raise(pulse, filters)
    sw = pulse.sigma_w
    phi = wg.gamma * wg.length * pulse.P0
    ts = out_grid.tau[:, None]
    ti = out_grid.tau[None, :]
    d0 = 2.0 * lam ** 2 * mu ** 2 + lam ** 2 + mu ** 2
    pref = 1j * phi / math.sqrt(math.pi) * sw / math.sqrt(d0)
    values = pref * np.exp(
        -sw ** 2 * (2.0 * (lam ** 2 * ti ** 2 + mu ** 2 * ts ** 2) + (ts - ti) ** 2) / d0)
    return JointAmplitudeMatrix(out_grid, out_grid, values)


@dataclass(frozen=True, eq=False)
class SeriesResult:
    """Filtered amplitude built term-by-term, with truncation bookkeeping."""

    matrix: JointAmplitudeMatrix
    n_terms: int
    residual_bound: float


def filtered_jta_gaussian_series(pulse: PumpPulse, wg: Waveguide, filters: FilterPair,
                                 out_grid: TemporalGrid, tol: float = 1e-12) -> SeriesResult:
    """Filtered amplitude of the phase-modulated tier as a Gaussian series.

    Expands exp(3i gamma P L) and filters each Gaussian term in closed form.
    Terms are added while the dimensionless bound (3 phi_max)^n / n! is at
    least ``tol``; the returned residual bound is the summed tail of that
    bound past the truncation point.
    """
    if not tol > 0:
        raise ConfigError(f"series tolerance must be positive, got {tol!r}")
    if (violation := lossless_violation("simple_sxpm", wg)) is not None:
        raise ModelCompatibilityError(violation)
    lam, mu = _gaussian_ratios_or_raise(pulse, filters)
    sw = pulse.sigma_w
    phi = wg.gamma * wg.length * pulse.P0
    ts = out_grid.tau[:, None]
    ti = out_grid.tau[None, :]
    sep_sq = (ts - ti) ** 2
    mix = lam ** 2 * ti ** 2 + mu ** 2 * ts ** 2

    values = np.zeros((out_grid.n_points, out_grid.n_points), dtype=complex)
    bound = 1.0  # (3 phi)^n / n! at n = 0
    coef = 1j * phi / math.sqrt(math.pi) * sw  # shared scalar prefactor
    term_weight = 1.0 + 0.0j  # (3i phi)^n / n!
    n = 0
    while bound >= tol and n < 1000:
        dn = 2.0 * (1 + n) * lam ** 2 * mu ** 2 + lam ** 2 + mu ** 2
        values += (coef * term_weight / math.sqrt(dn)) * np.exp(
            -sw ** 2 * (2.0 * (1 + n) * mix + sep_sq) / dn)
        n += 1
        term_weight *= 3j * phi / n
        bound *= 3.0 * phi / n

    residual = 0.0
    tail = bound
    k = n
    while tail > residual * 1e-16 and k < n + 400:
        residual += tail
        k += 1
        tail *= 3.0 * phi / k
        if tail == 0.0:
            break

    matrix = JointAmplitudeMatrix(out_grid, out_grid, values)
    return SeriesResult(matrix=matrix, n_terms=n, residual_bound=residual)
