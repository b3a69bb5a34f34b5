"""Unfiltered diagonal two-time amplitude builders, one per model tier.

The diagonal amplitude JTA(tau) carries the full two-argument semantics
JTA(tau_s, tau_i) = JTA(tau_s) * delta(tau_s - tau_i): the photons of a pair
are born at the same retarded time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import AccuracyError, ConfigError, ModelCompatibilityError
from .grids import TemporalGrid
from .pump import PumpPulse, Waveguide, nonlinear_phase, propagate_power, pump_power_profile

QUADRATURE_TOL = 1e-8
QUADRATURE_ORDER = 64

_LOSSY_MSG = "lossy medium requires general_quadrature"


@dataclass(frozen=True, eq=False)
class DiagonalJTA:
    """Complex diagonal amplitude sampled on a temporal grid."""

    grid: TemporalGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.n_points,):
            raise ConfigError("diagonal amplitude length does not match its grid")
        if not np.all(np.isfinite(v)):
            raise ConfigError("diagonal amplitude contains non-finite values")
        object.__setattr__(self, "values", v)

    @property
    def tau(self) -> np.ndarray:
        return self.grid.tau

    def edge_tail_ratio(self) -> float:
        """Largest edge magnitude relative to the peak (0 for a zero amplitude)."""
        mags = np.abs(self.values)
        peak = mags.max()
        if peak == 0.0:
            return 0.0
        return float(max(mags[0], mags[-1]) / peak)


def _sinc(x: np.ndarray) -> np.ndarray:
    # unnormalized sin(x)/x with sinc(0) = 1
    return np.sinc(x / np.pi)


def jta_linear(pulse: PumpPulse, wg: Waveguide, grid: TemporalGrid) -> DiagonalJTA:
    """Weak-pump amplitude i*gamma*P(0,tau)*L: purely imaginary, no phase structure."""
    p = pump_power_profile(pulse, grid.tau)
    return DiagonalJTA(grid, 1j * wg.gamma * wg.length * p)


def jta_simple(pulse: PumpPulse, wg: Waveguide, grid: TemporalGrid) -> DiagonalJTA:
    """Phase-matched lossless amplitude with the pump-induced phase factor.

    Same magnitude as the linear tier; each sample gains exp(3i gamma P L).
    Any phase mismatch on the waveguide is treated as zero here.
    """
    if not wg.is_lossless:
        raise ModelCompatibilityError(_LOSSY_MSG)
    p = pump_power_profile(pulse, grid.tau)
    phase = wg.gamma * wg.length * p
    return DiagonalJTA(grid, 1j * phase * np.exp(3j * phase))


def jta_sinc(pulse: PumpPulse, wg: Waveguide, grid: TemporalGrid) -> DiagonalJTA:
    """Lossless amplitude with explicit phase-mismatch envelope.

    i*gamma*P*L * exp(i(3 gamma P L + dbeta0 L / 2)) * sinc((dbeta0 - 2 gamma P) L / 2).
    """
    if not wg.is_lossless:
        raise ModelCompatibilityError(_LOSSY_MSG)
    p = pump_power_profile(pulse, grid.tau)
    gpl = wg.gamma * wg.length * p
    half_mismatch = (wg.delta_beta0 - 2.0 * wg.gamma * p) * wg.length / 2.0
    values = (1j * gpl
              * np.exp(1j * (3.0 * gpl + wg.delta_beta0 * wg.length / 2.0))
              * _sinc(half_mismatch))
    return DiagonalJTA(grid, values)


@functools.cache
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order.

    The arrays are shared by every caller, so they are read-only.
    """
    nodes, weights = leggauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _general_values(pulse, wg, tau, order, literal_z):
    nodes, weights = _gauss_legendre(order)
    z = (nodes + 1.0) * (wg.length / 2.0)
    wz = weights * (wg.length / 2.0)
    tau_col = tau[:, None]
    p = propagate_power(pulse, wg, z[None, :], tau_col, literal_z=literal_z)
    theta = nonlinear_phase(pulse, wg, z[None, :], tau_col)
    theta_end = nonlinear_phase(pulse, wg, wg.length, tau)
    integrand = p * np.exp(1j * wg.delta_beta0 * z[None, :] - 2j * theta)
    integral = integrand @ wz
    return 1j * wg.gamma * np.exp(4j * theta_end) * integral


def jta_general(pulse: PumpPulse, wg: Waveguide, grid: TemporalGrid,
                literal_z: bool = False) -> DiagonalJTA:
    """Amplitude from per-sample Gauss-Legendre integration over the waveguide.

    Valid for arbitrary loss/two-photon absorption. The integral is evaluated
    at ``QUADRATURE_ORDER`` and at twice that order; the doubled-order result
    is returned, and a relative change above 1e-8 between the two raises an
    AccuracyError carrying both estimates.
    """
    tau = grid.tau
    coarse = _general_values(pulse, wg, tau, QUADRATURE_ORDER, literal_z)
    fine = _general_values(pulse, wg, tau, 2 * QUADRATURE_ORDER, literal_z)
    norm = np.linalg.norm(fine)
    change = np.linalg.norm(fine - coarse) / norm if norm > 0.0 else 0.0
    if change > QUADRATURE_TOL:
        raise AccuracyError(
            f"quadrature not converged: relative change {change:.3e} between "
            f"orders {QUADRATURE_ORDER} and {2 * QUADRATURE_ORDER} exceeds "
            f"{QUADRATURE_TOL:.0e}",
            coarse=coarse, fine=fine)
    return DiagonalJTA(grid, fine)
