"""Unfiltered diagonal two-time amplitude of each model tier, one builder for all.

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


# Each tier is a map of the input power p = P(0, tau); the closed forms are
# lossless, so literal_z (which matters only under loss) does not enter them.

def _linear_values(wg, p, literal_z):
    """Weak-pump amplitude i gamma P L: purely imaginary, no phase structure."""
    return 1j * wg.gamma * wg.length * p


def _simple_values(wg, p, literal_z):
    """Phase-matched amplitude: the linear tier times exp(3i gamma P L); any
    phase mismatch on the waveguide is treated as zero."""
    phase = wg.gamma * wg.length * p
    return 1j * phase * np.exp(3j * phase)


def _sinc_values(wg, p, literal_z):
    """Amplitude with the phase-mismatch envelope:
    i gamma P L exp(i(3 gamma P L + dbeta0 L / 2)) sinc((dbeta0 - 2 gamma P) L / 2)."""
    gpl = wg.gamma * wg.length * p
    half_mismatch = (wg.delta_beta0 - 2.0 * wg.gamma * p) * wg.length / 2.0
    # np.sinc is normalized: this is the unnormalized sin(x)/x with sinc(0) = 1
    return (1j * gpl
            * np.exp(1j * (3.0 * gpl + wg.delta_beta0 * wg.length / 2.0))
            * np.sinc(half_mismatch / np.pi))


@functools.cache
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order.

    The arrays are shared by every caller, so they are read-only.
    """
    nodes, weights = leggauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _mirror(v: np.ndarray) -> np.ndarray:
    """Extend samples 0 .. N/2 of a centred grid to all N: tau[N/2 + j] == -tau[N/2 - j]."""
    return np.concatenate([v, v[-2:0:-1]])


def _general_values(wg, p, literal_z):
    """Amplitude integrated over the waveguide by Gauss-Legendre quadrature,
    valid under loss and two-photon absorption. The integral is evaluated at
    ``QUADRATURE_ORDER`` and at twice that order and the latter returned.
    Estimates that are not finite, or a relative change above
    ``QUADRATURE_TOL`` between them, raise an AccuracyError carrying both."""
    p_col = p[:, None]
    prefactor = 1j * wg.gamma * np.exp(4j * nonlinear_phase(p, wg, wg.length))
    estimates = []
    for order in (QUADRATURE_ORDER, 2 * QUADRATURE_ORDER):
        nodes, weights = _gauss_legendre(order)
        z = (nodes + 1.0) * (wg.length / 2.0)
        wz = weights * (wg.length / 2.0)
        pz = propagate_power(p_col, wg, z, literal_z=literal_z)
        theta = nonlinear_phase(p_col, wg, z)
        integrand = pz * np.exp(1j * wg.delta_beta0 * z - 2j * theta)
        # the convergence check and the AccuracyError see full-grid estimates
        estimates.append(_mirror(prefactor * (integrand @ wz)))
    coarse, fine = estimates
    orders = f"orders {QUADRATURE_ORDER} and {2 * QUADRATURE_ORDER}"
    if not (np.all(np.isfinite(coarse)) and np.all(np.isfinite(fine))):
        raise AccuracyError(f"quadrature not finite: the estimates of {orders} "
                            "hold non-finite values", coarse=coarse, fine=fine)
    # both divided by the power of two at fine's largest component, which is
    # exact and keeps the norms from overflowing or underflowing
    peak = max(np.max(np.abs(fine.real)), np.max(np.abs(fine.imag)))
    scale = np.ldexp(1.0, np.frexp(peak)[1] - 1)
    norm = np.linalg.norm(fine / scale)
    change = np.linalg.norm(fine / scale - coarse / scale) / norm if norm != 0.0 else 0.0
    if change > QUADRATURE_TOL:
        raise AccuracyError(
            f"quadrature not converged: relative change {change:.3e} between "
            f"{orders} exceeds {QUADRATURE_TOL:.0e}",
            coarse=coarse, fine=fine)
    return fine[:len(p)]


_TIERS = {"linear": _linear_values, "sinc": _sinc_values,
          "simple_sxpm": _simple_values, "general_quadrature": _general_values}
MODEL_NAMES = tuple(_TIERS)


def lossless_violation(model: str, wg: Waveguide) -> str | None:
    """Why ``model`` cannot run on ``wg``: only general_quadrature admits loss."""
    if not wg.is_lossless and model != "general_quadrature":
        return "lossy medium requires general_quadrature"
    return None


def build_diagonal_jta(model: str, pulse: PumpPulse, wg: Waveguide,
                       grid: TemporalGrid, literal_z: bool = False) -> DiagonalJTA:
    """Evaluate a model tier on the N/2 + 1 distinct powers P(0, tau) of the
    centred grid and mirror the result onto the other half."""
    if model not in _TIERS:
        raise ConfigError(f"model: unknown model {model!r}")
    if (violation := lossless_violation(model, wg)) is not None:
        raise ModelCompatibilityError(violation)
    p0 = pump_power_profile(pulse, grid.tau[:grid.n_points // 2 + 1])
    return DiagonalJTA(grid, _mirror(_TIERS[model](wg, p0, literal_z)))

