"""Unfiltered diagonal two-time amplitude of each model tier, one builder for all.

The diagonal amplitude JTA(tau) carries the full two-argument semantics
JTA(tau_s, tau_i) = JTA(tau_s) * delta(tau_s - tau_i): the photons of a pair
are born at the same retarded time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev
from numpy.polynomial.legendre import leggauss

from .errors import AccuracyError, ConfigError, ModelCompatibilityError
from .grids import TemporalGrid
from .pump import PumpPulse, Waveguide, nonlinear_phase, propagate_power, pump_power_profile

QUADRATURE_TOL = 1e-8
QUADRATURE_ORDER = 64
# general_quadrature interpolates F(p)/p: the first number of Chebyshev powers,
# and the level, relative to the largest coefficient, below which a coefficient
# is round-off (2e-16 to 2e-15 for the 128-node estimates at m = 33)
CHEBYSHEV_POINTS = 33
CHOP_TOL = 2.0 ** -49


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


def _estimates(wg, p, literal_z):
    """The amplitude at the powers ``p``, integrated over the waveguide by
    Gauss-Legendre quadrature at ``QUADRATURE_ORDER`` and at twice that order."""
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
        estimates.append(prefactor * (integrand @ wz))
    return estimates


def _quadrature_failure(coarse, fine) -> str | None:
    """Why two quadrature estimates cannot be trusted: a value that is not
    finite, or a relative change above ``QUADRATURE_TOL`` between them.

    A peak below 2**-1023 is not checked for a change: the power of two at it
    has no finite reciprocal, the subnormal estimates hold too few bits for a
    relative change, and the eta of such an amplitude underflows to zero."""
    orders = f"orders {QUADRATURE_ORDER} and {2 * QUADRATURE_ORDER}"
    if not (np.all(np.isfinite(coarse)) and np.all(np.isfinite(fine))):
        return f"quadrature not finite: the estimates of {orders} hold non-finite values"
    peak = max(np.max(np.abs(fine.real)), np.max(np.abs(fine.imag)))
    if peak < 2.0 ** -1023:
        return None
    # both divided by the power of two at fine's largest component, which is
    # exact and keeps the norms from overflowing or underflowing
    scale = np.ldexp(1.0, np.frexp(peak)[1] - 1)
    scaled = fine / scale
    change = np.linalg.norm(scaled - coarse / scale) / np.linalg.norm(scaled)
    if change > QUADRATURE_TOL:
        return (f"quadrature not converged: relative change {change:.3e} between "
                f"{orders} exceeds {QUADRATURE_TOL:.0e}")
    return None


@functools.cache
def _chebyshev_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m first-kind Chebyshev points on (-1, 1), increasing, and the
    matrix that takes values there to the coefficients of the interpolant
    (discrete orthogonality of T_0 .. T_(m-1)); read-only, as they are shared."""
    x = chebyshev.chebpts1(m)
    # T_k(x_j) = cos(k (2i + 1) pi / 2m), i = m - 1 - j, from the exact integer
    # angle: the three-term recurrence loses k ulps near x = +-1
    odd = 2 * np.arange(m - 1, -1, -1) + 1
    to_coeffs = np.cos(np.outer(np.arange(m), odd) % (4 * m) * (np.pi / (2 * m))) * (2.0 / m)
    to_coeffs[0] /= 2.0
    x.flags.writeable = False
    to_coeffs.flags.writeable = False
    return x, to_coeffs


def _chop(coeffs) -> int:
    """How many leading Chebyshev coefficients to keep: one past the last
    above ``CHOP_TOL`` times the largest, when at least a quarter of them
    lie beyond it; otherwise ``len(coeffs)``, as the series has not shown
    that it reached round-off (after Aurentz & Trefethen 2017, ACM TOMS 43:33)."""
    mags = np.abs(coeffs)
    large = np.flatnonzero(mags > CHOP_TOL * mags.max())
    cut = large[-1] + 1 if large.size else 1
    return cut if len(coeffs) - cut >= len(coeffs) // 4 else len(coeffs)


def _general_values(wg, p, literal_z):
    """Amplitude integrated over the waveguide by Gauss-Legendre quadrature,
    valid under loss and two-photon absorption.

    F(p) = p G(p) with G smooth on [0, P0], P0 the largest power. Both
    estimates are taken at m first-kind Chebyshev powers on (0, P0], m from
    ``CHEBYSHEV_POINTS`` doubling until the coefficients of G from the finer
    estimate chop; the values are p times the chopped series. When m reaches
    the number of distinct powers in ``p``, the lowest Chebyshev power is
    subnormal (P0 = 0 included), or the estimates there fail their check, the
    estimates are taken at ``p`` itself and the finer one returned. Estimates that are not finite, or a relative change
    above ``QUADRATURE_TOL`` between them, raise an AccuracyError carrying
    both, mirrored onto the full grid."""
    p_max = np.max(p)
    distinct = np.unique(p).size
    m = CHEBYSHEV_POINTS
    while p_max > 0.0 and m < distinct:
        x, to_coeffs = _chebyshev_rule(m)
        nodes = (x + 1.0) * (p_max / 2.0)
        if nodes[0] < np.finfo(float).tiny:  # a subnormal power: F/p is not resolved
            break
        coarse, fine = _estimates(wg, nodes, literal_z)
        if _quadrature_failure(coarse, fine) is not None:
            break
        coeffs = to_coeffs @ (fine / nodes)
        if (cut := _chop(coeffs)) < m:
            return p * chebyshev.chebval(p / p_max * 2.0 - 1.0, coeffs[:cut])
        m *= 2
    # the check and the AccuracyError see full-grid estimates
    coarse, fine = (_mirror(e) for e in _estimates(wg, p, literal_z))
    if (failure := _quadrature_failure(coarse, fine)) is not None:
        raise AccuracyError(failure, coarse=coarse, fine=fine)
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

