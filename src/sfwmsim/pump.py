"""Pump pulse, classical propagation with loss and two-photon absorption,
nonlinear phase accumulation, and material/regime helpers.

Units: time in ps, power in W, length in m, gamma in 1/(W m), angular
frequency in rad/ps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError

# series branch threshold for ln(1+x)/x, below which the direct quotient
# loses digits to cancellation
_LOG1P_SERIES_CUTOFF = 1e-8


@dataclass(frozen=True)
class PumpPulse:
    """Gaussian input pulse: peak power P0 (W) and width sigma_t (ps)."""

    P0: float
    sigma_t: float

    @property
    def sigma_w(self) -> float:
        """Spectral width (rad/ps) of the field amplitude, 1/(2 sigma_t)."""
        return 1.0 / (2.0 * self.sigma_t)


@dataclass(frozen=True)
class Waveguide:
    """Nonlinear/dispersive waveguide parameters.

    gamma: nonlinear parameter (1/(W m)); length: L (m); delta_beta0: phase
    mismatch (1/m); alpha: linear loss (1/m); alpha2_P: power-normalized
    two-photon-absorption rate (1/(W m)); beta1: inverse group velocity (ps/m).
    """

    gamma: float
    length: float
    delta_beta0: float = 0.0
    alpha: float = 0.0
    alpha2_P: float = 0.0
    beta1: float = 0.0

    @property
    def is_lossless(self) -> bool:
        return self.alpha == 0.0 and self.alpha2_P == 0.0


@dataclass(frozen=True)
class Material:
    """Kerr material data: n2 (m^2/W), pump wavelength (m), effective area (m^2)."""

    n2: float
    lambda_pump: float
    A_eff: float


@dataclass(frozen=True)
class ModeProfile:
    """Transverse mode amplitude |F0| sampled on a rectangular grid.

    `core_mask` marks samples inside the nonlinear core; dx/dy are the sample
    spacings (m).
    """

    amplitude: np.ndarray
    core_mask: np.ndarray
    dx: float = 1.0
    dy: float = 1.0

    def __post_init__(self):
        amp = np.asarray(self.amplitude, dtype=float)
        mask = np.asarray(self.core_mask, dtype=bool)
        if amp.shape != mask.shape:
            raise DegenerateInputError("mode profile and core mask shapes differ")
        if not np.all(np.isfinite(amp)):
            raise DegenerateInputError("mode profile contains non-finite samples")
        if not mask.any():
            raise DegenerateInputError("core mask selects no samples")
        object.__setattr__(self, "amplitude", amp)
        object.__setattr__(self, "core_mask", mask)


@dataclass(frozen=True)
class RegimeCheckResult:
    ratio: float
    passed: bool


def pump_power_profile(pulse: PumpPulse, tau):
    """Instantaneous input power P(0, tau) = P0 exp(-tau^2 / (2 sigma_t^2))."""
    tau = np.asarray(tau, dtype=float)
    return pulse.P0 * np.exp(-(tau ** 2) / (2.0 * pulse.sigma_t ** 2))


def effective_length(alpha: float, z):
    """Loss-weighted interaction length (1 - e^(-alpha z)) / alpha; -> z as alpha -> 0."""
    if alpha == 0.0:
        return np.asarray(z, dtype=float) * 1.0 if np.ndim(z) else float(z)
    return -np.expm1(-alpha * np.asarray(z, dtype=float)) / alpha


def propagate_power(p0, wg: Waveguide, z, literal_z: bool = False):
    """Pump power after distance z, with linear loss and two-photon absorption,
    from the input power p0 = P(0, tau).

    The depletion denominator uses the effective length by default;
    ``literal_z=True`` selects the historical variant with the literal
    propagation distance instead (the two agree exactly when alpha == 0).

    p0 and z broadcast against each other.
    """
    z = np.asarray(z, dtype=float)
    zeta = z if literal_z else effective_length(wg.alpha, z)
    return p0 * np.exp(-wg.alpha * z) / (1.0 + wg.alpha2_P * p0 * zeta)


def nonlinear_phase(p0, wg: Waveguide, z):
    """Accumulated self-phase of the pump, (gamma/alpha2) ln(1 + alpha2 p0 Z_eff).

    Evaluated as gamma * p0 * Z_eff * ln(1+x)/x with a series branch for small
    x, so the alpha2 -> 0 limit gamma*p0*Z_eff is reached without cancellation.
    p0 and z broadcast against each other.
    """
    zeff = effective_length(wg.alpha, z)
    x = wg.alpha2_P * p0 * zeff
    x = np.asarray(x, dtype=float)
    safe = np.where(x > _LOG1P_SERIES_CUTOFF, x, 1.0)
    ratio = np.where(
        x > _LOG1P_SERIES_CUTOFF,
        np.log1p(safe) / safe,
        1.0 - x / 2.0 + x * x / 3.0,
    )
    return wg.gamma * p0 * zeff * ratio


def nonlinear_parameter(mat: Material) -> float:
    """gamma = 2 pi n2 / (lambda A_eff), in 1/(W m)."""
    return 2.0 * math.pi * mat.n2 / (mat.lambda_pump * mat.A_eff)


def effective_area(mode: ModeProfile) -> float:
    """A_eff = (integral |F0|^2)^2 / integral_core |F0|^4.

    Invariant under rescaling of F0; raises on an identically zero profile.
    """
    da = mode.dx * mode.dy
    intensity = mode.amplitude.astype(float) ** 2
    total_sq = intensity.sum() * da
    core_quart = (intensity[mode.core_mask] ** 2).sum() * da
    if core_quart == 0.0:
        raise DegenerateInputError("mode profile carries no in-core intensity")
    return float(total_sq ** 2 / core_quart)


def check_free_carrier_regime(photon_energy: float, sigma_FCA: float, T0: float,
                              I0: float, threshold: float = 10.0) -> RegimeCheckResult:
    """Free-carrier validity check: ratio = h*nu / (sigma_FCA * T0 * I0).

    Passes when the ratio is at least ``threshold`` (default 10, standing in
    for "much greater than"). I0 = 0, or a denominator that underflows to
    zero, gives an infinite ratio and passes.
    """
    denominator = sigma_FCA * T0 * I0
    if I0 == 0.0 or denominator == 0.0:
        return RegimeCheckResult(ratio=math.inf, passed=True)
    ratio = photon_energy / denominator
    return RegimeCheckResult(ratio=float(ratio), passed=bool(ratio >= threshold))


def phi_max(pulse: PumpPulse, wg: Waveguide) -> float:
    """Peak nonlinear phase gamma * L * P0 (rad)."""
    return wg.gamma * wg.length * pulse.P0
