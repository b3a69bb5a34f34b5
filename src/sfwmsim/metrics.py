"""Scalar figures of merit: pair-generation probability, heralded purity
(singular-value route plus an independent four-fold quadrature), heralding
efficiency, Schmidt spectrum, and the single-sided-filtering specializations.

All quadratures work in the generation-time coordinate u = T/sqrt(2); the
sqrt(2) reappears inside the overlap arguments.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (AccuracyWarning, ConfigError, CostGuardError,
                     DegenerateInputError, UndefinedEfficiencyError)
from .filtering import FilterPair, FilterSpec, JointAmplitudeMatrix, filtered_jta, overlap
from .jta import DiagonalJTA

LOW_EXCITATION_BOUND = 0.1
FOURFOLD_MAX_POINTS = 128
_WEIGHT_FLOOR = 1e-14  # singular values below this fraction of the top are noise


@dataclass(frozen=True)
class PairMetrics:
    """Figures of merit for one configuration."""

    eta: float
    purity: float | None
    nu: float | None
    schmidt_weights: np.ndarray | None
    low_excitation_ok: bool
    eta_imag: float | None = None


@dataclass(frozen=True)
class SchmidtDecomposition:
    purity: float
    weights: np.ndarray


def _overlap_matrix(filt: FilterSpec, tau: np.ndarray) -> np.ndarray:
    """O(sqrt(2) (tau_j - tau_k)) for a gaussian filter."""
    sep = math.sqrt(2.0) * (tau[:, None] - tau[None, :])
    return overlap(filt, sep)


def pair_probability(diag: DiagonalJTA, filters: FilterPair, conjugated: bool = True,
                     verify_resolution: bool = False):
    """Probability of generating (and keeping) one filtered pair per pulse.

    Hermitian quadratic form (1/4 pi^2) v* K v with v the weighted amplitude
    samples and K the product of the two overlap matrices. ``conjugated=False``
    evaluates the plain bilinear form instead and returns a complex number;
    it is kept for comparison only, since it is not phase-independent.

    With ``verify_resolution`` the value is recomputed on every second sample
    and an AccuracyWarning is emitted if the two differ by more than 1e-6
    relative.
    """
    sig, idl = filters.signal, filters.idler
    if not sig.is_gaussian and not idl.is_gaussian:
        raise ConfigError("pair probability needs at least one gaussian filter")
    if not idl.is_gaussian:
        return single_sided_eta(diag, sig)
    if not sig.is_gaussian:
        return single_sided_eta(diag, idl)

    def _quad(values, k, w):
        v = w * values
        if conjugated:
            return float(np.real(np.conj(v) @ k @ v)) / (4.0 * math.pi ** 2)
        return complex(v @ k @ v) / (4.0 * math.pi ** 2)

    grid = diag.grid
    k = _overlap_matrix(sig, grid.tau) * _overlap_matrix(idl, grid.tau)
    eta = _quad(diag.values, k, grid.trapezoid_weights)
    if verify_resolution and grid.n_points // 2 >= 8:
        # K depends on tau differences only, so K[::2, ::2] is the kernel of
        # the half grid TemporalGrid(n // 2, 2 dt)
        w_c = np.full(grid.n_points // 2, 2.0 * grid.dt)
        w_c[0] *= 0.5
        w_c[-1] *= 0.5
        eta_c = _quad(diag.values[::2], k[::2, ::2], w_c)
        scale = max(abs(eta), abs(eta_c), 1e-300)
        if abs(eta - eta_c) / scale > 1e-6:
            warnings.warn(
                f"pair probability changed by {abs(eta - eta_c) / scale:.2e} "
                "relative under 2x grid coarsening; grid may be under-resolved",
                AccuracyWarning, stacklevel=2)
    return eta


def single_sided_eta(diag: DiagonalJTA, signal_filter: FilterSpec) -> float:
    """Pair probability with only one side filtered: O(0)/(2 pi) * integral |JTA|^2.

    Depends on the amplitude's magnitude only, hence invariant under any
    phase imposed on the diagonal amplitude.
    """
    if not signal_filter.is_gaussian:
        raise DegenerateInputError(
            "pair probability with no filter at all diverges in this normalization")
    o0 = signal_filter.sigma_f * math.sqrt(2.0 * math.pi)
    w = diag.grid.trapezoid_weights
    return float(o0 / (2.0 * math.pi) * np.sum(w * np.abs(diag.values) ** 2))


def single_sided_purity(diag: DiagonalJTA, signal_filter: FilterSpec) -> float:
    """Heralded purity with the idler side unfiltered.

    Evaluates the |JTA|^2-only double quadrature, so any phase on the
    diagonal amplitude cancels exactly. An unfiltered signal filter returns
    the perfectly-correlated continuum limit 0.
    """
    if not signal_filter.is_gaussian:
        return 0.0
    q = diag.grid.trapezoid_weights * np.abs(diag.values) ** 2
    if not np.any(q > 0.0):
        raise DegenerateInputError("zero amplitude: heralded purity undefined")
    o_sq = np.abs(_overlap_matrix(signal_filter, diag.grid.tau)) ** 2
    numerator = 2.0 * float(q @ o_sq @ q)
    eta = single_sided_eta(diag, signal_filter)
    return numerator / (8.0 * math.pi ** 2 * eta ** 2)


def purity_schmidt(matrix: JointAmplitudeMatrix) -> SchmidtDecomposition:
    """Schmidt spectrum of a sampled two-coordinate amplitude.

    The matrix is measure-weighted (sqrt of the trapezoid weights on each
    axis) so the singular values approximate the continuum decomposition;
    weights are normalized to unit power, purity is their fourth-power sum.
    """
    ws = np.sqrt(matrix.grid_s.trapezoid_weights)
    wi = np.sqrt(matrix.grid_i.trapezoid_weights)
    weighted = ws[:, None] * matrix.values * wi[None, :]
    s = np.linalg.svd(weighted, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        raise DegenerateInputError("zero amplitude: Schmidt spectrum undefined")
    s = s[s > _WEIGHT_FLOOR * s[0]]
    g = s / math.sqrt(float(np.sum(s ** 2)))
    return SchmidtDecomposition(purity=float(np.sum(g ** 4)), weights=g)


def schmidt_mode_count(weights: np.ndarray, fraction: float = 0.99) -> int:
    """Number of leading Schmidt modes needed to capture ``fraction`` of the power."""
    cum = np.cumsum(weights ** 2)
    return int(np.searchsorted(cum, fraction - 1e-12) + 1)


def fourfold_sum(v: np.ndarray, os: np.ndarray, oi: np.ndarray) -> complex:
    """Four-index contraction behind the purity quadrature.

    F = sum_{a,b,c,d} v[a] conj(v[b]) v[c] conj(v[d])
        * os[b,a] * os[d,c] * oi[b,c] * oi[d,a],
    evaluated in O(N^3) through the exact factorization F = v . (G * G^T) . v
    with G = (os * conj(v)[:, None])^T @ oi.
    """
    g = (os * np.conj(v)[:, None]).T @ oi
    return complex(v @ (g * g.T) @ v)


def purity_quadrature(diag: DiagonalJTA, filters: FilterPair,
                      allow_large: bool = False) -> float:
    """Heralded purity from the four-fold overlap quadrature.

    Independent cross-check of the singular-value route: the four-fold sum
    shares no factorization with the SVD. It costs O(N^3), so grids above
    128 points are refused unless ``allow_large`` is set.
    """
    if not (filters.signal.is_gaussian and filters.idler.is_gaussian):
        raise ConfigError("four-fold purity quadrature needs gaussian filters on both sides")
    n = diag.grid.n_points
    if n > FOURFOLD_MAX_POINTS and not allow_large:
        raise CostGuardError(
            f"four-fold quadrature on {n} points needs O(N^3), ~{n ** 3:.1e} "
            "multiply-adds; pass allow_large=True to force it")
    tau = diag.grid.tau
    v = diag.grid.trapezoid_weights * diag.values
    os = _overlap_matrix(filters.signal, tau)
    oi = _overlap_matrix(filters.idler, tau)
    norm = float(np.real(np.conj(v) @ (os * oi) @ v))
    if norm == 0.0:
        raise DegenerateInputError("zero amplitude: heralded purity undefined")
    f = fourfold_sum(v, os, oi)
    return float(np.real(f)) / norm ** 2


def gaussian_purity(lam: float, mu: float) -> float:
    """Closed-form heralded purity for Gaussian pump and filters."""
    return math.sqrt(1.0 - 1.0 / ((1.0 + 2.0 * lam ** 2) * (1.0 + 2.0 * mu ** 2)))


def gaussian_eta(phi_max: float, lam: float, mu: float) -> float:
    """Closed-form pair probability for Gaussian pump and filters."""
    denom_sq = lam ** 2 + mu ** 2 + 2.0 * lam ** 2 * mu ** 2
    if denom_sq == 0.0:
        raise ConfigError("pair probability diverges in the fully unfiltered limit")
    return phi_max ** 2 / (2.0 * math.sqrt(2.0) * math.sqrt(denom_sq))


def gaussian_nu(lam: float, mu: float) -> float:
    """Closed-form heralding efficiency for Gaussian pump and filters."""
    denom_sq = lam ** 2 + mu ** 2 + 2.0 * lam ** 2 * mu ** 2
    if denom_sq == 0.0:
        raise ConfigError("heralding efficiency undefined with no filtering at all")
    return lam / math.sqrt(denom_sq)


def heralding_efficiency(diag: DiagonalJTA, filters: FilterPair) -> float:
    """Probability the heralded photon survives idler filtering.

    Defined as the ratio of the doubly filtered pair probability to the
    signal-only one; exactly 1 when the idler is unfiltered.
    """
    if not filters.signal.is_gaussian:
        raise UndefinedEfficiencyError(
            "heralding efficiency needs a gaussian signal filter")
    if not filters.idler.is_gaussian:
        return 1.0
    denominator = single_sided_eta(diag, filters.signal)
    if denominator == 0.0:
        raise UndefinedEfficiencyError(
            "signal-only pair probability is zero; efficiency ratio undefined")
    numerator = pair_probability(diag, filters, conjugated=True)
    return float(numerator / denominator)


def validate_low_excitation(eta: float) -> tuple[bool, str]:
    """Flag pair probabilities outside the first-order validity regime."""
    if eta <= LOW_EXCITATION_BOUND:
        return True, ""
    return False, (f"eta={eta:.6g} exceeds the low-excitation bound "
                   f"{LOW_EXCITATION_BOUND}; first-order results are unreliable")


def compute_pair_metrics(diag: DiagonalJTA, filters: FilterPair,
                         conjugated: bool = True,
                         matrix: JointAmplitudeMatrix | None = None,
                         verify_resolution: bool = False) -> PairMetrics:
    """Assemble the standard metric set for one configuration.

    An eta that is zero or underflows (zero or vanishingly weak pump) is
    reported as eta 0 with the conditional quantities unset rather than
    raising or dividing by a subnormal, which keeps sweeps through zero
    power usable. nu reuses the eta computed here: it is the same ratio
    ``heralding_efficiency`` returns.
    """
    sig, idl = filters.signal, filters.idler
    # raises ConfigError when neither side is gaussian
    eta_phys = pair_probability(diag, filters, conjugated=True,
                                verify_resolution=verify_resolution)
    if eta_phys < sys.float_info.min:
        return PairMetrics(eta=0.0, purity=None, nu=None, schmidt_weights=None,
                           low_excitation_ok=True)

    if matrix is None:
        matrix = filtered_jta(diag, filters)
    schmidt = purity_schmidt(matrix)
    eta_report, eta_imag = eta_phys, None
    if sig.is_gaussian and idl.is_gaussian:
        if not conjugated:
            raw = pair_probability(diag, filters, conjugated=False)
            eta_report, eta_imag = raw.real, raw.imag
        purity = schmidt.purity
        nu = eta_phys / single_sided_eta(diag, sig)
    else:
        purity = single_sided_purity(diag, sig if sig.is_gaussian else idl)
        nu = 1.0 if sig.is_gaussian else None

    ok, _ = validate_low_excitation(eta_phys)
    return PairMetrics(eta=float(eta_report), purity=purity, nu=nu,
                       schmidt_weights=schmidt.weights, low_excitation_ok=ok,
                       eta_imag=eta_imag)
