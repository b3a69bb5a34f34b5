"""Scalar figures of merit: pair-generation probability, heralded purity
(singular-value route), heralding efficiency, Schmidt spectrum, and the
single-sided-filtering specializations.

All quadratures work in the generation-time coordinate u = T/sqrt(2); the
sqrt(2) reappears inside the overlap arguments.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateInputError
from .filtering import (DELTA_KERNEL_WEIGHT, FilterPair, FilterSpec, gaussian_time_kernel,
                        overlap)
from .grids import TemporalGrid
from .jta import DiagonalJTA

LOW_EXCITATION_BOUND = 0.1
_WEIGHT_FLOOR = 1e-14  # singular values below this fraction of the top are noise
# eigenvalues of a weighted filter kernel below this fraction of its largest
# are round-off: a lower cut keeps only round-off eigenvectors, no accuracy
_KERNEL_EIG_CUT = 1e-16
# the rows a Schmidt window leaves out may move each singular value of the
# core by at most this fraction of the largest: double-precision round-off
_WINDOW_CUT = 2.0 ** -53
# a window factor drops the singular directions of its rows at or below this
# fraction (16 eps) of the largest: they are the SVD's round-off
_RANK_CUT = 2.0 ** -48


@dataclass(frozen=True)
class PairMetrics:
    """Figures of merit for one configuration, with the caveats that bound
    how far they can be trusted (``notes``, in a fixed order)."""

    eta: float
    purity: float | None
    nu: float | None
    schmidt_weights: np.ndarray | None
    low_excitation_ok: bool
    eta_conjugated: float  # the physical eta, equal to ``eta`` unless unconjugated
    eta_imag: float | None = None
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class SchmidtDecomposition:
    purity: float
    weights: np.ndarray
    scale: float  # the largest singular value; the weights are scale free


def _overlap_lags(grid: TemporalGrid) -> np.ndarray:
    """Overlap arguments sqrt(2) d dt at the lags d = 0 .. N-1 of the grid.

    (2d) dt equals d (2 dt) exactly in binary floating point, so the even
    entries are the lags of the grid TemporalGrid(N // 2, 2 dt).
    """
    return math.sqrt(2.0) * (np.arange(grid.n_points) * grid.dt)


def _lag_sum(kappa: np.ndarray, v: np.ndarray, conjugated: bool = True):
    """v* K v (or v K v) for the symmetric Toeplitz K[j, k] = kappa[|j - k|].

    The sum runs over lags: kappa[0] c[0] + 2 sum_{d>=1} kappa[d] Re c[d] with
    the autocorrelation c[d] = sum_j conj(v[j]) v[j + d] (the bilinear form
    uses sum_j v[j] v[j + d], which is even in d). One zero-padded FFT of
    length 2N gives every lag without wrap-around.
    """
    n = v.size
    f = np.fft.fft(v, 2 * n)
    if conjugated:
        c = np.fft.ifft(f.real ** 2 + f.imag ** 2)[:n].real
    else:
        c = np.fft.ifft(f * np.roll(f[::-1], 1))[:n]  # F(omega) F(-omega)
    return kappa[0] * c[0] + 2.0 * (kappa[1:] @ c[1:])


def _quadratic_form(diag: DiagonalJTA, kappa: np.ndarray, conjugated: bool,
                    step: int = 1):
    """(1/4 pi^2) v* K v (or v K v) on every ``step``-th sample of the diagonal,
    with K[j, k] = kappa[|j - k|] the eta kernel on the full grid; kappa[::2]
    is the kernel of the grid TemporalGrid(n // 2, 2 dt) (see ``_overlap_lags``).
    """
    grid = TemporalGrid(diag.grid.n_points // step, step * diag.grid.dt)
    v = grid.trapezoid_weights * diag.values[::step]
    total = _lag_sum(kappa[::step], v, conjugated)
    if conjugated:
        return float(total) / (4.0 * math.pi ** 2)
    return complex(total) / (4.0 * math.pi ** 2)


def _both_forms(diag: DiagonalJTA, filters: FilterPair, conjugated: bool):
    """The conjugated eta, unless ``conjugated`` the bilinear form, and the
    resolution note (or None), all from one lag vector
    kappa(d) = Os(sqrt(2) d dt) Oi(sqrt(2) d dt) (two gaussian filters).

    The resolution sentinel recomputes the conjugated eta on every second
    sample and notes a relative change above 1e-6; it skips an eta that
    underflows, which is reported as zero.
    """
    lags = _overlap_lags(diag.grid)
    kappa = overlap(filters.signal, lags) * overlap(filters.idler, lags)
    eta = _quadratic_form(diag, kappa, True)
    note = None
    if eta >= sys.float_info.min and diag.grid.n_points // 2 >= 8:
        eta_c = _quadratic_form(diag, kappa, True, step=2)
        scale = max(eta, abs(eta_c))
        if abs(eta - eta_c) > 1e-6 * scale:
            note = (f"pair probability changed by {abs(eta - eta_c) / scale:.2e} "
                    "relative under 2x grid coarsening; grid may be under-resolved")
    return eta, (None if conjugated else _quadratic_form(diag, kappa, False)), note


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
    mags = np.abs(diag.values)
    # the ratio below is scale-free, but its two sides go as |JTA|^4 and
    # underflow for a weak pump; an exact power-of-two rescale avoids that
    mags = np.ldexp(mags, -np.frexp(mags.max())[1])
    q = diag.grid.trapezoid_weights * mags ** 2
    if not np.any(q > 0.0):
        raise DegenerateInputError("zero amplitude: heralded purity undefined")
    o_sq = np.abs(overlap(signal_filter, _overlap_lags(diag.grid))) ** 2
    numerator = 2.0 * float(_lag_sum(o_sq, q))
    eta = single_sided_eta(DiagonalJTA(diag.grid, mags), signal_filter)
    return numerator / (8.0 * math.pi ** 2 * eta ** 2)


def purity_schmidt(weighted: np.ndarray) -> SchmidtDecomposition:
    """Schmidt spectrum of a measure-weighted two-coordinate amplitude, such as
    the small core of the factored amplitude. Weights are normalized to unit
    power, purity is their fourth-power sum.
    """
    s = np.linalg.svd(weighted, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        raise DegenerateInputError("zero amplitude: Schmidt spectrum undefined")
    # relative to the largest before squaring, so no scale over- or underflows
    t = s[s > _WEIGHT_FLOOR * s[0]] / s[0]
    g = t / math.sqrt(float(np.sum(t ** 2)))
    return SchmidtDecomposition(purity=float(np.sum(g ** 4)), weights=g, scale=float(s[0]))


def _pivoted_cholesky(column, diagonal: np.ndarray) -> np.ndarray:
    """Rows L (r x m) with L^T L equal to a positive semidefinite B up to a
    residual of trace at most ``_KERNEL_EIG_CUT`` times a lower bound on the
    largest eigenvalue of B (Harbrecht, Peters & Schneider 2012, Appl. Numer.
    Math. 62:428). B is never formed: ``column(p)`` returns a fresh B[:, p].

    The bound is ||B e_p||^2 / B_pp for the first pivot p, a Rayleigh
    quotient of B^2 over B. The residual B - L^T L is positive semidefinite,
    so every eigenvalue it drops is at most its trace, the sum of the
    residual diagonal d kept here.
    """
    m = diagonal.size
    rows = np.empty((min(m, 64), m))  # doubled as needed: O(m r) memory
    d = diagonal.copy()
    for k in range(m):
        p = int(np.argmax(d))
        if d[p] <= 0.0:
            return rows[:k]
        if k == len(rows):
            rows = np.concatenate([rows, np.empty((min(k, m - k), m))])
        row = column(p)
        if k:
            row -= rows[:k, p] @ rows[:k]
        row /= math.sqrt(d[p])
        rows[k] = row
        if k == 0:
            tol = _KERNEL_EIG_CUT * float(row @ row)
        d -= row * row
        d[p] = 0.0
        if d.sum() <= tol:
            return rows[:k + 1]
    return rows


@functools.lru_cache(maxsize=4)
def _kernel_factor(grid: TemporalGrid, filt: FilterSpec) -> np.ndarray:
    """P = Q diag(lam), from the eigenpairs (lam, Q) of the measure-weighted
    time kernel K = sqrt(W) A sqrt(W) of a gaussian filter, so that
    P P^T = K^2 up to round-off and the column norms of P are the
    eigenvalues of K.

    A[j, k] = a(|j - k| dt) is symmetric Toeplitz and the trapezoid weights
    mirror, so the weighted kernel commutes with the index reversal J. With
    K11 and K12 its upper blocks, the eigenvectors are [x; Jx] / sqrt(2) for
    the eigenpairs of K11 + K12 J and [x; -Jx] / sqrt(2) for those of
    K11 - K12 J (Cantoni & Butler 1976, Linear Algebra Appl. 13:275).
    (K12 J)[j, k] = a((N - 1 - j - k) dt), so column p of either half block
    is sw * sw[p] * (a[|j - p|] +- a[N - 1 - j - p]).

    Each half block B is factored as B = L^T L by ``_pivoted_cholesky``
    without being formed, in O(N r^2) for rank r; the r x r Gram
    L L^T = V diag(mu) V^T gives its eigenpairs mu and L^T V diag(mu^-1/2),
    hence its half of P as L^T V diag(sqrt(mu)). Nothing is divided by
    sqrt(mu), which would cost the small columns their orthogonality.

    The kernel is symmetric positive semidefinite; eigenvalues at or below
    ``_KERNEL_EIG_CUT`` of the largest are dropped. Cached per (grid, filter),
    so equal filters on both sides share one factor; P is read-only.
    """
    n, m = grid.n_points, grid.n_points // 2
    a = gaussian_time_kernel(filt.sigma_f, np.arange(n) * grid.dt)
    # a[|j - p|] = mirrored[m - 1 - p + j] and a[n - 1 - j - p] = reversed_[p + j]
    mirrored, reversed_ = np.concatenate([a[m - 1:0:-1], a[:m]]), a[::-1]
    sw = np.sqrt(grid.trapezoid_weights[:m])
    halves = []
    for sign in (1.0, -1.0):
        def column(p, sign=sign):
            return sw * (sw[p] * (mirrored[m - 1 - p:n - 1 - p] + sign * reversed_[p:p + m]))
        rows = _pivoted_cholesky(column, sw * sw * (a[0] + sign * a[n - 1::-2][:m]))
        mu, v = np.linalg.eigh(rows @ rows.T)
        halves.append((mu, rows.T @ (v * np.sqrt(np.maximum(mu, 0.0)))))
    (mu_s, p_s), (mu_a, p_a) = halves
    cut = _KERNEL_EIG_CUT * np.concatenate([mu_s, mu_a]).max()
    p_s, p_a = p_s[:, mu_s > cut], p_a[:, mu_a > cut]
    p = np.concatenate([np.hstack([p_s, p_a]),
                        np.hstack([p_s[::-1], -p_a[::-1]])]) / math.sqrt(2.0)
    p.flags.writeable = False
    return p


# a phi_max sweep over all four tiers on one grid and filter pair meets 2 or 3
# distinct windows (perfbench's sweep_phi_512, 200 seeds); unequal filters take
# two entries per window, so such a sweep with lambda != mu needs up to 6
@functools.lru_cache(maxsize=8)
def _window_factor(grid: TemporalGrid, filt: FilterSpec, lo: int, hi: int) -> np.ndarray:
    """F ((hi - lo) x k) with F F^T equal to S S^T for the rows S = P[lo:hi]
    of the kernel factor P, up to round-off on the singular-value scale, and
    k the numerical rank of S, which is far below the rank of P when the
    window is short.

    F = S V_k, with V_k the right singular vectors of S whose singular values
    exceed ``_RANK_CUT`` of the largest, taken from the SVD of the square
    triangular factor R of S = Q R. Each dropped column is at most 16 eps of
    S's largest singular value. A window with fewer rows than P has columns
    is first replaced by the square T^T, with T the triangular factor of
    S^T = Q T: T^T T = S S^T.

    Cached per (grid, filter, window); F is read-only.
    """
    s = _kernel_factor(grid, filt)[lo:hi]
    if s.shape[0] < s.shape[1]:
        s = np.linalg.qr(s.T, mode="r").T
    _, sv, vt = np.linalg.svd(np.linalg.qr(s, mode="r"))
    f = s @ vt[sv > _RANK_CUT * sv[0]].T
    f.flags.writeable = False
    return f


def _shortest_window(w: np.ndarray, budget: float) -> tuple[int, int, float]:
    """The shortest index window [lo, hi) (the first of equal length) whose
    outside entries of the nonnegative w sum to at most ``budget``, and that
    sum."""
    head = np.concatenate([[0.0], np.cumsum(w)])  # head[i] = sum of w[:i]
    tail = np.concatenate([np.cumsum(w[::-1])[::-1], [0.0]])  # tail[j] = sum of w[j:]
    los = np.arange(np.searchsorted(head, budget, side="right"))
    # tail does not increase: the first j with tail[j] <= budget - head[lo]
    his = np.searchsorted(-tail, head[los] - budget, side="left")
    lo = int(np.argmin(his - los))
    hi = int(his[lo])
    return lo, hi, float(head[lo] + tail[hi])


def _core_terms(diag: DiagonalJTA, filters: FilterPair):
    """The filters whose kernel factors stand on the sides of the Schmidt
    core, one per filtered side, and the scaled diagonal samples c.

    The weighted filtered amplitude is M = A^ diag(v / 2 pi) B^, with A^ and
    B^ the weighted kernels of ``_kernel_factor`` and v the diagonal samples.
    With A^ = Qa La Qa^T, B^ = Qb Lb Qb^T and Pa = Qa La, Pb = Qb Lb, the
    core Pa^T diag(c) Pb with c = v / 2 pi has the singular values of M. An
    unfiltered side is a delta kernel: M collapses to A^ diag(v) sqrt(2 pi)/2 pi
    (or its transpose), whose core is Pa^T diag(c) with c = v sqrt(2 pi) / 2 pi.
    """
    sides = tuple(f for f in (filters.signal, filters.idler) if f.is_gaussian)
    if len(sides) == 2:
        return sides, diag.values / (2.0 * math.pi)
    return sides, diag.values * (DELTA_KERNEL_WEIGHT / (2.0 * math.pi))


def _schmidt_window(diag: DiagonalJTA, filters: FilterPair) -> tuple[int, int, float]:
    """The shortest row window of the Schmidt core whose left-out rows move
    no singular value by more than round-off once ``_schmidt_spectrum`` has
    checked it, and the bound on how far they can.

    The core is a sum over rows n of the rank-one terms c_n pa_n pb_n^T,
    with pa_n, pb_n the rows of the kernel factors (a unit row on an
    unfiltered side). Leaving out the rows outside the window changes the
    core by a matrix of spectral norm at most the sum of the term norms
    w_n = |c_n| |pa_n| |pb_n| over those rows, and so, by Weyl's inequality,
    each singular value by at most that much. The window keeps that sum
    under half of ``_WINDOW_CUT`` times the largest w_n, which needs only
    the factors' row norms. With one side filtered the largest w_n is the
    norm of a column of the core, a lower bound on its largest singular
    value; with two it need not be, and the check after the SVD is what
    guarantees the bound.
    """
    sides, c = _core_terms(diag, filters)
    w = np.abs(c)
    for filt in sides:
        p = _kernel_factor(diag.grid, filt)
        w = w * np.sqrt(np.einsum("ij,ij->i", p, p))
    return _shortest_window(w, 0.5 * _WINDOW_CUT * w.max())


def _schmidt_core(diag: DiagonalJTA, filters: FilterPair, lo: int, hi: int) -> np.ndarray:
    """The Schmidt core of ``_core_terms`` on the diagonal rows [lo, hi), each
    factor replaced by its rank-k reduction F of ``_window_factor``: F has
    the singular values and left vectors of the factor's rows, so the core
    keeps its singular values and shrinks to k x k."""
    sides, c = _core_terms(diag, filters)
    fa, *fb = (_window_factor(diag.grid, filt, lo, hi) for filt in sides)
    c = c[lo:hi]
    if not fb:
        return fa.T * c[None, :]
    # two real products: a complex left factor would copy fb to complex
    return (fa.T * c.real) @ fb[0] + 1j * ((fa.T * c.imag) @ fb[0])


def _schmidt_spectrum(diag: DiagonalJTA, filters: FilterPair) -> SchmidtDecomposition:
    """Schmidt spectrum of the filtered amplitude from the core on the window
    of ``_schmidt_window``. The window's budget rests on the largest term of
    the core, not on its largest singular value, so the bound on what it
    leaves out is checked against that value here: should it exceed
    ``_WINDOW_CUT`` of it, the spectrum is taken again on every row, and
    Weyl's bound holds for every spectrum returned."""
    lo, hi, dropped = _schmidt_window(diag, filters)
    schmidt = purity_schmidt(_schmidt_core(diag, filters, lo, hi))
    if dropped > _WINDOW_CUT * schmidt.scale:
        schmidt = purity_schmidt(_schmidt_core(diag, filters, 0, diag.grid.n_points))
    return schmidt


def schmidt_mode_count(weights: np.ndarray) -> int:
    """Number of leading Schmidt modes needed to capture 99 % of the power."""
    cum = np.cumsum(weights ** 2)
    return int(np.searchsorted(cum, 0.99 - 1e-12) + 1)


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


def validate_low_excitation(eta: float) -> tuple[bool, str]:
    """Flag pair probabilities outside the first-order validity regime."""
    if eta <= LOW_EXCITATION_BOUND:
        return True, ""
    return False, (f"eta={eta:.6g} exceeds the low-excitation bound "
                   f"{LOW_EXCITATION_BOUND}; first-order results are unreliable")


def compute_pair_metrics(diag: DiagonalJTA, filters: FilterPair,
                         conjugated: bool = True) -> PairMetrics:
    """The pair probability eta, heralded purity and heralding efficiency nu
    of one configuration, with the notes that qualify them.

    eta is the Hermitian quadratic form (1/4 pi^2) v* K v, with v the
    weighted amplitude samples and K the product of the two overlap
    matrices, summed over the lags of that Toeplitz kernel. With one side
    unfiltered it is the single-sided form, which depends on |JTA| only;
    with neither filtered it diverges, a ConfigError. ``conjugated=False``
    reports the plain bilinear form v K v instead (its real part as eta, its
    imaginary part as eta_imag); it is kept for comparison only, since it is
    not phase-independent, and the other figures still use the conjugated eta.

    nu is the ratio of the doubly filtered eta to the signal-only one: 1
    with the idler unfiltered, None with the signal unfiltered. The Schmidt
    spectrum comes from the cached kernel factors, never from the dense
    filtered amplitude. An eta that is zero or underflows (zero or
    vanishingly weak pump) is reported as eta 0 with the conditional
    quantities unset rather than dividing by a subnormal, which keeps sweeps
    through zero power usable.

    ``notes`` holds, in this order: the resolution note (both sides
    filtered, and eta recomputed on every second sample changes by more than
    1e-6 relative), then the zero-pump note or the note that nu is
    undefined, then the low-excitation note.
    """
    sig, idl = filters.signal, filters.idler
    if not (sig.is_gaussian or idl.is_gaussian):
        raise ConfigError("pair probability needs at least one gaussian filter")
    both = sig.is_gaussian and idl.is_gaussian
    filtered = sig if sig.is_gaussian else idl  # the side a single-sided form uses
    notes = []
    if both:
        eta_phys, raw, resolution = _both_forms(diag, filters, conjugated)
        if resolution is not None:
            notes.append(resolution)
    else:
        eta_phys = single_sided_eta(diag, filtered)
    if eta_phys < sys.float_info.min:
        notes.append("zero pump power: conditional quantities are undefined")
        return PairMetrics(eta=0.0, purity=None, nu=None, schmidt_weights=None,
                           low_excitation_ok=True, eta_conjugated=0.0,
                           notes=tuple(notes))

    schmidt = _schmidt_spectrum(diag, filters)
    eta_report, eta_imag = eta_phys, None
    if both:
        if not conjugated:
            eta_report, eta_imag = raw.real, raw.imag
        purity = schmidt.purity
        nu = eta_phys / single_sided_eta(diag, sig)
    else:
        purity = single_sided_purity(diag, filtered)
        nu = 1.0 if sig.is_gaussian else None
        if nu is None:
            notes.append("nu: undefined without a signal filter")

    ok, message = validate_low_excitation(eta_phys)
    if not ok:
        notes.append(message)
    return PairMetrics(eta=float(eta_report), purity=purity, nu=nu,
                       schmidt_weights=schmidt.weights, low_excitation_ok=ok,
                       eta_conjugated=eta_phys, eta_imag=eta_imag, notes=tuple(notes))
