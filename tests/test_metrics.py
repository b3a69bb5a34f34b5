import math

import numpy as np
import pytest

import gaussian_reference
import sfwmsim.metrics
from sfwmsim import (ConfigError, DegenerateInputError, DiagonalJTA, FilterPair,
                     FilterSpec, PumpPulse, TemporalGrid, build_diagonal_jta,
                     compute_pair_metrics, effective_length, filtered_jta, gaussian_eta,
                     gaussian_nu, gaussian_purity, gaussian_time_kernel, overlap,
                     purity_schmidt, schmidt_mode_count, single_sided_eta,
                     single_sided_purity, validate_low_excitation)
from oracles import purity_quadrature, schmidt_spectrum
from conftest import (filter_for_ratio, make_filters, make_grid, make_pump, make_waveguide,
                      reference_coefficients, reference_jta)

PURITY_22 = math.sqrt(80.0 / 81.0)  # lambda = mu = 2
ETA_01_22 = 5.590169943749474e-4    # phi = 0.1, lambda = mu = 2
NU_22 = 1.0 / math.sqrt(10.0)
TIERS = pytest.mark.parametrize("model",
                                ["linear", "simple_sxpm", "sinc", "general_quadrature"])
ZERO_PUMP = "zero pump power: conditional quantities are undefined"


def _linear_setup(phi, lam, mu, n_points=512):
    pump = make_pump(phi_max=phi)
    wg = make_waveguide()
    filters = make_filters(lam, mu, pump)
    grid = make_grid(pump, [filters.signal, filters.idler], n_points=n_points)
    return pump, wg, filters, grid


def _resolution_note(rel):
    return (f"pair probability changed by {rel:.2e} relative under 2x grid "
            "coarsening; grid may be under-resolved")


def test_pair_probability_anchor():
    pump, wg, filters, grid = _linear_setup(0.1, 2.0, 2.0)
    eta = compute_pair_metrics(build_diagonal_jta("linear", pump, wg, grid), filters).eta
    assert eta == pytest.approx(ETA_01_22, rel=1e-10)
    assert gaussian_eta(0.1, 2.0, 2.0) == pytest.approx(ETA_01_22, rel=1e-12)


@pytest.mark.parametrize("phi,lam,mu", [(0.05, 0.5, 1.0), (0.1, 1.0, 4.0),
                                        (0.1, 4.0, 0.5)])
def test_pair_probability_matches_closed_form(phi, lam, mu):
    pump, wg, filters, grid = _linear_setup(phi, lam, mu)
    eta = compute_pair_metrics(build_diagonal_jta("linear", pump, wg, grid), filters).eta
    assert eta == pytest.approx(gaussian_eta(phi, lam, mu), rel=1e-8)


def test_non_conjugated_variant_is_minus_eta_for_the_linear_model():
    # the linear amplitude is purely imaginary, so v K v = -(v* K v)
    pump, wg, filters, grid = _linear_setup(0.1, 2.0, 2.0)
    pm = compute_pair_metrics(build_diagonal_jta("linear", pump, wg, grid), filters,
                              conjugated=False)
    assert pm.eta == pytest.approx(-ETA_01_22, rel=1e-10)
    assert abs(pm.eta_imag) < 1e-18


def test_pair_probability_dispatches_single_sided():
    pump, wg, _, grid = _linear_setup(0.1, 2.0, 2.0)
    diag = build_diagonal_jta("linear", pump, wg, grid)
    filt = FilterSpec(sigma_f=0.25)
    one_sided = FilterPair(filt, FilterSpec.unfiltered())
    assert compute_pair_metrics(diag, one_sided).eta == single_sided_eta(diag, filt)
    flipped = FilterPair(FilterSpec.unfiltered(), filt)
    assert compute_pair_metrics(diag, flipped).eta == single_sided_eta(diag, filt)
    with pytest.raises(ConfigError, match="needs at least one gaussian filter"):
        compute_pair_metrics(diag, FilterPair(FilterSpec.unfiltered(),
                                              FilterSpec.unfiltered()))


def test_resolution_check_warns_on_a_coarse_grid():
    pump = make_pump(phi_max=1.0)
    wg = make_waveguide()
    filters = make_filters(2.0, 2.0, pump)
    grid = make_grid(pump, [filters.signal, filters.idler], n_points=64)
    notes = compute_pair_metrics(build_diagonal_jta("simple_sxpm", pump, wg, grid),
                                 filters).notes
    # the sentinel's coarse eta is the eta of the half grid (measured 5.46e-02)
    rel = _half_grid_drift(pump, wg, filters, grid)
    assert rel > 1e-2
    assert notes == (_resolution_note(rel),)

    fine = make_grid(pump, [filters.signal, filters.idler], n_points=512)
    assert _half_grid_drift(pump, wg, filters, fine) < 1e-6  # measured 2.1e-15
    diag = build_diagonal_jta("simple_sxpm", pump, wg, fine)
    assert compute_pair_metrics(diag, filters).notes == ()


@pytest.mark.parametrize("p0", [1e-140, 1e-150, 1e-152])
def test_resolution_check_keeps_warning_for_a_tiny_eta(p0):
    """The README config with the linear model at N=64: eta scales as P0^2,
    so the half-grid drift is 4.58e-02 at every power, even for an eta below
    1e-300 (about 2e-306 at 1e-152 W)."""
    pump = PumpPulse(P0=p0, sigma_t=1.0)
    wg = make_waveguide(gamma=121.6, length=0.005)
    filters = FilterPair(FilterSpec(sigma_f=0.25), FilterSpec(sigma_f=0.25))
    grid = make_grid(pump, [filters.signal, filters.idler], n_points=64)
    pm = compute_pair_metrics(build_diagonal_jta("linear", pump, wg, grid), filters)
    assert pm.notes == (_resolution_note(4.58e-02),)
    assert pm.eta > 0.0


def _dense_overlap(filt, grid):
    """The N x N overlap matrix O(sqrt(2) (tau_j - tau_k))."""
    tau = grid.tau
    return overlap(filt, math.sqrt(2.0) * (tau[:, None] - tau[None, :]))


@pytest.mark.parametrize("n_points", [64, 512, 2048])
@pytest.mark.parametrize("lam, mu", [(2.0, 2.0), (1.3, 2.7)], ids=["equal", "unequal"])
@TIERS
def test_eta_matches_the_dense_quadratic_form(model, lam, mu, n_points):
    # the lag sum against v* K v with the dense kernel K = Os * Oi
    pump, wg, filters, grid = _linear_setup(1.0, lam, mu, n_points=n_points)
    diag = build_diagonal_jta(model, pump, wg, grid)
    k = _dense_overlap(filters.signal, grid) * _dense_overlap(filters.idler, grid)
    v = grid.trapezoid_weights * diag.values
    kv = k @ v
    eta = float(np.real(np.conj(v) @ kv)) / (4.0 * math.pi ** 2)
    raw = complex(v @ kv) / (4.0 * math.pi ** 2)
    assert abs(compute_pair_metrics(diag, filters).eta - eta) <= 1e-13 * eta
    got = compute_pair_metrics(diag, filters, conjugated=False)
    assert abs(got.eta - raw.real) <= 1e-13 * eta
    assert abs(got.eta_imag - raw.imag) <= 1e-13 * eta


@pytest.mark.parametrize("n", [8, 64, 1024])
def test_lag_sum_equals_the_dense_toeplitz_forms(rng, n):
    # a kernel and a vector spread over the whole grid, so wrap-around shows
    kappa = rng.uniform(0.5, 1.0, n)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    d = np.arange(n)
    k = kappa[np.abs(d[:, None] - d[None, :])]
    dense = np.conj(v) @ k @ v
    assert sfwmsim.metrics._lag_sum(kappa, v) == pytest.approx(dense.real, rel=1e-13)
    bilinear = v @ k @ v
    got = sfwmsim.metrics._lag_sum(kappa, v, conjugated=False)
    assert abs(got - bilinear) <= 1e-13 * abs(dense)


@pytest.mark.parametrize("n_points", [64, 512, 2048])
def test_resolution_sentinel_is_the_half_grid_eta(n_points):
    """Every second lag of the eta kernel is the kernel of the half grid, bit
    for bit, so the sentinel's coarse eta is that grid's eta."""
    pump, wg, filters, grid = _linear_setup(1.0, 1.3, 2.7, n_points=n_points)
    diag = build_diagonal_jta("simple_sxpm", pump, wg, grid)
    lags = sfwmsim.metrics._overlap_lags(grid)
    kappa = overlap(filters.signal, lags) * overlap(filters.idler, lags)
    coarse = sfwmsim.metrics._quadratic_form(diag, kappa, True, step=2)
    half = TemporalGrid(n_points // 2, 2.0 * grid.dt)
    assert np.array_equal(sfwmsim.metrics._overlap_lags(half), lags[::2])
    coarse_diag = DiagonalJTA(half, np.ascontiguousarray(diag.values[::2]))
    assert coarse == compute_pair_metrics(coarse_diag, filters).eta


def _half_grid_drift(pump, wg, filters, grid):
    half = TemporalGrid(n_points=grid.n_points // 2, dt=2.0 * grid.dt)
    eta = compute_pair_metrics(build_diagonal_jta("simple_sxpm", pump, wg, grid),
                               filters).eta
    eta_half = compute_pair_metrics(build_diagonal_jta("simple_sxpm", pump, wg, half),
                                    filters).eta
    return abs(eta - eta_half) / max(abs(eta), abs(eta_half))


def test_single_sided_eta_anchor():
    # O(0)/(2 pi) * integral |JTA|^2 = phi^2 sigma_f sqrt(pi) / sqrt(2 pi)
    pump, wg, _, grid = _linear_setup(0.1, 2.0, 0.0)
    diag = build_diagonal_jta("linear", pump, wg, grid)
    eta = single_sided_eta(diag, FilterSpec(sigma_f=0.25))
    assert eta == pytest.approx(0.0025 / math.sqrt(2.0), rel=1e-10)
    assert eta == pytest.approx(1.76777e-3, rel=1e-5)


def test_single_sided_eta_requires_a_filter():
    pump, wg, _, grid = _linear_setup(0.1, 2.0, 0.0)
    with pytest.raises(DegenerateInputError):
        single_sided_eta(build_diagonal_jta("linear", pump, wg, grid), FilterSpec.unfiltered())


def test_single_sided_purity_anchor():
    pump, wg, _, grid = _linear_setup(0.1, 2.0, 0.0)
    purity = single_sided_purity(build_diagonal_jta("linear", pump, wg, grid),
                                 FilterSpec(sigma_f=0.25))
    assert purity == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, rel=1e-8)


def test_single_sided_purity_is_phase_blind():
    """Pump-induced phase cancels when the idler goes unfiltered."""
    filt = FilterSpec(sigma_f=0.25)
    values = []
    for phi in (1e-30, 2.0):
        pump = make_pump(phi_max=phi)
        grid = make_grid(pump, [filt], n_points=256)
        diag = build_diagonal_jta("simple_sxpm", pump, make_waveguide(), grid)
        values.append(single_sided_purity(diag, filt))
    assert values[1] == pytest.approx(values[0], rel=1e-12)


@pytest.mark.parametrize("phi", [1e-80, 1e-100, 1e-140])
def test_single_sided_purity_of_a_weak_pump(phi):
    """|JTA|^4 underflows here, but the purity does not depend on the scale."""
    filt = FilterSpec(sigma_f=0.25)
    strong, weak = make_pump(phi_max=0.1), make_pump(phi_max=phi)
    grid = make_grid(strong, [filt], n_points=64)
    want, got = (single_sided_purity(build_diagonal_jta("linear", pump, make_waveguide(), grid),
                                     filt) for pump in (strong, weak))
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n_points", [64, 512, 2048])
@TIERS
def test_single_sided_purity_matches_the_dense_form(model, n_points):
    pump, wg, _, grid = _linear_setup(1.0, 2.0, 0.0, n_points=n_points)
    filt = FilterSpec(sigma_f=0.25)
    diag = build_diagonal_jta(model, pump, wg, grid)
    q = grid.trapezoid_weights * np.abs(diag.values) ** 2
    o_sq = np.abs(_dense_overlap(filt, grid)) ** 2
    eta = single_sided_eta(diag, filt)
    dense = 2.0 * float(q @ o_sq @ q) / (8.0 * math.pi ** 2 * eta ** 2)
    assert abs(single_sided_purity(diag, filt) - dense) <= 1e-13 * dense


def test_single_sided_purity_unfiltered_limit_is_zero():
    pump, wg, _, grid = _linear_setup(0.1, 2.0, 0.0)
    diag = build_diagonal_jta("linear", pump, wg, grid)
    assert single_sided_purity(diag, FilterSpec.unfiltered()) == 0.0


def test_single_sided_purity_zero_amplitude_raises():
    pump, wg, _, grid = _linear_setup(0.0, 2.0, 0.0)
    diag = build_diagonal_jta("linear", pump, wg, grid)
    with pytest.raises(DegenerateInputError):
        single_sided_purity(diag, FilterSpec(sigma_f=0.25))


def test_schmidt_purity_oracle():
    pump, wg, filters, grid = _linear_setup(0.1, 2.0, 2.0, n_points=256)
    sw = np.sqrt(grid.trapezoid_weights)
    dec = purity_schmidt(sw[:, None] * reference_jta(pump, wg, filters, grid).values
                         * sw[None, :])
    assert dec.purity == pytest.approx(PURITY_22, abs=1e-6)
    assert np.sum(dec.weights ** 2) == pytest.approx(1.0, rel=1e-12)
    assert np.all(np.diff(dec.weights) <= 0)


def test_schmidt_zero_matrix_raises():
    pump, wg, filters, grid = _linear_setup(0.0, 2.0, 2.0, n_points=64)
    sw = np.sqrt(grid.trapezoid_weights)
    matrix = filtered_jta(build_diagonal_jta("linear", pump, wg, grid), filters)
    with pytest.raises(DegenerateInputError):
        purity_schmidt(sw[:, None] * matrix.values * sw[None, :])


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_schmidt_purity_does_not_depend_on_the_scale(rng, scale):
    # the squares of 1e200 overflow and those of 1e-200 underflow
    matrix = rng.standard_normal((20, 20))
    plain = purity_schmidt(matrix)
    scaled = purity_schmidt(scale * matrix)
    assert scaled.purity == pytest.approx(plain.purity, rel=0.0, abs=1e-15)
    assert len(scaled.weights) == len(plain.weights)
    assert np.max(np.abs(scaled.weights - plain.weights)) <= 1e-15
    assert scaled.scale == pytest.approx(scale * plain.scale, rel=1e-14)


def test_schmidt_mode_count():
    assert schmidt_mode_count(np.array([math.sqrt(0.995), math.sqrt(0.005)])) == 1
    uniform = np.full(10, math.sqrt(0.1))
    assert schmidt_mode_count(uniform) == 10
    # 0.5 + 0.49 reaches the 99 % mark on the second mode
    assert schmidt_mode_count(np.sqrt([0.5, 0.49, 0.01])) == 2


def test_purity_quadrature_matches_schmidt():
    pump, wg, filters, grid = _linear_setup(0.1, 2.0, 2.0, n_points=64)
    diag = build_diagonal_jta("linear", pump, wg, grid)
    quad = purity_quadrature(grid.tau, diag.values, filters.signal.sigma_f,
                             filters.idler.sigma_f)
    assert quad == pytest.approx(PURITY_22, rel=1e-6)


def test_purity_quadrature_cost_guard():
    """No cost guard is left: the factored contraction is O(N^3), like the
    SVD, so it runs on a 256-point grid and stays accurate there."""
    pump, wg, filters, grid = _linear_setup(0.1, 2.0, 2.0, n_points=256)
    diag = build_diagonal_jta("linear", pump, wg, grid)
    quad = purity_quadrature(grid.tau, diag.values, filters.signal.sigma_f,
                             filters.idler.sigma_f)
    assert quad == pytest.approx(PURITY_22, rel=1e-7)


def test_purity_quadrature_guards():
    pump, wg, _, grid = _linear_setup(0.1, 2.0, 0.0, n_points=64)
    diag = build_diagonal_jta("linear", pump, wg, grid)
    with pytest.raises(ValueError, match="gaussian filters on both sides"):
        purity_quadrature(grid.tau, diag.values, 0.25, None)
    with pytest.raises(ValueError, match="zero amplitude"):
        purity_quadrature(grid.tau, np.zeros(grid.n_points, dtype=complex), 0.25, 0.25)


def test_heralding_efficiency_anchor():
    pump, wg, filters, grid = _linear_setup(0.1, 2.0, 2.0)
    nu = compute_pair_metrics(build_diagonal_jta("linear", pump, wg, grid), filters).nu
    assert nu == pytest.approx(NU_22, rel=1e-8)
    assert gaussian_nu(2.0, 2.0) == pytest.approx(NU_22, rel=1e-15)


def test_heralding_efficiency_unfiltered_idler_is_one():
    pump, wg, _, grid = _linear_setup(0.1, 2.0, 0.0)
    diag = build_diagonal_jta("linear", pump, wg, grid)
    pair = FilterPair(FilterSpec(sigma_f=0.25), FilterSpec.unfiltered())
    assert compute_pair_metrics(diag, pair).nu == 1.0


def test_heralding_efficiency_needs_a_signal_filter():
    pump, wg, _, grid = _linear_setup(0.1, 0.0, 2.0)
    diag = build_diagonal_jta("linear", pump, wg, grid)
    pair = FilterPair(FilterSpec.unfiltered(), FilterSpec(sigma_f=0.25))
    pm = compute_pair_metrics(diag, pair)
    assert pm.nu is None
    assert pm.notes == ("nu: undefined without a signal filter",)


def test_gaussian_closed_form_values():
    assert gaussian_purity(2.0, 2.0) == pytest.approx(PURITY_22, rel=1e-15)
    s = 1.0 / math.sqrt(2.0)
    assert gaussian_purity(s, s) == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-15)
    assert gaussian_nu(0.0, 2.0) == 0.0
    with pytest.raises(ConfigError):
        gaussian_eta(0.1, 0.0, 0.0)
    with pytest.raises(ConfigError):
        gaussian_nu(0.0, 0.0)


def test_low_excitation_boundary():
    ok, msg = validate_low_excitation(0.1)
    assert ok and msg == ""
    bad, msg = validate_low_excitation(0.1 + 1e-9)
    assert not bad
    assert "0.1" in msg


def test_compute_pair_metrics_standard_fields():
    pump, wg, filters, grid = _linear_setup(0.1, 2.0, 2.0, n_points=256)
    pm = compute_pair_metrics(build_diagonal_jta("linear", pump, wg, grid), filters)
    assert pm.eta == pytest.approx(ETA_01_22, rel=1e-8)
    assert pm.purity == pytest.approx(PURITY_22, abs=1e-6)
    assert pm.nu == pytest.approx(NU_22, rel=1e-8)
    assert pm.schmidt_weights is not None
    assert pm.low_excitation_ok
    assert pm.eta_imag is None
    # nu is the doubly filtered eta over the signal-only one
    for model, phi in (("linear", 0.1), ("simple_sxpm", 1.0)):
        for lam, mu in ((2.0, 2.0), (1.0, 3.0)):
            pump, wg, filters, grid = _linear_setup(phi, lam, mu, n_points=256)
            diag = build_diagonal_jta(model, pump, wg, grid)
            pm = compute_pair_metrics(diag, filters)
            assert pm.nu == pm.eta / single_sided_eta(diag, filters.signal)


def test_compute_pair_metrics_zero_pump():
    pump, wg, filters, grid = _linear_setup(0.0, 2.0, 2.0, n_points=64)
    pm = compute_pair_metrics(build_diagonal_jta("linear", pump, wg, grid), filters)
    assert pm.eta == 0.0
    assert pm.purity is None and pm.nu is None and pm.schmidt_weights is None
    assert pm.low_excitation_ok
    assert pm.notes == (ZERO_PUMP,)


@pytest.mark.parametrize("phi", [1e-160, 1e-200])
def test_compute_pair_metrics_underflowing_eta_is_zero_pump(phi):
    # eta ~ phi^2 is subnormal or zero: purity and nu would divide by it
    pump, wg, filters, grid = _linear_setup(phi, 2.0, 2.0, n_points=64)
    diag = build_diagonal_jta("linear", pump, wg, grid)
    assert np.any(diag.values != 0.0)
    pm = compute_pair_metrics(diag, filters)
    assert pm.eta == 0.0
    assert pm.purity is None and pm.nu is None and pm.schmidt_weights is None
    assert pm.low_excitation_ok
    assert pm.notes == (ZERO_PUMP,)  # the resolution sentinel skips it


def test_compute_pair_metrics_non_conjugated_flag():
    pump, wg, filters, grid = _linear_setup(0.1, 2.0, 2.0, n_points=256)
    pm = compute_pair_metrics(build_diagonal_jta("linear", pump, wg, grid), filters,
                              conjugated=False)
    assert pm.eta == pytest.approx(-ETA_01_22, rel=1e-8)
    assert pm.eta_imag == pytest.approx(0.0, abs=1e-18)
    assert pm.eta_conjugated == pytest.approx(ETA_01_22, rel=1e-8)
    # the validity flag still keys on the physical (conjugated) value
    strong = _linear_setup(3.0, 0.5, 0.5, n_points=256)
    pm2 = compute_pair_metrics(build_diagonal_jta("linear", strong[0], strong[1], strong[3]),
                               strong[2], conjugated=False)
    assert not pm2.low_excitation_ok
    assert pm2.eta_conjugated > 0.1
    assert pm2.notes[-1] == validate_low_excitation(pm2.eta_conjugated)[1]


def test_compute_pair_metrics_single_sided():
    pump, wg, _, grid = _linear_setup(0.1, 2.0, 0.0, n_points=256)
    diag = build_diagonal_jta("linear", pump, wg, grid)
    herald_only = FilterPair(FilterSpec(sigma_f=0.25), FilterSpec.unfiltered())
    pm = compute_pair_metrics(diag, herald_only)
    assert pm.eta == pytest.approx(0.0025 / math.sqrt(2.0), rel=1e-10)
    assert pm.purity == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, rel=1e-8)
    assert pm.nu == 1.0
    flipped = FilterPair(FilterSpec.unfiltered(), FilterSpec(sigma_f=0.25))
    pm2 = compute_pair_metrics(diag, flipped)
    assert pm2.nu is None
    assert pm2.purity == pytest.approx(pm.purity, rel=1e-12)


@pytest.mark.parametrize("n_points", [64, 512])
@pytest.mark.parametrize("lam, mu", [(2.0, 2.0), (1.3, 2.7), (2.0, 0.0), (0.0, 2.0)],
                         ids=["equal", "unequal", "signal_only", "idler_only"])
@TIERS
def test_factored_schmidt_spectrum_matches_the_dense_oracle(model, lam, mu, n_points):
    # the dense filtered amplitude and its full SVD stay the reference
    pump, wg, filters, grid = _linear_setup(1.0, lam, mu, n_points=n_points)
    diag = build_diagonal_jta(model, pump, wg, grid)
    purity, dense = schmidt_spectrum(grid.tau, grid.tau, filtered_jta(diag, filters).values)
    pm = compute_pair_metrics(diag, filters)
    weights = pm.schmidt_weights
    assert len(weights) == len(dense)
    assert np.max(np.abs(weights - dense)) <= 1e-12
    assert abs(float(np.sum(weights ** 4)) - purity) <= 1e-12
    if lam and mu:
        assert abs(pm.purity - purity) <= 1e-12
    assert schmidt_mode_count(weights) == schmidt_mode_count(dense)


@pytest.mark.parametrize("lam, mu", [(0.1, 2.0), (2.0, 2.0)], ids=["wide_signal_band", "equal"])
def test_factored_schmidt_spectrum_matches_the_dense_oracle_at_1024(lam, mu):
    # lambda = 0.1 gives the signal kernel its highest rank: the longest pivot loop
    pump, wg, filters, grid = _linear_setup(1.0, lam, mu, n_points=1024)
    diag = build_diagonal_jta("simple_sxpm", pump, wg, grid)
    purity, dense = schmidt_spectrum(grid.tau, grid.tau, filtered_jta(diag, filters).values)
    pm = compute_pair_metrics(diag, filters)
    assert len(pm.schmidt_weights) == len(dense)
    assert np.max(np.abs(pm.schmidt_weights - dense)) <= 1e-12
    assert abs(pm.purity - purity) <= 1e-12
    assert schmidt_mode_count(pm.schmidt_weights) == schmidt_mode_count(dense)


# The linear tier's filtered amplitude is a bivariate Gaussian, with one side
# filtered or both, so by Mehler's formula its Schmidt weights are
# g_n^2 = (1 - q) q^n with q = (1 - P) / (1 + P), P the closed-form purity (Law,
# Walmsley & Eberly 2000, PRL 84:5304). The grid span cuts off the high modes:
# at span 8, (0.3, 0) keeps 78 weights against 79, and lambda = mu = 0.5 misses
# weight 24 by 1.5e-13. At span 10 every weight of these cases lies within
# 5.0e-16 of the closed form. Each case's closed-form ratio g_n / g_0 stays at
# least 10 % away from the weight floor 1e-14, so round-off cannot move the
# kept count; the floor is written out, so that a changed floor fails here.
@pytest.mark.parametrize("lam, mu, n_points", [
    (2.0, 2.0, 256), (1.5, 2.5, 1024), (3.0, 0.7, 256), (0.5, 0.5, 2048), (0.2, 0.5, 1024),
    (0.1, 0.5, 2048), (2.0, 0.0, 256), (0.35, 0.0, 1024), (0.4, 0.0, 2048), (0.0, 1.0, 256),
    (0.0, 0.2, 1024), (0.0, 0.6, 2048)])
def test_linear_schmidt_weights_follow_mehlers_formula(lam, mu, n_points):
    pump = make_pump(phi_max=1.0)
    filters = make_filters(lam, mu, pump)
    grid = make_grid(pump, [filters.signal, filters.idler], n_points=n_points,
                     span_sigmas=10.0)
    diag = build_diagonal_jta("linear", pump, make_waveguide(), grid)
    weights = compute_pair_metrics(diag, filters).schmidt_weights
    p = gaussian_purity(lam, mu)
    q = (1.0 - p) / (1.0 + p)
    ratio = q ** (np.arange(1000) / 2.0)  # g_n / g_0
    assert np.all(np.abs(np.log(ratio[ratio > 1e-15] / 1e-14)) > 0.1)
    closed = np.sqrt(1.0 - q) * ratio[ratio > 1e-14]
    assert len(weights) == len(closed)
    assert schmidt_mode_count(weights) == schmidt_mode_count(closed)
    assert np.max(np.abs(weights - closed)) <= 1e-15


def _readme_setup(n_points=512, lam=2.0, mu=2.0, model="simple_sxpm"):
    """The benchmark's README config: the filter kernels are 4x wider than the
    pulse, so the diagonal vanishes on most of the grid."""
    pump = PumpPulse(P0=1.0, sigma_t=1.0)
    wg = make_waveguide(gamma=121.6, length=0.005)
    filters = make_filters(lam, mu, pump)
    grid = make_grid(pump, [filters.signal, filters.idler], n_points=n_points)
    return build_diagonal_jta(model, pump, wg, grid), filters


def _bits(pm):
    return (pm.eta.hex(), pm.purity.hex(), pm.nu.hex(), pm.schmidt_weights)


def test_pair_metrics_do_not_depend_on_the_cache_history():
    """Cold, warm, beside other cached (grid, filter, window) entries and
    after they pushed this one out: the same bits every time."""
    diag, filters = _readme_setup()
    factors = (sfwmsim.metrics._kernel_factor, sfwmsim.metrics._window_factor)
    for cache in factors:
        cache.cache_clear()
    cold = _bits(compute_pair_metrics(diag, filters))
    states = [_bits(compute_pair_metrics(diag, filters))]  # warm
    others = [_readme_setup(512, lam, mu, model)
              for lam, mu in [(1.5, 2.5), (2.5, 1.5), (3.0, 3.0)]
              for model in ["linear", "sinc"]]
    others += [_readme_setup(n, lam, lam) for n in (128, 256, 1024)
               for lam in (1.2, 1.4, 1.6, 1.8, 2.4)]
    compute_pair_metrics(*others[0])
    misses = [cache.cache_info().misses for cache in factors]
    states.append(_bits(compute_pair_metrics(diag, filters)))  # beside other entries
    # its factors were still cached beside the others
    assert [cache.cache_info().misses for cache in factors] == misses
    for other in others:
        compute_pair_metrics(*other)
    misses = [cache.cache_info().misses for cache in factors]
    states.append(_bits(compute_pair_metrics(diag, filters)))  # after eviction
    # both of its factors were pushed out and built again
    assert all(cache.cache_info().misses > m for cache, m in zip(factors, misses))
    for eta, purity, nu, weights in states:
        assert (eta, purity, nu) == cold[:3]
        assert np.array_equal(weights, cold[3])


@pytest.mark.parametrize("n_points", [256, 512, 1024])
def test_the_schmidt_window_leaves_out_only_negligible_rows(n_points):
    diag, filters = _readme_setup(n_points)
    lo, hi, dropped = sfwmsim.metrics._schmidt_window(diag, filters)
    assert hi - lo < 0.3 * n_points  # the diagonal is negligible on most rows
    # Weyl's bound on what the window leaves out, against the dense spectrum
    dense = filtered_jta(diag, filters)
    sw = np.sqrt(diag.grid.trapezoid_weights)
    s = np.linalg.svd(sw[:, None] * dense.values * sw[None, :], compute_uv=False)
    assert dropped <= 2.0 ** -53 * s[0]
    window = purity_schmidt(sfwmsim.metrics._schmidt_core(diag, filters, lo, hi))
    every_row = purity_schmidt(sfwmsim.metrics._schmidt_core(diag, filters, 0, n_points))
    assert len(window.weights) == len(every_row.weights)
    assert np.max(np.abs(window.weights - every_row.weights)) <= 1e-15
    assert abs(window.scale - s[0]) <= 1e-14 * s[0]


def test_a_window_that_leaves_out_too_much_falls_back_to_every_row(monkeypatch):
    diag, filters = _readme_setup()
    expected = compute_pair_metrics(diag, filters)
    windows = []
    real_shortest = sfwmsim.metrics._shortest_window
    real_core = sfwmsim.metrics._schmidt_core
    # a budget 1e12 times too large: the window drops rows that matter
    monkeypatch.setattr(sfwmsim.metrics, "_shortest_window",
                        lambda w, budget: real_shortest(w, 1e12 * budget))
    monkeypatch.setattr(sfwmsim.metrics, "_schmidt_core",
                        lambda d, f, lo, hi: windows.append((lo, hi)) or real_core(d, f, lo, hi))
    pm = compute_pair_metrics(diag, filters)
    assert len(windows) == 2 and windows[1] == (0, 512)
    assert windows[0][1] - windows[0][0] < 100
    assert len(pm.schmidt_weights) == len(expected.schmidt_weights)
    assert np.max(np.abs(pm.schmidt_weights - expected.schmidt_weights)) <= 1e-15
    assert abs(pm.purity - expected.purity) <= 1e-15


def test_a_sinc_window_that_fails_its_check_falls_back_to_every_row(monkeypatch):
    """The window's budget rests on the core's largest term, which here
    exceeds its largest singular value: the window (26, 38) leaves out more
    than 2**-53 of it, and the spectrum is taken on every row instead."""
    pump = PumpPulse(P0=1.48 / (121.6 * 0.005), sigma_t=1.0)
    wg = make_waveguide(gamma=121.6, length=0.005, delta_beta0=16.3)
    filters = make_filters(1.14, 2.9, pump)
    grid = make_grid(pump, [filters.signal, filters.idler], n_points=64)
    diag = build_diagonal_jta("sinc", pump, wg, grid)
    lo, hi, dropped = sfwmsim.metrics._schmidt_window(diag, filters)
    assert (lo, hi) == (26, 38)
    window = purity_schmidt(sfwmsim.metrics._schmidt_core(diag, filters, lo, hi))
    assert dropped > 2.0 ** -53 * window.scale
    windows = []
    real_core = sfwmsim.metrics._schmidt_core
    monkeypatch.setattr(sfwmsim.metrics, "_schmidt_core",
                        lambda d, f, lo, hi: windows.append((lo, hi)) or real_core(d, f, lo, hi))
    pm = compute_pair_metrics(diag, filters)
    assert windows == [(26, 38), (0, 64)]
    purity, dense = schmidt_spectrum(grid.tau, grid.tau, filtered_jta(diag, filters).values)
    assert len(pm.schmidt_weights) == len(dense)
    assert np.max(np.abs(pm.schmidt_weights - dense)) <= 1e-12
    assert abs(pm.purity - purity) <= 1e-12


@pytest.mark.parametrize("n_points, lam", [(64, 2.0), (512, 2.0), (512, 0.1), (1024, 0.3)])
def test_a_window_factor_spans_the_window_rows_at_their_rank(n_points, lam):
    diag, filters = _readme_setup(n_points, lam)
    lo, hi, _ = sfwmsim.metrics._schmidt_window(diag, filters)
    rows = sfwmsim.metrics._kernel_factor(diag.grid, filters.signal)[lo:hi]
    f = sfwmsim.metrics._window_factor(diag.grid, filters.signal, lo, hi)
    assert f.shape[0] == hi - lo
    assert f.shape[1] <= min(rows.shape)
    s = np.linalg.svd(rows, compute_uv=False)
    # it keeps every singular direction above 2**-48 of the largest, no other
    assert f.shape[1] == np.count_nonzero(s > 2.0 ** -48 * s[0])
    # its singular values are those of the rows, to round-off of the largest
    sf = np.linalg.svd(f, compute_uv=False)
    assert np.max(np.abs(sf - s[:sf.size])) <= 2e-15 * s[0]
    assert np.all(s[sf.size:] <= 1e-14 * s[0])
    with pytest.raises(ValueError):
        f[0, 0] = 0.0


def test_cached_kernel_factors_are_read_only():
    pump, wg, filters, grid = _linear_setup(0.1, 2.0, 2.0, n_points=64)
    compute_pair_metrics(build_diagonal_jta("linear", pump, wg, grid), filters)
    p = sfwmsim.metrics._kernel_factor(grid, filters.signal)
    with pytest.raises(ValueError):
        p[0, 0] = 0.0


@pytest.mark.parametrize("n_points", [64, 512, 2048])
@pytest.mark.parametrize("ratio", [0.1, 0.5, 3.0])
def test_half_size_kernel_factor_matches_the_dense_kernel(ratio, n_points):
    # ratio 0.1 gives the highest rank; at N = 64 every pivot step runs
    pump = make_pump(phi_max=1.0)
    filt = filter_for_ratio(ratio, pump)
    grid = make_grid(pump, [filt], n_points=n_points)
    p = sfwmsim.metrics._kernel_factor(grid, filt)
    tau = grid.tau
    sw = np.sqrt(grid.trapezoid_weights)
    dense = (sw[:, None] * gaussian_time_kernel(filt.sigma_f, tau[:, None] - tau[None, :])
             * sw[None, :])
    assert np.linalg.norm(p @ p.T - dense @ dense) <= 1e-13 * np.linalg.norm(dense) ** 2
    lam = np.sort(np.linalg.norm(p, axis=0))[::-1]
    full = np.linalg.eigvalsh(dense)[::-1][:lam.size]
    assert np.max(np.abs(lam - full)) <= 1e-14 * full[0]


def _reference_metrics(pump, wg, filters, model):
    """eta, purity and nu of a tier from the Gaussian-series reference.

    eta and the purity come from its filtered JSA sampled over +-5 rad/ps.
    nu's signal-only denominator sigma_f / sqrt(2 pi) * int |JTA|^2 comes from
    its diagonal sampled over +-12 ps: summing the closed form
    sum_mn c_m conj(c_n) sqrt(pi / (a_m + a_n)) instead loses up to 4e-11 to
    cancellation at phi = 2, where the c_n far exceed the amplitude.
    """
    c = reference_coefficients(pump, wg, model)
    w, tau = np.linspace(-5.0, 5.0, 401), np.linspace(-12.0, 12.0, 481)
    sf = filters.signal.sigma_f
    jsa = gaussian_reference.filtered_jsa(c, pump.sigma_t, sf, filters.idler.sigma_f, w, w)
    eta = float(np.sum(np.abs(jsa) ** 2)) * (w[1] - w[0]) ** 2
    diag = gaussian_reference.jta(c, pump.sigma_t, tau)
    signal_only = (sf / math.sqrt(2.0 * math.pi) * float(np.sum(np.abs(diag) ** 2))
                   * (tau[1] - tau[0]))
    return eta, gaussian_reference.purity(jsa), eta / signal_only


@pytest.mark.parametrize("phi", [0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("model,waveguide", [
    ("sinc", {"delta_beta0": 0.0}),
    ("sinc", {"delta_beta0": 30.0}),
    ("general_quadrature", {"alpha": 20.0, "alpha2_P": 5.0, "delta_beta0": 30.0}),
], ids=["sinc-matched", "sinc-mismatched", "general_quadrature-lossy"])
def test_pair_metrics_match_the_gaussian_series_reference(model, waveguide, phi):
    pump = make_pump(phi_max=phi)
    wg = make_waveguide(**waveguide)
    # two-photon absorption puts a branch point of the tier map at
    # p = -1 / (alpha2_P L_eff); the reference's circle |p| = 1.5 P0 must avoid it
    assert wg.alpha2_P * pump.P0 * effective_length(wg.alpha, wg.length) <= 0.5
    filters = make_filters(2.0, 2.0, pump)
    grid = make_grid(pump, [filters.signal, filters.idler])
    pm = compute_pair_metrics(build_diagonal_jta(model, pump, wg, grid), filters)
    eta, purity, nu = _reference_metrics(pump, wg, filters, model)
    assert pm.eta == pytest.approx(eta, rel=1e-10, abs=0.0)
    assert pm.purity == pytest.approx(purity, rel=0.0, abs=1e-10)
    assert pm.nu == pytest.approx(nu, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("phi,change", [(0.5, -2.6026e-4), (2.0, -1.5602e-2)])
def test_phase_matched_sinc_purity_falls_below_the_linear_tier(phi, change):
    """With ratio-2 filters the sinc tier at dbeta0 = 0 loses purity against the
    linear one; package and reference agree on the change."""
    pump = make_pump(phi_max=phi)
    wg = make_waveguide()
    filters = make_filters(2.0, 2.0, pump)
    grid = make_grid(pump, [filters.signal, filters.idler])
    got = {m: compute_pair_metrics(build_diagonal_jta(m, pump, wg, grid), filters).purity
           for m in ("sinc", "linear")}
    want = {m: _reference_metrics(pump, wg, filters, m)[1] for m in ("sinc", "linear")}
    delta = got["sinc"] - got["linear"]
    assert delta == pytest.approx(want["sinc"] - want["linear"], rel=0.0, abs=1e-10)
    assert delta == pytest.approx(change, rel=1e-4)
