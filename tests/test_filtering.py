import math

import numpy as np
import pytest

from gaussian_reference import KEPT
from sfwmsim import (ConfigError, FilterPair, FilterSpec, JointAmplitudeMatrix,
                     TemporalGrid, build_diagonal_jta, filtered_jta,
                     gaussian_time_kernel, overlap)
from sfwmsim.filtering import DELTA_KERNEL_WEIGHT
from conftest import (make_filters, make_grid, make_pump, make_waveguide,
                      reference_coefficients, reference_jta, sample_at)

TWO_PI = 2.0 * math.pi


def test_filter_spec_validation():
    with pytest.raises(ConfigError):
        FilterSpec(sigma_f=None, shape="gaussian")
    with pytest.raises(ConfigError):
        FilterSpec(sigma_f=-1.0, shape="gaussian")
    with pytest.raises(ConfigError):
        FilterSpec(sigma_f=1.0, shape="lorentzian")
    assert not FilterSpec.unfiltered().is_gaussian
    assert FilterSpec(sigma_f=0.5).is_gaussian


def test_bandwidth_ratios():
    pump = make_pump(sigma_t=1.0)  # sigma_w = 0.5
    pair = FilterPair(FilterSpec(sigma_f=0.25), FilterSpec.unfiltered())
    assert pair.ratios(pump) == (2.0, 0.0)


def test_time_kernel_peak_and_self_overlap():
    sigma_f = 0.4
    assert gaussian_time_kernel(sigma_f, 0.0) == pytest.approx(math.sqrt(2) * sigma_f)
    # closed-form self-overlap at zero separation is sigma_f * sqrt(2 pi)
    filt = FilterSpec(sigma_f=sigma_f)
    assert overlap(filt, 0.0) == pytest.approx(sigma_f * math.sqrt(TWO_PI))


def test_overlap_decay():
    filt = FilterSpec(sigma_f=0.4)
    ratio = overlap(filt, 2.0 / 0.4) / overlap(filt, 0.0)
    assert ratio == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_unfiltered_side_has_no_overlap():
    # every metric dispatches on is_gaussian first; only the filtered
    # amplitude uses the delta kernel, through its weight
    with pytest.raises(ConfigError, match="gaussian filters only"):
        overlap(FilterSpec.unfiltered(), 0.0)
    assert DELTA_KERNEL_WEIGHT == pytest.approx(math.sqrt(TWO_PI))


def test_joint_matrix_validation():
    grid = TemporalGrid(n_points=16, dt=0.5)
    with pytest.raises(ConfigError, match="must be a 2-D matrix"):
        JointAmplitudeMatrix(grid, np.ones(16, dtype=complex))
    with pytest.raises(ConfigError, match="shape does not match its grids"):
        JointAmplitudeMatrix(grid, np.ones((16, 8), dtype=complex))
    bad = np.ones((16, 16), dtype=complex)
    bad[2, 3] = np.inf
    with pytest.raises(ConfigError, match="non-finite"):
        JointAmplitudeMatrix(grid, bad)


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, -np.inf)])
def test_joint_matrix_accepts_column_strided_views_and_rejects_strided_non_finite(bad):
    grid = TemporalGrid(n_points=16, dt=0.5)
    rng = np.random.default_rng(3)
    wide = rng.standard_normal((16, 32)) + 1j * rng.standard_normal((16, 32))
    matrix = JointAmplitudeMatrix(grid, wide[:, ::2])
    np.testing.assert_array_equal(matrix.values, wide[:, ::2])
    wide[5, 8] = bad
    with pytest.raises(ConfigError, match="non-finite"):
        JointAmplitudeMatrix(grid, wide[:, ::2])


@pytest.mark.parametrize("lam,mu", [(2.0, 2.0), (1.0, 4.0), (0.5, 2.0)])
def test_convolved_linear_jta_matches_closed_form(lam, mu):
    """Trapezoid convolution vs the analytic filtered amplitude."""
    pump = make_pump(phi_max=0.1)
    wg = make_waveguide()
    filters = make_filters(lam, mu, pump)
    grid = make_grid(pump, [filters.signal, filters.idler], n_points=256)
    diag = build_diagonal_jta("linear", pump, wg, grid)
    got = filtered_jta(diag, filters)
    want = reference_jta(pump, wg, filters, grid)
    scale = np.abs(want.values).max()
    assert np.abs(got.values - want.values).max() / scale < 1e-8


def test_closed_form_axis_roles():
    """lambda multiplies the idler coordinate, mu the signal coordinate."""
    pump = make_pump(phi_max=0.1)
    wg = make_waveguide()
    grid = make_grid(pump, [FilterSpec(sigma_f=0.25)], n_points=256)
    diag = build_diagonal_jta("linear", pump, wg, grid)
    asym = filtered_jta(diag, make_filters(2.0, 0.5, pump))
    swapped = filtered_jta(diag, make_filters(0.5, 2.0, pump))
    np.testing.assert_allclose(asym.values, swapped.values.T, rtol=1e-13)
    want = reference_jta(pump, wg, make_filters(2.0, 0.5, pump), grid)
    assert np.abs(asym.values - want.values).max() / np.abs(want.values).max() < 1e-12
    # along tau_s with tau_i = 0 the decay rate is (2 mu^2 + 1) sigma_w^2 / D0
    lam, mu, sw = 2.0, 0.5, pump.sigma_w
    d0 = 2 * lam ** 2 * mu ** 2 + lam ** 2 + mu ** 2
    k0 = sample_at(grid, 0.0)
    k1 = sample_at(grid, grid.dt * 8)
    t1 = grid.tau[k1]
    got = np.log(np.abs(asym.values[k1, k0] / asym.values[k0, k0]))
    assert got == pytest.approx(-sw ** 2 * (2 * mu ** 2 + 1) * t1 ** 2 / d0,
                                rel=1e-10)


def test_single_sided_collapse_entries():
    pump = make_pump(phi_max=0.1)
    wg = make_waveguide()
    sigma_f = 0.25
    filters = FilterPair(FilterSpec(sigma_f=sigma_f), FilterSpec.unfiltered())
    grid = make_grid(pump, [filters.signal], n_points=64)
    diag = build_diagonal_jta("linear", pump, wg, grid)
    matrix = filtered_jta(diag, filters)
    j, k = 20, 33
    expected = (diag.values[k]
                * gaussian_time_kernel(sigma_f, grid.tau[j] - grid.tau[k])
                * math.sqrt(TWO_PI) / TWO_PI)
    assert matrix.values[j, k] == pytest.approx(expected, rel=1e-14)


def test_single_sided_mirror_is_the_transpose():
    pump = make_pump(phi_max=0.1)
    wg = make_waveguide()
    filt = FilterSpec(sigma_f=0.25)
    grid = make_grid(pump, [filt], n_points=64)
    diag = build_diagonal_jta("linear", pump, wg, grid)
    m_sig = filtered_jta(diag, FilterPair(filt, FilterSpec.unfiltered()))
    m_idl = filtered_jta(diag, FilterPair(FilterSpec.unfiltered(), filt))
    np.testing.assert_allclose(m_idl.values, m_sig.values.T, rtol=0, atol=0)


def test_fully_unfiltered_convolution_rejected():
    pump = make_pump()
    grid = make_grid(pump, n_points=64)
    diag = build_diagonal_jta("linear", pump, make_waveguide(), grid)
    pair = FilterPair(FilterSpec.unfiltered(), FilterSpec.unfiltered())
    with pytest.raises(ConfigError):
        filtered_jta(diag, pair)


@pytest.mark.parametrize("phi,n_terms", [(0.5, 18), (1.0, 24), (2.0, 34)])
def test_series_truncation_counts(phi, n_terms):
    """The reference's simple_sxpm coefficients are i phi (3i phi)^n / n!, and
    n_terms of them are at least 1e-12 of the first."""
    pump = make_pump(phi_max=phi)
    c = reference_coefficients(pump, make_waveguide(), "simple_sxpm")[1:KEPT]
    want = [1j * phi * (3j * phi) ** n / math.factorial(n) for n in range(KEPT - 1)]
    np.testing.assert_allclose(c, want, rtol=0, atol=1e-13 * np.abs(c).max())
    assert np.count_nonzero(np.abs(c / c[0]) >= 1e-12) == n_terms


def test_series_first_term_is_the_linear_closed_form():
    pump = make_pump(phi_max=1e-9)
    wg = make_waveguide()
    filters = make_filters(2.0, 2.0, pump)
    grid = make_grid(pump, [filters.signal, filters.idler], n_points=64)
    res = reference_jta(pump, wg, filters, grid, "simple_sxpm")
    want = reference_jta(pump, wg, filters, grid)
    np.testing.assert_allclose(res.values, want.values, rtol=1e-8)


def test_series_agrees_with_direct_convolution():
    pump = make_pump(phi_max=0.5)
    wg = make_waveguide()
    filters = make_filters(2.0, 2.0, pump)
    grid = make_grid(pump, [filters.signal, filters.idler], n_points=128)
    res = reference_jta(pump, wg, filters, grid, "simple_sxpm")
    direct = filtered_jta(build_diagonal_jta("simple_sxpm", pump, wg, grid), filters)
    num = np.linalg.norm(res.values - direct.values)
    assert num / np.linalg.norm(direct.values) < 1e-6
