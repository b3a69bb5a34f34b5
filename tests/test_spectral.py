import math

import numpy as np
import pytest

from sfwmsim import (AccuracyError, ConfigError, FilterPair, FilterSpec, JointAmplitudeMatrix,
                     SpectralGrid, TemporalGrid, build_diagonal_jta, compute_pair_metrics,
                     filtered_jta, jta_to_jsa, marginal_spectrum)
from oracles import jsa_to_jta, schmidt_spectrum
from conftest import (make_filters, make_grid, make_pump, make_waveguide, reference_jsa,
                      reference_jta)

TWO_PI = 2.0 * math.pi


def _closed_form_setup(phi=0.1, lam=2.0, mu=2.0, n_points=256):
    pump = make_pump(phi_max=phi)
    wg = make_waveguide()
    filters = make_filters(lam, mu, pump)
    grid = make_grid(pump, [filters.signal, filters.idler], n_points=n_points)
    return pump, wg, filters, grid


def test_conjugate_grid_rule():
    grid = TemporalGrid(n_points=128, dt=0.25)
    sgrid = SpectralGrid.conjugate_to(grid)
    assert sgrid.n_points == 128
    assert sgrid.d_omega * grid.dt * grid.n_points == pytest.approx(TWO_PI)
    assert sgrid.omega[64] == 0.0


def test_spectral_grid_validation():
    with pytest.raises(ConfigError):
        SpectralGrid(n_points=12, d_omega=0.1)
    with pytest.raises(ConfigError):
        SpectralGrid(n_points=16, d_omega=0.0)


def test_transform_of_a_separable_gaussian_is_self_dual():
    # exp(-tau^2/2) maps to exp(-delta^2/2) under the unitary e^{+i delta tau} kernel
    grid = TemporalGrid(n_points=256, dt=16.0 / 256)
    f = np.exp(-grid.tau ** 2 / 2.0)
    matrix = JointAmplitudeMatrix(grid, np.outer(f, f).astype(complex))
    jsa = jta_to_jsa(matrix)
    om = jsa.grid.omega
    want = np.outer(np.exp(-om ** 2 / 2.0), np.exp(-om ** 2 / 2.0))
    assert np.abs(jsa.values - want).max() < 1e-12
    assert np.abs(jsa.values.imag).max() < 1e-13


def test_round_trip_error():
    pump, wg, filters, grid = _closed_form_setup()
    mt = reference_jta(pump, wg, filters, grid)
    jsa = jta_to_jsa(mt)
    _, back = jsa_to_jta(jsa.grid.omega, jsa.values)
    err = np.abs(back - mt.values).max() / np.abs(mt.values).max()
    assert err <= 1e-12


def test_transform_matches_spectral_closed_form():
    pump, wg, filters, grid = _closed_form_setup()
    jsa = jta_to_jsa(reference_jta(pump, wg, filters, grid))
    closed = reference_jsa(pump, wg, filters, jsa.grid)
    scale = np.abs(closed.values).max()
    assert np.abs(jsa.values - closed.values).max() / scale < 1e-12


def test_parseval_and_pair_probability():
    """The squared norm of the filtered amplitude is the pair probability."""
    pump, wg, filters, grid = _closed_form_setup()
    mt = reference_jta(pump, wg, filters, grid)
    jsa = jta_to_jsa(mt)
    wt = grid.trapezoid_weights
    pt = float(np.sum(wt[:, None] * wt[None, :] * np.abs(mt.values) ** 2))
    ws = jsa.grid.trapezoid_weights
    pw = float(np.sum(ws[:, None] * ws[None, :] * np.abs(jsa.values) ** 2))
    assert pw == pytest.approx(pt, rel=1e-12)
    eta = compute_pair_metrics(build_diagonal_jta("linear", pump, wg, grid), filters).eta
    assert pt == pytest.approx(eta, rel=1e-10)


def test_a_transform_that_overflows_is_an_accuracy_error():
    # each axis sums 64 samples times dt / sqrt(2 pi): unit samples 1e200 apart
    # reach 2.6e201 after the first axis and overflow in the second
    grid = TemporalGrid(n_points=64, dt=1e200)
    matrix = JointAmplitudeMatrix(grid, np.ones((64, 64), dtype=complex))
    with pytest.warns(RuntimeWarning) as caught, pytest.raises(
            AccuracyError, match="the joint spectral amplitude is not finite"):
        jta_to_jsa(matrix)
    assert any("overflow" in str(w.message) for w in caught)


def test_purity_is_domain_independent():
    pump, wg, filters, grid = _closed_form_setup()
    mt = reference_jta(pump, wg, filters, grid)
    jsa = jta_to_jsa(mt)
    p_time, _ = schmidt_spectrum(grid.tau, grid.tau, mt.values)
    p_freq, _ = schmidt_spectrum(jsa.grid.omega, jsa.grid.omega, jsa.values)
    assert p_freq == pytest.approx(p_time, abs=1e-8)


def test_spectral_closed_form_peak_value():
    """The linear tier's JSA peaks at i phi / (2 sqrt(2 pi) sigma_w)."""
    pump, wg, filters, grid = _closed_form_setup()
    jsa = jta_to_jsa(filtered_jta(build_diagonal_jta("linear", pump, wg, grid), filters))
    k0 = grid.n_points // 2
    want = 1j * 0.1 / (2.0 * math.sqrt(TWO_PI) * pump.sigma_w)
    assert jsa.values[k0, k0] == pytest.approx(want, rel=1e-14)
    assert reference_jsa(pump, wg, filters, jsa.grid).values[k0, k0] == pytest.approx(
        want, rel=1e-14)


def test_unfiltered_jsa_is_an_energy_ridge():
    pump, wg, _, grid = _closed_form_setup()
    sgrid = SpectralGrid.conjugate_to(grid)
    unfiltered = FilterPair(FilterSpec.unfiltered(), FilterSpec.unfiltered())
    jsa = reference_jsa(pump, wg, unfiltered, sgrid)
    k0 = sgrid.n_points // 2
    # constant along delta_s + delta_i = 0
    assert jsa.values[k0 + 40, k0 - 40] == pytest.approx(jsa.values[k0, k0],
                                                         rel=1e-12)
    # decaying across the ridge
    assert abs(jsa.values[k0 + 40, k0 + 40]) < abs(jsa.values[k0, k0])


def test_marginal_variance_oracle():
    pump, wg, filters, grid = _closed_form_setup()
    jsa = jta_to_jsa(reference_jta(pump, wg, filters, grid))
    for m in marginal_spectrum(jsa):
        om = jsa.grid.omega
        var = float(np.sum(om ** 2 * m) / np.sum(m))
        assert var == pytest.approx(9.0 / 160.0, rel=1e-9)


def test_marginal_requires_frequency_domain():
    pump, wg, filters, grid = _closed_form_setup(n_points=64)
    mt = reference_jta(pump, wg, filters, grid)
    with pytest.raises(ConfigError):
        marginal_spectrum(mt)


def test_domain_tag_enforcement():
    pump, wg, filters, grid = _closed_form_setup(n_points=64)
    mt = reference_jta(pump, wg, filters, grid)
    with pytest.raises(ConfigError):
        jta_to_jsa(jta_to_jsa(mt))


def test_domain_is_derived_from_the_grids():
    tgrid = TemporalGrid(n_points=16, dt=0.5)
    sgrid = SpectralGrid.conjugate_to(tgrid)
    values = np.ones((16, 16), dtype=complex)
    assert JointAmplitudeMatrix(tgrid, values).domain_tag == "time"
    jsa = JointAmplitudeMatrix(sgrid, values)
    assert jsa.domain_tag == "frequency"
    # integrated with the spectral weights
    for m in marginal_spectrum(jsa):
        assert m == pytest.approx(np.full(16, sgrid.trapezoid_weights.sum()), rel=1e-15)
    # a time-grid amplitude can no longer be tagged as a spectral one
    with pytest.raises(TypeError):
        JointAmplitudeMatrix(tgrid, values, domain_tag="frequency")

