import math
from fractions import Fraction

import numpy as np
import pytest

from sfwmsim import (Material, PumpPulse, Waveguide, check_free_carrier_regime,
                     effective_length, nonlinear_parameter, nonlinear_phase, phi_max,
                     propagate_power, pump_power_profile)
from conftest import make_pump, make_waveguide


def test_power_profile_peak_and_width():
    pump = PumpPulse(P0=2.0, sigma_t=3.0)
    assert pump_power_profile(pump, 0.0) == 2.0
    # one pulse width out: P0 * exp(-1/2)
    assert pump_power_profile(pump, 3.0) == pytest.approx(2.0 * 0.6065306597126334)


def test_spectral_width_is_reciprocal():
    assert PumpPulse(P0=1.0, sigma_t=2.0).sigma_w == 0.25


def test_effective_length_limits():
    assert effective_length(0.0, 1.7) == 1.7
    assert effective_length(2.0, 1e9) == pytest.approx(0.5)
    assert effective_length(1e-14, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_lossless_propagation_is_the_input_profile():
    pump = make_pump(phi_max=1.0)
    wg = make_waveguide()
    tau = np.linspace(-4.0, 4.0, 41)
    p0 = pump_power_profile(pump, tau)
    np.testing.assert_allclose(propagate_power(p0, wg, 0.7), p0, rtol=0, atol=1e-12)


def test_linear_loss_decay():
    pump = make_pump(phi_max=1.0)
    wg = make_waveguide(alpha=0.3)
    assert propagate_power(pump.P0, wg, 2.0) == pytest.approx(math.exp(-0.6))


def test_tpa_saturation_at_the_peak():
    pump = make_pump(phi_max=1.0)
    wg = make_waveguide(alpha2_P=0.5)
    # P0 / (1 + alpha2 * P0 * z) with zeta -> z when alpha = 0
    assert propagate_power(pump.P0, wg, 2.0) == pytest.approx(0.5)


def test_literal_z_matches_effective_length_when_lossless():
    pump = make_pump(phi_max=2.0)
    wg = make_waveguide(alpha2_P=0.7)
    tau = np.linspace(-3.0, 3.0, 13)
    p0 = pump_power_profile(pump, tau)
    np.testing.assert_allclose(propagate_power(p0, wg, 0.9, literal_z=True),
                               propagate_power(p0, wg, 0.9), rtol=0, atol=0)


def test_literal_z_differs_under_loss():
    pump = make_pump(phi_max=2.0)
    wg = make_waveguide(alpha=0.4, alpha2_P=0.7)
    a = float(propagate_power(pump.P0, wg, 1.0, literal_z=True))
    b = float(propagate_power(pump.P0, wg, 1.0))
    assert a != b
    assert a < b  # literal z overstates the depletion (z > Z_eff)


def test_nonlinear_phase_linear_growth_without_tpa():
    pump = make_pump(phi_max=0.8)
    wg = make_waveguide()
    assert nonlinear_phase(pump.P0, wg, 1.0) == pytest.approx(0.8, rel=1e-14)
    assert nonlinear_phase(pump.P0, wg, 0.5) == pytest.approx(0.4, rel=1e-14)


def test_nonlinear_phase_tpa_logarithm():
    # gamma/alpha2 * ln(1 + alpha2 P z): with everything 1 this is ln 2
    pump = make_pump(phi_max=1.0)
    wg = make_waveguide(alpha2_P=1.0)
    assert nonlinear_phase(pump.P0, wg, 1.0) == pytest.approx(math.log(2.0),
                                                                rel=1e-14)


def test_nonlinear_phase_series_branch_is_continuous():
    pump = make_pump(phi_max=1.0)
    wg_zero = make_waveguide(alpha2_P=0.0)
    wg_tiny = make_waveguide(alpha2_P=1e-12)
    a = nonlinear_phase(pump.P0, wg_zero, 1.0)
    b = nonlinear_phase(pump.P0, wg_tiny, 1.0)
    assert b == pytest.approx(a, rel=1e-12)


def test_nonlinear_phase_is_the_small_x_series_to_one_ulp():
    # with gamma = p0 = z = 1 and no loss, theta is log1p(x)/x at x = alpha2_P;
    # the exact series 1 - x/2 + x^2/3 (the next term is below 1e-24) rounded once
    for x in [*np.logspace(-300.0, -8.0, 293), *np.linspace(1e-9, 1e-8, 200)]:
        theta = float(nonlinear_phase(1.0, make_waveguide(alpha2_P=x), 1.0))
        exact = float(1 - Fraction(x) / 2 + Fraction(x) ** 2 / 3)
        assert abs(theta - exact) <= math.ulp(exact), x


def test_phi_max_product():
    assert phi_max(PumpPulse(P0=0.25, sigma_t=1.0),
                   Waveguide(gamma=2.0, length=3.0)) == pytest.approx(1.5)


def test_nonlinear_parameter_silicon_scale():
    """2 pi n2 / (lambda A_eff) lands near the textbook silicon value."""
    mat = Material(n2=6e-18, lambda_pump=1.55e-6, A_eff=2e-13)
    assert nonlinear_parameter(mat) == pytest.approx(121.61, rel=1e-3)


def test_free_carrier_ratio_example():
    res = check_free_carrier_regime(photon_energy=1.28e-19, sigma_FCA=1e-21,
                                    T0=1e-12, I0=1e12)
    assert res.ratio == pytest.approx(128.0)
    assert res.passed


def test_free_carrier_fails_below_threshold():
    res = check_free_carrier_regime(photon_energy=1.28e-19, sigma_FCA=1e-21,
                                    T0=1e-12, I0=2e13)
    assert res.ratio == pytest.approx(6.4)
    assert not res.passed


def test_free_carrier_zero_intensity_passes():
    res = check_free_carrier_regime(photon_energy=1.28e-19, sigma_FCA=1e-21,
                                    T0=1e-12, I0=0.0)
    assert math.isinf(res.ratio)
    assert res.passed
