"""Acceptance gate: ten end-to-end criteria at fixed tolerances.

Each test evaluates one criterion, prints a single ``ACCEPTANCE <n> PASS|FAIL``
line to the real terminal (outside capture), and then asserts the criterion.
A FAIL line therefore always comes with a failing assert carrying the
measured numbers.
"""

import math
import time

import numpy as np
import pytest

import gaussian_reference
from sfwmsim import (FilterPair, FilterSpec, build_diagonal_jta,
                     check_free_carrier_regime, compute_pair_metrics, effective_length,
                     filtered_jta, gaussian_eta, gaussian_nu, gaussian_purity,
                     jta_to_jsa, nonlinear_phase, propagate_power, pump_power_profile,
                     schmidt_mode_count, single_sided_eta, single_sided_purity,
                     validate_low_excitation)
from oracles import jsa_to_jta, purity_quadrature, schmidt_spectrum
from conftest import (make_filters, make_grid, make_pump, make_waveguide,
                      reference_coefficients, reference_jsa, reference_jta)

RATIOS = (0.5, 1.0, 2.0, 4.0)


def _announce(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'} {detail}", flush=True)


def _linear_case(phi, lam, mu, n_points=512):
    pump = make_pump(phi_max=phi)
    wg = make_waveguide()
    filters = make_filters(lam, mu, pump)
    grid = make_grid(pump, [filters.signal, filters.idler], n_points=n_points)
    return pump, wg, filters, grid


def test_criterion_01_linear_purity_oracle(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for lam in RATIOS:
        for mu in RATIOS:
            pump, wg, filters, grid = _linear_case(0.1, lam, mu)
            diag = build_diagonal_jta("linear", pump, wg, grid)
            got = compute_pair_metrics(diag, filters).purity
            worst = max(worst, abs(got - gaussian_purity(lam, mu)))
    anchor_err = abs(gaussian_purity(2.0, 2.0) - 0.993808)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and anchor_err < 5e-7 and elapsed <= 10.0
    _announce(capsys, 1, ok,
              f"purity max |err| {worst:.3e} over 16 filter combinations, "
              f"anchor err {anchor_err:.1e}, {elapsed:.1f}s")
    assert worst <= 1e-4
    assert anchor_err < 5e-7
    assert elapsed <= 10.0


def test_criterion_02_pair_rate_oracle(capsys):
    worst = 0.0
    for phi in (0.05, 0.1):
        for lam in RATIOS:
            for mu in RATIOS:
                pump, wg, filters, grid = _linear_case(phi, lam, mu)
                diag = build_diagonal_jta("linear", pump, wg, grid)
                eta = compute_pair_metrics(diag, filters).eta
                want = gaussian_eta(phi, lam, mu)
                worst = max(worst, abs(eta - want) / want)
    anchor_err = abs(gaussian_eta(0.1, 2.0, 2.0) - 5.5902e-4) / 5.5902e-4
    ok = worst <= 1e-4 and anchor_err < 1e-5
    _announce(capsys, 2, ok,
              f"pair rate max rel err {worst:.3e} over 32 cases, "
              f"anchor rel err {anchor_err:.1e}")
    assert worst <= 1e-4
    assert anchor_err < 1e-5


def test_criterion_03_heralding_efficiency_oracle(capsys):
    worst = 0.0
    for lam in RATIOS:
        for mu in RATIOS:
            pump, wg, filters, grid = _linear_case(0.1, lam, mu)
            diag = build_diagonal_jta("linear", pump, wg, grid)
            nu = compute_pair_metrics(diag, filters).nu
            want = gaussian_nu(lam, mu)
            worst = max(worst, abs(nu - want) / want)
    anchor_err = abs(gaussian_nu(2.0, 2.0) - 1.0 / math.sqrt(10.0))
    # unfiltered idler must give exactly 1
    pump, wg, _, grid = _linear_case(0.1, 2.0, 2.0)
    pair = FilterPair(FilterSpec(sigma_f=0.25), FilterSpec.unfiltered())
    diag = build_diagonal_jta("linear", pump, wg, grid)
    nu_unfiltered = compute_pair_metrics(diag, pair).nu
    ok = worst <= 1e-4 and anchor_err == 0.0 and nu_unfiltered == 1.0
    _announce(capsys, 3, ok,
              f"efficiency max rel err {worst:.3e} over 16 cases, "
              f"unfiltered idler -> {nu_unfiltered}")
    assert worst <= 1e-4
    assert anchor_err == 0.0
    assert nu_unfiltered == 1.0


def test_criterion_04_phase_cancellation_with_unfiltered_idler(capsys):
    t0 = time.perf_counter()
    filt = FilterSpec(sigma_f=0.25)  # lambda = 2
    pump0, wg, _, grid = _linear_case(1.0, 2.0, 0.0)
    # phi -> 0 limit of the phase-modulated model is the linear model
    linear = build_diagonal_jta("linear", pump0, wg, grid)
    base_purity = single_sided_purity(linear, filt)
    base_rate = single_sided_eta(linear, filt)  # phi^2 = 1
    purities, rates = [base_purity], [base_rate]
    members = [(1.0, linear)]  # (phi, diagonal), the linear tier at phi = 1
    for phi in (0.5, 1.0, 2.0):
        pump = make_pump(phi_max=phi)
        diag = build_diagonal_jta("simple_sxpm", pump, wg, grid)
        purities.append(single_sided_purity(diag, filt))
        rates.append(single_sided_eta(diag, filt) / phi ** 2)
        members.append((phi, diag))
    # the phi=0 member of the set: rate vanishes identically
    rate_at_zero = single_sided_eta(
        build_diagonal_jta("simple_sxpm", make_pump(phi_max=0.0), wg, grid), filt)
    p_spread = (max(purities) - min(purities)) / min(purities)
    r_spread = (max(rates) - min(rates)) / min(rates)
    p_closed = abs(purities[0] - gaussian_purity(2.0, 0.0)) / gaussian_purity(2.0, 0.0)
    r_closed = abs(rates[0] - gaussian_eta(1.0, 2.0, 0.0)) / gaussian_eta(1.0, 2.0, 0.0)
    # what the CLI reports: compute_pair_metrics with only the signal or only
    # the idler filtered, against the linear tier's weights
    none = FilterSpec.unfiltered()
    base_weights = compute_pair_metrics(linear, FilterPair(filt, none)).schmidt_weights
    reported_spreads, w_spread, nus = [], 0.0, []
    for pair in (FilterPair(filt, none), FilterPair(none, filt)):
        pms = [(phi, compute_pair_metrics(diag, pair)) for phi, diag in members]
        for values in ([pm.purity for _, pm in pms], [pm.eta / phi ** 2 for phi, pm in pms]):
            reported_spreads.append((max(values) - min(values)) / min(values))
        for _, pm in pms:
            assert len(pm.schmidt_weights) == len(base_weights)
            assert schmidt_mode_count(pm.schmidt_weights) == schmidt_mode_count(base_weights)
            w_spread = max(w_spread, float(np.max(np.abs(pm.schmidt_weights - base_weights))))
        nus.append({pm.nu for _, pm in pms})
    elapsed = time.perf_counter() - t0
    ok = (p_spread <= 1e-9 and r_spread <= 1e-9 and rate_at_zero == 0.0
          and p_closed <= 1e-4 and r_closed <= 1e-4 and max(reported_spreads) <= 1e-9
          and w_spread <= 1e-15 and elapsed <= 5.0)
    _announce(capsys, 4, ok,
              f"purity spread {p_spread:.1e}, normalized rate spread "
              f"{r_spread:.1e}, rate at zero power {rate_at_zero}, closed-form "
              f"errs {p_closed:.1e}/{r_closed:.1e}, reported spreads "
              f"{max(reported_spreads):.1e}, weight spread {w_spread:.1e}, {elapsed:.1f}s")
    assert p_spread <= 1e-9
    assert r_spread <= 1e-9
    assert rate_at_zero == 0.0
    assert p_closed <= 1e-4
    assert r_closed <= 1e-4
    assert max(reported_spreads) <= 1e-9
    assert w_spread <= 1e-15
    assert nus == [{1.0}, {None}]
    assert elapsed <= 5.0


def _spectral_series_purity(pump, wg, filters, model):
    """Heralded purity of a model tier from the Gaussian-series reference,
    which shares no code with the package: its filtered JSA is sampled on a
    uniform 401-point grid over +-5 rad/ps, and its singular values give the
    purity."""
    w = np.linspace(-5.0, 5.0, 401)
    jsa = gaussian_reference.filtered_jsa(
        reference_coefficients(pump, wg, model), pump.sigma_t,
        filters.signal.sigma_f, filters.idler.sigma_f, w, w)
    return gaussian_reference.purity(jsa)


def test_criterion_05_nonlinear_trends(capsys):
    # SPM/XPM with both photons filtered (ratio-2 filters): the purity change
    # against the linear model is pinned to a closed-form spectral reference.
    # Its measured shape is a dip of about 4e-5 up to phi_max = 1, then a
    # growing rise; the pair rate at phi_max = 2 falls below the linear one.
    t0 = time.perf_counter()
    wg = make_waveguide()
    pump0 = make_pump(phi_max=1.0)
    # the purity is scale free, so the linear tier at any phi is its phi -> 0 limit
    linear_err = abs(_spectral_series_purity(pump0, wg, make_filters(2.0, 2.0, pump0),
                                             "linear") - gaussian_purity(2.0, 2.0))
    deltas, ref_errs = {}, {}
    for phi in (0.5, 1.0, 1.5, 2.0):
        pump = make_pump(phi_max=phi)
        filters = make_filters(2.0, 2.0, pump)
        grid = make_grid(pump, [filters.signal, filters.idler])
        p_simple, p_linear = (
            compute_pair_metrics(build_diagonal_jta(model, pump, wg, grid), filters).purity
            for model in ("simple_sxpm", "linear"))
        p_ref = _spectral_series_purity(pump, wg, filters, "simple_sxpm")
        deltas[phi] = p_simple - p_linear
        ref_errs[phi] = abs(p_simple - p_ref)
    pump2 = make_pump(phi_max=2.0)
    filters2 = make_filters(2.0, 2.0, pump2)
    grid2 = make_grid(pump2, [filters2.signal, filters2.idler])
    ratio = (compute_pair_metrics(build_diagonal_jta("simple_sxpm", pump2, wg, grid2),
                                  filters2).eta
             / compute_pair_metrics(build_diagonal_jta("linear", pump2, wg, grid2),
                                    filters2).eta)
    elapsed = time.perf_counter() - t0
    worst_ref = max(ref_errs.values())
    rate_ok = ratio < 1.0
    ref_ok = linear_err <= 1e-12 and worst_ref <= 1e-10
    shape_ok = (all(-1e-4 < deltas[phi] < 0.0 for phi in (0.5, 1.0))
                and 0.0 < deltas[1.5] < deltas[2.0])
    ok = rate_ok and ref_ok and shape_ok and elapsed <= 60.0
    dp_text = ", ".join(f"phi={phi}: {dp:+.3e}" for phi, dp in deltas.items())
    numbers = (f"purity deltas {dp_text}; max |P - reference| {worst_ref:.1e}, "
               f"linear-tier err {linear_err:.1e}")
    _announce(capsys, 5, ok,
              f"rate ratio {ratio:.5f} (<1: {rate_ok}); {numbers}; "
              f"{elapsed:.1f}s")
    assert rate_ok, f"rate ratio {ratio:.5f} at phi=2 is not below 1"
    assert elapsed <= 60.0
    assert linear_err <= 1e-12, (
        "spectral reference misses the Gaussian closed form: " + numbers)
    assert worst_ref <= 1e-10, (
        "simple_sxpm purity departs from the spectral reference: " + numbers)
    assert shape_ok, (
        "purity change is not a dip above -1e-4 at phi<=1 followed by a "
        "growing rise: " + numbers)


def test_criterion_06_series_vs_convolution(capsys):
    worst = 0.0
    worst_dropped = 0.0
    wg = make_waveguide()
    for phi in (0.5, 1.0, 2.0):
        pump = make_pump(phi_max=phi)
        filters = make_filters(2.0, 2.0, pump)
        grid = make_grid(pump, [filters.signal, filters.idler])
        res = reference_jta(pump, wg, filters, grid, "simple_sxpm")
        direct = filtered_jta(build_diagonal_jta("simple_sxpm", pump, wg, grid), filters)
        err = (np.linalg.norm(res.values - direct.values)
               / np.linalg.norm(direct.values))
        worst = max(worst, err)
        # the reference sums the terms below KEPT; the ones it drops must be round-off
        c = np.abs(reference_coefficients(pump, wg, "simple_sxpm"))
        worst_dropped = max(worst_dropped, c[gaussian_reference.KEPT:].max() / c.max())
    ok = worst <= 1e-6 and worst_dropped < 1e-16
    _announce(capsys, 6, ok,
              f"series vs convolution max Frobenius rel err {worst:.3e}, "
              f"largest dropped coefficient {worst_dropped:.3e} of the largest")
    assert worst <= 1e-6
    assert worst_dropped < 1e-16


def test_criterion_07_fourier_duality(capsys):
    pump, wg, filters, grid = _linear_case(0.1, 2.0, 2.0)
    mt = reference_jta(pump, wg, filters, grid)
    jsa = jta_to_jsa(mt)
    p_time, _ = schmidt_spectrum(grid.tau, grid.tau, mt.values)
    p_freq, _ = schmidt_spectrum(jsa.grid.omega, jsa.grid.omega, jsa.values)
    duality_err = abs(p_freq - p_time)
    _, back = jsa_to_jta(jsa.grid.omega, jsa.values)
    round_trip = np.abs(back - mt.values).max() / np.abs(mt.values).max()
    closed = reference_jsa(pump, wg, filters, jsa.grid)
    closed_err = (np.abs(jsa.values - closed.values).max()
                  / np.abs(closed.values).max())
    ok = duality_err <= 1e-8 and round_trip <= 1e-12 and closed_err <= 1e-6
    _announce(capsys, 7, ok,
              f"purity duality err {duality_err:.2e}, round trip "
              f"{round_trip:.2e}, spectral closed-form err {closed_err:.2e}")
    assert duality_err <= 1e-8
    assert round_trip <= 1e-12
    assert closed_err <= 1e-6


def test_criterion_08_quadrature_vs_svd_purity(capsys):
    t0 = time.perf_counter()
    wg = make_waveguide()
    gaps = []
    # the weak-pump point: the quadrature is scale invariant, so any phi
    # samples the linear (no-phase-modulation) amplitude shape
    for phi, model in ((0.1, "linear"), (1.0, "simple_sxpm")):
        pump = make_pump(phi_max=phi)
        filters = make_filters(2.0, 2.0, pump)
        grid = make_grid(pump, [filters.signal, filters.idler], n_points=64)
        diag = build_diagonal_jta(model, pump, wg, grid)
        quad = purity_quadrature(grid.tau, diag.values, filters.signal.sigma_f,
                                 filters.idler.sigma_f)
        svd = compute_pair_metrics(diag, filters).purity
        gaps.append(abs(quad - svd))
    elapsed = time.perf_counter() - t0
    ok = max(gaps) <= 2e-3 and elapsed <= 120.0
    _announce(capsys, 8, ok,
              f"quadrature vs SVD gaps {gaps[0]:.2e} (weak pump), "
              f"{gaps[1]:.2e} (phi=1), {elapsed:.1f}s")
    assert max(gaps) <= 2e-3
    assert elapsed <= 120.0


def test_criterion_09_closed_form_limits(capsys):
    worst = 0.0
    for phi, db0 in ((0.5, 3.0), (1.0, -2.0), (2.0, 0.0)):
        pump = make_pump(phi_max=phi)
        wg = make_waveguide(delta_beta0=db0)
        grid = make_grid(pump, n_points=256)
        gen = build_diagonal_jta("general_quadrature", pump, wg, grid)
        ref = build_diagonal_jta("sinc", pump, wg, grid)
        worst = max(worst, float(np.linalg.norm(gen.values - ref.values)
                                 / np.linalg.norm(ref.values)))
    # loss-free propagation limits must be exact
    pump = make_pump(phi_max=1.0)
    wg0 = make_waveguide()
    tau = np.linspace(-3.0, 3.0, 25)
    p0 = pump_power_profile(pump, tau)
    prop_err = np.abs(propagate_power(p0, wg0, 0.8) - p0).max()
    len_err = abs(effective_length(0.0, 0.8) - 0.8)
    phase_err = abs(nonlinear_phase(pump.P0, wg0, 0.8) - 0.8)
    limits_err = max(prop_err, len_err, phase_err)
    ok = worst <= 1e-8 and limits_err <= 1e-12
    _announce(capsys, 9, ok,
              f"quadrature vs closed form max rel err {worst:.2e}, "
              f"propagation limit err {limits_err:.2e}")
    assert worst <= 1e-8
    assert limits_err <= 1e-12


def test_criterion_10_regime_guards(capsys):
    at_bound_ok, _ = validate_low_excitation(0.1)
    above, above_msg = validate_low_excitation(np.nextafter(0.1, 1.0))
    carrier = check_free_carrier_regime(photon_energy=1.28e-19, sigma_FCA=1e-21,
                                        T0=1e-12, I0=1e12)
    failing = check_free_carrier_regime(photon_energy=1.28e-19, sigma_FCA=1e-21,
                                        T0=1e-12, I0=2e13)
    ok = (at_bound_ok and not above and above_msg != ""
          and carrier.passed and carrier.ratio == pytest.approx(128.0)
          and not failing.passed)
    _announce(capsys, 10, ok,
              f"eta flag fires just above 0.1: {not above}; free-carrier ratio "
              f"{carrier.ratio:.0f} passes, {failing.ratio:.1f} fails")
    assert at_bound_ok
    assert not above and above_msg != ""
    assert carrier.ratio == pytest.approx(128.0) and carrier.passed
    assert not failing.passed
