import contextlib
import hashlib
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

import sfwmsim.jta

from sfwmsim import (MODEL_NAMES, AccuracyError, ConfigError, DiagonalJTA, FilterSpec,
                     ModelCompatibilityError, PumpPulse, TemporalGrid, Waveguide,
                     build_diagonal_jta, pump_power_profile)
from conftest import (break_propagate_power, make_grid, make_pump, make_waveguide,
                      sample_at)

SINC_HALF = math.sin(0.5) / 0.5  # 0.958851...


def test_linear_is_purely_imaginary_with_peak_phi():
    pump = make_pump(phi_max=0.3)
    grid = make_grid(pump, n_points=128)
    diag = build_diagonal_jta("linear", pump, make_waveguide(), grid)
    assert np.all(diag.values.real == 0.0)
    k0 = sample_at(grid, 0.0)
    assert diag.values[k0] == pytest.approx(0.3j)
    # Gaussian envelope of the power profile
    k1 = sample_at(grid, 1.0)
    assert abs(diag.values[k1]) == pytest.approx(0.3 * math.exp(-0.5), rel=1e-12)


def test_simple_sxpm_keeps_the_linear_magnitude():
    pump = make_pump(phi_max=0.8)
    grid = make_grid(pump, n_points=128)
    wg = make_waveguide()
    lin = build_diagonal_jta("linear", pump, wg, grid)
    spm = build_diagonal_jta("simple_sxpm", pump, wg, grid)
    np.testing.assert_allclose(np.abs(spm.values), np.abs(lin.values),
                               rtol=1e-14, atol=0)
    # each sample rotated by three times the local nonlinear phase
    ratio = spm.values / np.where(lin.values == 0, 1, lin.values)
    k0 = sample_at(grid, 0.0)
    assert ratio[k0] == pytest.approx(np.exp(3j * 0.8), rel=1e-12)


def test_sinc_envelope_at_matched_peak():
    """delta_beta0 = 2 gamma P0 puts the peak exactly on phase matching."""
    pump = make_pump(phi_max=0.5)
    wg = make_waveguide(delta_beta0=1.0)
    grid = make_grid(pump, n_points=128)
    k0 = sample_at(grid, 0.0)
    lin = build_diagonal_jta("linear", pump, make_waveguide(), grid)
    snc = build_diagonal_jta("sinc", pump, wg, grid)
    assert abs(snc.values[k0]) == pytest.approx(abs(lin.values[k0]), rel=1e-12)


def test_sinc_suppression_without_mismatch():
    # at the peak the argument is -gamma P0 L = -0.5
    pump = make_pump(phi_max=0.5)
    grid = make_grid(pump, n_points=128)
    lin = build_diagonal_jta("linear", pump, make_waveguide(), grid)
    snc = build_diagonal_jta("sinc", pump, make_waveguide(), grid)
    k0 = sample_at(grid, 0.0)
    assert abs(snc.values[k0] / lin.values[k0]) == pytest.approx(SINC_HALF,
                                                                 rel=1e-12)


def test_sinc_phase_includes_half_mismatch():
    pump = make_pump(phi_max=0.4)
    wg = make_waveguide(delta_beta0=2.5)
    grid = make_grid(pump, n_points=128)
    snc = build_diagonal_jta("sinc", pump, wg, grid)
    k0 = sample_at(grid, 0.0)
    expected = np.angle(1j * np.exp(1j * (3 * 0.4 + 2.5 / 2.0)))
    assert np.angle(snc.values[k0]) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("model", ["linear", "simple_sxpm", "sinc"],
                         ids=["jta_linear", "jta_simple", "jta_sinc"])
def test_lossy_waveguide_rejected_by_closed_form_models(model):
    pump = make_pump()
    grid = make_grid(pump, n_points=64)
    with pytest.raises(ModelCompatibilityError, match="general_quadrature"):
        build_diagonal_jta(model, pump, make_waveguide(alpha=0.1), grid)
    with pytest.raises(ModelCompatibilityError):
        build_diagonal_jta(model, pump, make_waveguide(alpha2_P=0.1), grid)


def test_general_matches_simple_at_weak_pump():
    # the residual sinc(gamma P L) factor is ~1 - phi^2/6, so use phi = 1e-5
    pump = make_pump(phi_max=1e-5)
    wg = make_waveguide()
    grid = make_grid(pump, n_points=128)
    gen = build_diagonal_jta("general_quadrature", pump, wg, grid)
    ref = build_diagonal_jta("simple_sxpm", pump, wg, grid)
    err = np.linalg.norm(gen.values - ref.values) / np.linalg.norm(ref.values)
    assert err <= 1e-10


@pytest.mark.parametrize("phi,db0", [(0.5, 0.0), (0.5, 3.0), (2.0, -1.5)])
def test_general_reduces_to_sinc_when_lossless(phi, db0):
    pump = make_pump(phi_max=phi)
    wg = make_waveguide(delta_beta0=db0)
    grid = make_grid(pump, n_points=128)
    gen = build_diagonal_jta("general_quadrature", pump, wg, grid)
    ref = build_diagonal_jta("sinc", pump, wg, grid)
    err = np.linalg.norm(gen.values - ref.values) / np.linalg.norm(ref.values)
    assert err <= 1e-8


def test_general_loss_shrinks_the_amplitude():
    pump = make_pump(phi_max=1.0)
    grid = make_grid(pump, n_points=128)
    lossless = build_diagonal_jta("general_quadrature", pump, make_waveguide(), grid)
    lossy = build_diagonal_jta("general_quadrature", pump, make_waveguide(alpha=0.8), grid)
    assert np.all(np.abs(lossy.values) <= np.abs(lossless.values) + 1e-15)
    assert np.abs(lossy.values).max() < np.abs(lossless.values).max()


def test_general_literal_z_changes_tpa_results():
    pump = make_pump(phi_max=1.0)
    wg = make_waveguide(alpha=0.2, alpha2_P=0.5)
    grid = make_grid(pump, n_points=64)
    a = build_diagonal_jta("general_quadrature", pump, wg, grid)
    b = build_diagonal_jta("general_quadrature", pump, wg, grid, literal_z=True)
    assert np.abs(a.values - b.values).max() > 1e-6


def _inf_times_phase_warns(bad):
    # inf times a unit phase has a NaN part: numpy warns, and the warning reaches the caller
    if math.isinf(bad):
        return pytest.warns(RuntimeWarning, match="invalid value")
    return contextlib.nullcontext()


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_a_non_finite_quadrature_is_an_accuracy_error(monkeypatch, bad):
    """A non-finite integrand makes the relative change NaN, which compares
    false with any tolerance; it must not pass as converged."""
    break_propagate_power(monkeypatch, bad)
    pump = make_pump(phi_max=0.1)
    grid = make_grid(pump, n_points=64)
    with _inf_times_phase_warns(bad), pytest.raises(AccuracyError) as excinfo:
        build_diagonal_jta("general_quadrature", pump, make_waveguide(), grid)
    assert str(excinfo.value) == ("quadrature not finite: the estimates of orders 64 "
                                  "and 128 hold non-finite values")
    coarse, fine = excinfo.value.coarse, excinfo.value.fine
    assert coarse.shape == fine.shape == (64,)
    assert not np.all(np.isfinite(fine))


def _scale_propagate_power(monkeypatch, factor, coarse_factor):
    """Scale the power at every quadrature node by ``factor``, and at the
    coarse order's nodes by ``coarse_factor`` on top."""
    real = sfwmsim.jta.propagate_power

    def scaled(p, wg, z, literal_z=False):
        extra = coarse_factor if len(z) == sfwmsim.jta.QUADRATURE_ORDER else 1.0
        return real(p, wg, z, literal_z=literal_z) * factor * extra

    monkeypatch.setattr(sfwmsim.jta, "propagate_power", scaled)


@pytest.mark.parametrize("factor", [1e156, 1e160])
def test_huge_finite_quadrature_estimates_are_checked_for_convergence(monkeypatch, factor):
    """Estimates whose norms overflow are finite all the same: a relative
    change of 1e-3 between them is a convergence failure, and agreeing
    estimates are returned."""
    pump = make_pump(phi_max=0.1)
    grid = make_grid(pump, n_points=64)
    exact = build_diagonal_jta("general_quadrature", pump, make_waveguide(), grid)
    _scale_propagate_power(monkeypatch, factor, 1.0)
    agreeing = build_diagonal_jta("general_quadrature", pump, make_waveguide(), grid)
    np.testing.assert_allclose(agreeing.values, factor * exact.values, rtol=1e-13)
    monkeypatch.undo()
    _scale_propagate_power(monkeypatch, factor, 1.001)
    with pytest.raises(AccuracyError) as excinfo:
        build_diagonal_jta("general_quadrature", pump, make_waveguide(), grid)
    assert str(excinfo.value) == ("quadrature not converged: relative change 1.000e-03 "
                                  "between orders 64 and 128 exceeds 1e-08")
    assert np.all(np.isfinite(excinfo.value.coarse))
    assert np.all(np.isfinite(excinfo.value.fine))


def test_general_unconverged_quadrature_raises():
    pump = make_pump(phi_max=0.1)
    wg = make_waveguide(delta_beta0=4e4)  # ~6400 oscillations over the length
    grid = make_grid(pump, n_points=64)
    with pytest.raises(AccuracyError) as excinfo:
        build_diagonal_jta("general_quadrature", pump, wg, grid)
    coarse, fine = excinfo.value.coarse, excinfo.value.fine
    assert coarse.shape == fine.shape == (64,)
    # full-grid estimates, mirrored about the zero sample, and the change is theirs
    for estimate in (coarse, fine):
        bits = estimate.view(np.uint64).reshape(-1, 2)
        np.testing.assert_array_equal(bits[1:], bits[:0:-1])
    change = np.linalg.norm(fine - coarse) / np.linalg.norm(fine)
    assert f"relative change {change:.3e} between orders 64 and 128" in str(excinfo.value)


def _readme_guide(phi, lossy=False, n_points=256):
    """The README's waveguide, pulse and ratio-2 filters at peak phase ``phi``;
    lossy is alpha = 20 /m and alpha2_P = 5 /(W m)."""
    pump = PumpPulse(P0=phi / (121.6 * 0.005), sigma_t=1.0)
    wg = Waveguide(gamma=121.6, length=0.005, alpha=20.0 if lossy else 0.0,
                   alpha2_P=5.0 if lossy else 0.0)
    filt = FilterSpec(sigma_f=0.25)
    return pump, wg, make_grid(pump, [filt, filt], n_points=n_points)


def _powers_per_call(monkeypatch):
    """The number of powers each ``propagate_power`` call of the builder sees."""
    rows = []
    real = sfwmsim.jta.propagate_power

    def counting(p, wg, z, literal_z=False):
        rows.append(len(p))
        return real(p, wg, z, literal_z=literal_z)

    monkeypatch.setattr(sfwmsim.jta, "propagate_power", counting)
    return rows


@pytest.mark.parametrize("lossy", [False, True], ids=["lossless", "lossy"])
@pytest.mark.parametrize("phi", [0.5, 2.0])
def test_general_quadrature_cost_does_not_depend_on_the_grid_size(monkeypatch, phi, lossy):
    """Both orders run on the same few Chebyshev powers at every N."""
    rows = _powers_per_call(monkeypatch)
    calls = set()
    for n_points in (256, 512, 1024, 2048):
        rows.clear()
        build_diagonal_jta("general_quadrature", *_readme_guide(phi, lossy, n_points))
        calls.add(tuple(rows))
    assert len(calls) == 1
    (powers,) = calls
    assert len(powers) % 2 == 0 and max(powers) < 65


@pytest.mark.parametrize("lossy", [False, True], ids=["lossless", "lossy"])
def test_general_quadrature_doubles_the_powers_until_a_quarter_of_the_series_is_round_off(
        monkeypatch, lossy):
    """At phi_max = 3.5 fewer than a quarter of the 33 coefficients (8) trail
    the cut, so the series is not trusted to have reached round-off until the
    powers double."""
    rows = _powers_per_call(monkeypatch)
    for n_points in (256, 1024):
        rows.clear()
        build_diagonal_jta("general_quadrature", *_readme_guide(3.5, lossy, n_points))
        assert rows == [33, 33, 66, 66]


# sha256 prefixes of the sample bytes at gamma = L = 1, dbeta0 = 3 /m, N = 256,
# recorded while a peak below 2**-1023 was still checked (and numpy warned)
_SUBNORMAL_DIGESTS = {(1e-310, False): "0bea433af0afe03b", (1e-310, True): "0e64c7fe5c920fda",
                      (1e-320, False): "54d115d3676e10b0", (1e-320, True): "3e06bb8affa4a806",
                      (3e-308, False): "c3de628d5c90c889", (3e-308, True): "24dab73ad97f2a03"}


@pytest.mark.parametrize("lossy", [False, True], ids=["lossless", "lossy"])
@pytest.mark.parametrize("p0", [1e-310, 1e-320, 3e-308])
def test_general_quadrature_near_the_subnormal_range_warns_nothing(p0, lossy):
    """A peak below 2**-1023 is not checked for a change, so nothing divides by
    a subnormal scale (numpy warned, and warnings are errors here); the
    samples keep their bits. At 3e-308 the lossless peak is above 2**-1023
    and is still checked."""
    pump = PumpPulse(P0=p0, sigma_t=1.0)
    wg = make_waveguide(delta_beta0=3.0, alpha=20.0 if lossy else 0.0,
                        alpha2_P=5.0 if lossy else 0.0)
    values = build_diagonal_jta("general_quadrature", pump, wg,
                                make_grid(pump, n_points=256)).values
    assert 0.0 < np.abs(values).max() < np.finfo(float).tiny
    assert hashlib.sha256(values.tobytes()).hexdigest()[:16] == _SUBNORMAL_DIGESTS[p0, lossy]


# samples of the README guide at phi_max = 60, N = 256, recorded with the
# estimates taken on every grid power
_FALLBACK_SAMPLES = {
    False: {0: ("-0x0.0p+0", "0x1.2fcf94ed6e89dp-733"),
            40: ("-0x1.18fbe3fabc603p-685", "0x1.b5f882d7a2c24p-344"),
            96: ("-0x1.0c082cae49791p-79", "0x1.abc1ea7eb4e23p-41"),
            120: ("0x1.58b84d5042754p-1", "0x1.61ce8bc84ed29p-1"),
            128: ("-0x1.f41f0ab212e2fp-3", "0x1.75970952aa359p-3"),
            200: ("-0x1.f3eb4131ce95fp-455", "0x1.241853800c312p-228")},
    True: {0: ("-0x0.0p+0", "0x1.211d40714db67p-733"),
           40: ("-0x1.fce9d89ec0586p-686", "0x1.a0c8c5f576ed3p-344"),
           96: ("-0x1.e57479f37a35bp-80", "0x1.9710a8356a6e0p-41"),
           120: ("-0x1.96760a09123abp-2", "0x1.e48bcbb18fa52p-4"),
           128: ("0x1.5ef26e6e896c4p-3", "-0x1.c26edfd66b822p-1"),
           200: ("-0x1.c4b8f36c941bap-455", "0x1.15f7152ac24cdp-228")},
}


@pytest.mark.parametrize("lossy", [False, True], ids=["lossless", "lossy"])
def test_general_quadrature_falls_back_to_the_grid_powers(monkeypatch, lossy):
    """At phi_max = 60 the series needs more powers than the grid has: the
    estimates are taken on the N/2 + 1 grid powers, as they were before."""
    rows = _powers_per_call(monkeypatch)
    values = build_diagonal_jta("general_quadrature", *_readme_guide(60.0, lossy)).values
    assert rows[-2:] == [129, 129]
    assert max(rows[:-2]) < 129
    got = {k: (values[k].real.hex(), values[k].imag.hex()) for k in _FALLBACK_SAMPLES[lossy]}
    assert got == _FALLBACK_SAMPLES[lossy]


@pytest.mark.parametrize("lossy", [False, True], ids=["lossless", "lossy"])
def test_general_quadrature_at_zero_pump_is_positive_zero(monkeypatch, lossy):
    rows = _powers_per_call(monkeypatch)
    values = build_diagonal_jta("general_quadrature", *_readme_guide(0.0, lossy)).values
    assert rows == [129, 129]
    assert {(v.real.hex(), v.imag.hex()) for v in values} == {("0x0.0p+0", "0x0.0p+0")}


def test_general_quadrature_with_subnormal_chebyshev_powers_integrates_the_grid(
        monkeypatch):
    """At P0 = 3e-308 the lowest Chebyshev powers are subnormal, where F/p is
    not resolved (numpy warns, and warnings are errors here): the grid powers
    are integrated instead."""
    rows = _powers_per_call(monkeypatch)
    pump = make_pump(phi_max=3e-308)
    grid = make_grid(pump, n_points=256)
    values = build_diagonal_jta("general_quadrature", pump, make_waveguide(), grid).values
    assert rows == [129, 129]
    assert np.abs(values).max() == pytest.approx(3e-308, rel=1e-3)


def test_diagonal_jta_validation():
    grid = TemporalGrid(n_points=16, dt=0.5)
    with pytest.raises(ConfigError):
        DiagonalJTA(grid, np.ones(8, dtype=complex))
    bad = np.ones(16, dtype=complex)
    bad[3] = np.nan + 0j
    with pytest.raises(ConfigError):
        DiagonalJTA(grid, bad)


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.inf)])
def test_diagonal_jta_accepts_strided_views_and_rejects_strided_non_finite(bad):
    pump = make_pump(phi_max=1.0)
    grid = make_grid(pump, n_points=128)
    diag = build_diagonal_jta("simple_sxpm", pump, make_waveguide(), grid)
    half_grid = TemporalGrid(n_points=64, dt=2.0 * grid.dt)
    half = DiagonalJTA(half_grid, diag.values[::2])
    np.testing.assert_array_equal(half.values, diag.values[::2])
    values = diag.values.copy()
    values[6] = bad
    with pytest.raises(ConfigError, match="non-finite"):
        DiagonalJTA(half_grid, values[::2])


@pytest.mark.parametrize("order", [64, 128])
def test_gauss_legendre_rules_are_cached_and_read_only(order):
    nodes, weights = sfwmsim.jta._gauss_legendre(order)
    assert sfwmsim.jta._gauss_legendre(order) == (nodes, weights)
    assert not nodes.flags.writeable and not weights.flags.writeable
    with pytest.raises(ValueError):
        nodes[0] = 0.0
    ref_nodes, ref_weights = leggauss(order)
    np.testing.assert_array_equal(nodes.view(np.uint64), ref_nodes.view(np.uint64))
    np.testing.assert_array_equal(weights.view(np.uint64), ref_weights.view(np.uint64))


@pytest.mark.parametrize("literal_z", [False, True])
def test_general_with_cached_rules_equals_direct_leggauss(monkeypatch, literal_z):
    pump = make_pump(phi_max=1.0)
    wg = make_waveguide(alpha=0.2, alpha2_P=0.5, delta_beta0=1.5)
    grid = make_grid(pump, n_points=128)
    cached = build_diagonal_jta("general_quadrature", pump, wg, grid, literal_z).values
    monkeypatch.setattr(sfwmsim.jta, "_gauss_legendre", leggauss)
    direct = build_diagonal_jta("general_quadrature", pump, wg, grid, literal_z).values
    np.testing.assert_array_equal(cached.view(np.uint64), direct.view(np.uint64))


def test_edge_tail_ratio():
    pump = make_pump(phi_max=1.0)
    grid = make_grid(pump, n_points=128)
    diag = build_diagonal_jta("linear", pump, make_waveguide(), grid)
    # right edge sits at +8 - dt = 7.875 and dominates the left one at -8
    assert diag.edge_tail_ratio() == pytest.approx(math.exp(-7.875 ** 2 / 2.0),
                                                   rel=1e-10)
    zero = DiagonalJTA(grid, np.zeros(128, dtype=complex))
    assert zero.edge_tail_ratio() == 0.0


_MIRROR_CASES = {
    "linear": ("linear", {}),
    "sinc": ("sinc", {"delta_beta0": 2.5}),
    "simple_sxpm": ("simple_sxpm", {}),
    "general_lossless": ("general_quadrature", {"delta_beta0": 1.5}),
    "general_lossy": ("general_quadrature",
                      {"alpha": 0.2, "alpha2_P": 0.5, "delta_beta0": 1.5}),
}


def test_mirror_cases_cover_every_model():
    assert {model for model, _ in _MIRROR_CASES.values()} == set(MODEL_NAMES)


@pytest.mark.parametrize("literal_z", [False, True])
@pytest.mark.parametrize("case", list(_MIRROR_CASES))
@pytest.mark.parametrize("n_points", [64, 512, 2048])
def test_builder_equals_the_tier_map_on_the_full_grid(n_points, case, literal_z):
    """Evaluating on the N/2 + 1 distinct powers and mirroring changes no bit,
    signed zeros included."""
    model, wg_kwargs = _MIRROR_CASES[case]
    pump = make_pump(phi_max=1.0)
    wg = make_waveguide(**wg_kwargs)
    grid = make_grid(pump, n_points=n_points)
    got = build_diagonal_jta(model, pump, wg, grid, literal_z=literal_z).values
    tier = sfwmsim.jta._TIERS[model]
    want = tier(wg, pump_power_profile(pump, grid.tau), literal_z)
    assert got.shape == want.shape == (n_points,)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_each_tier_runs_once_on_the_distinct_powers(monkeypatch, model):
    seen = []
    tier = sfwmsim.jta._TIERS[model]

    def recording(wg, p, literal_z):
        seen.append(p.copy())
        return tier(wg, p, literal_z)

    monkeypatch.setitem(sfwmsim.jta._TIERS, model, recording)
    pump = make_pump(phi_max=1.0)
    grid = make_grid(pump, n_points=512)
    build_diagonal_jta(model, pump, make_waveguide(), grid)
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], pump_power_profile(pump, grid.tau[:257]))


def test_builder_rejects_an_unknown_model():
    pump = make_pump()
    with pytest.raises(ConfigError, match="unknown model 'cubic'"):
        build_diagonal_jta("cubic", pump, make_waveguide(), make_grid(pump, n_points=64))
