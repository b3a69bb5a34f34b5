import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

import sfwmsim.jta

from sfwmsim import (MODEL_NAMES, AccuracyError, ConfigError, DiagonalJTA,
                     ModelCompatibilityError, TemporalGrid, jta_general,
                     jta_linear, jta_simple, jta_sinc, pump_power_profile)
from sfwmsim.jta import build_diagonal_jta
from conftest import make_grid, make_pump, make_waveguide

SINC_HALF = math.sin(0.5) / 0.5  # 0.958851...


def test_linear_is_purely_imaginary_with_peak_phi():
    pump = make_pump(phi_max=0.3)
    grid = make_grid(pump, n_points=128)
    diag = jta_linear(pump, make_waveguide(), grid)
    assert np.all(diag.values.real == 0.0)
    k0 = grid.index_of(0.0)
    assert diag.values[k0] == pytest.approx(0.3j)
    # Gaussian envelope of the power profile
    k1 = grid.index_of(1.0)
    assert abs(diag.values[k1]) == pytest.approx(0.3 * math.exp(-0.5), rel=1e-12)


def test_simple_sxpm_keeps_the_linear_magnitude():
    pump = make_pump(phi_max=0.8)
    grid = make_grid(pump, n_points=128)
    wg = make_waveguide()
    lin = jta_linear(pump, wg, grid)
    spm = jta_simple(pump, wg, grid)
    np.testing.assert_allclose(np.abs(spm.values), np.abs(lin.values),
                               rtol=1e-14, atol=0)
    # each sample rotated by three times the local nonlinear phase
    ratio = spm.values / np.where(lin.values == 0, 1, lin.values)
    k0 = grid.index_of(0.0)
    assert ratio[k0] == pytest.approx(np.exp(3j * 0.8), rel=1e-12)


def test_sinc_envelope_at_matched_peak():
    """delta_beta0 = 2 gamma P0 puts the peak exactly on phase matching."""
    pump = make_pump(phi_max=0.5)
    wg = make_waveguide(delta_beta0=1.0)
    grid = make_grid(pump, n_points=128)
    k0 = grid.index_of(0.0)
    lin = jta_linear(pump, make_waveguide(), grid)
    snc = jta_sinc(pump, wg, grid)
    assert abs(snc.values[k0]) == pytest.approx(abs(lin.values[k0]), rel=1e-12)


def test_sinc_suppression_without_mismatch():
    # at the peak the argument is -gamma P0 L = -0.5
    pump = make_pump(phi_max=0.5)
    grid = make_grid(pump, n_points=128)
    lin = jta_linear(pump, make_waveguide(), grid)
    snc = jta_sinc(pump, make_waveguide(), grid)
    k0 = grid.index_of(0.0)
    assert abs(snc.values[k0] / lin.values[k0]) == pytest.approx(SINC_HALF,
                                                                 rel=1e-12)


def test_sinc_phase_includes_half_mismatch():
    pump = make_pump(phi_max=0.4)
    wg = make_waveguide(delta_beta0=2.5)
    grid = make_grid(pump, n_points=128)
    snc = jta_sinc(pump, wg, grid)
    k0 = grid.index_of(0.0)
    expected = np.angle(1j * np.exp(1j * (3 * 0.4 + 2.5 / 2.0)))
    assert np.angle(snc.values[k0]) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("maker", [jta_linear, jta_simple, jta_sinc])
def test_lossy_waveguide_rejected_by_closed_form_models(maker):
    pump = make_pump()
    grid = make_grid(pump, n_points=64)
    with pytest.raises(ModelCompatibilityError, match="general_quadrature"):
        maker(pump, make_waveguide(alpha=0.1), grid)
    with pytest.raises(ModelCompatibilityError):
        maker(pump, make_waveguide(alpha2_P=0.1), grid)


def test_general_matches_simple_at_weak_pump():
    # the residual sinc(gamma P L) factor is ~1 - phi^2/6, so use phi = 1e-5
    pump = make_pump(phi_max=1e-5)
    wg = make_waveguide()
    grid = make_grid(pump, n_points=128)
    gen = jta_general(pump, wg, grid)
    ref = jta_simple(pump, wg, grid)
    err = np.linalg.norm(gen.values - ref.values) / np.linalg.norm(ref.values)
    assert err <= 1e-10


@pytest.mark.parametrize("phi,db0", [(0.5, 0.0), (0.5, 3.0), (2.0, -1.5)])
def test_general_reduces_to_sinc_when_lossless(phi, db0):
    pump = make_pump(phi_max=phi)
    wg = make_waveguide(delta_beta0=db0)
    grid = make_grid(pump, n_points=128)
    gen = jta_general(pump, wg, grid)
    ref = jta_sinc(pump, wg, grid)
    err = np.linalg.norm(gen.values - ref.values) / np.linalg.norm(ref.values)
    assert err <= 1e-8


def test_general_loss_shrinks_the_amplitude():
    pump = make_pump(phi_max=1.0)
    grid = make_grid(pump, n_points=128)
    lossless = jta_general(pump, make_waveguide(), grid)
    lossy = jta_general(pump, make_waveguide(alpha=0.8), grid)
    assert np.all(np.abs(lossy.values) <= np.abs(lossless.values) + 1e-15)
    assert np.abs(lossy.values).max() < np.abs(lossless.values).max()


def test_general_literal_z_changes_tpa_results():
    pump = make_pump(phi_max=1.0)
    wg = make_waveguide(alpha=0.2, alpha2_P=0.5)
    grid = make_grid(pump, n_points=64)
    a = jta_general(pump, wg, grid)
    b = jta_general(pump, wg, grid, literal_z=True)
    assert np.abs(a.values - b.values).max() > 1e-6


def test_general_unconverged_quadrature_raises():
    pump = make_pump(phi_max=0.1)
    wg = make_waveguide(delta_beta0=4e4)  # ~6400 oscillations over the length
    grid = make_grid(pump, n_points=64)
    with pytest.raises(AccuracyError) as excinfo:
        jta_general(pump, wg, grid)
    coarse, fine = excinfo.value.coarse, excinfo.value.fine
    assert coarse.shape == fine.shape == (64,)
    # full-grid estimates, mirrored about the zero sample, and the change is theirs
    for estimate in (coarse, fine):
        bits = estimate.view(np.uint64).reshape(-1, 2)
        np.testing.assert_array_equal(bits[1:], bits[:0:-1])
    change = np.linalg.norm(fine - coarse) / np.linalg.norm(fine)
    assert f"relative change {change:.3e} between orders 64 and 128" in str(excinfo.value)


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
    diag = jta_simple(pump, make_waveguide(), grid)
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
    cached = jta_general(pump, wg, grid, literal_z=literal_z).values
    monkeypatch.setattr(sfwmsim.jta, "_gauss_legendre", leggauss)
    direct = jta_general(pump, wg, grid, literal_z=literal_z).values
    np.testing.assert_array_equal(cached.view(np.uint64), direct.view(np.uint64))


def test_edge_tail_ratio():
    pump = make_pump(phi_max=1.0)
    grid = make_grid(pump, n_points=128)
    diag = jta_linear(pump, make_waveguide(), grid)
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
