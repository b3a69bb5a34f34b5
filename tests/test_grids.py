import math

import numpy as np
import pytest

from sfwmsim import (ConfigError, FilterSpec, PumpPulse, TemporalGrid,
                     build_temporal_grid)


def test_default_grid_spacing_rule():
    """dt = span * sigma_eff * 2 / n, centered so tau[n/2] = 0 exactly."""
    pump = PumpPulse(P0=1.0, sigma_t=1.0)
    grid = build_temporal_grid(pump)
    assert grid.n_points == 512
    assert grid.dt == pytest.approx(8.0 * 1.0 * 2.0 / 512)
    assert grid.tau[0] == pytest.approx(-8.0)
    assert grid.tau[256] == 0.0


def test_grid_widens_for_a_narrow_filter():
    pump = PumpPulse(P0=1.0, sigma_t=1.0)
    filt = FilterSpec(sigma_f=0.25)  # 1/sigma_f = 4 ps dominates the pulse width
    grid = build_temporal_grid(pump, [filt])
    assert grid.dt == pytest.approx(8.0 * 4.0 * 2.0 / 512)


def test_unfiltered_side_does_not_change_the_span():
    pump = PumpPulse(P0=1.0, sigma_t=1.0)
    wide = build_temporal_grid(pump, [FilterSpec.unfiltered()])
    bare = build_temporal_grid(pump)
    assert wide.dt == bare.dt


def test_trapezoid_weights_shape():
    grid = TemporalGrid(n_points=16, dt=0.5)
    w = grid.trapezoid_weights
    assert w[0] == w[-1] == 0.25
    assert np.all(w[1:-1] == 0.5)
    assert w.sum() == pytest.approx((16 - 1) * 0.5)


def test_trapezoid_integrates_a_gaussian():
    pump = PumpPulse(P0=1.0, sigma_t=1.0)
    grid = build_temporal_grid(pump)
    val = float(np.sum(grid.trapezoid_weights * np.exp(-grid.tau ** 2 / 2.0)))
    assert val == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-12)


@pytest.mark.parametrize("n", [12, 4, 100, 0])
def test_grid_size_must_be_a_power_of_two_at_least_eight(n):
    with pytest.raises(ConfigError):
        TemporalGrid(n_points=n, dt=0.1)


def test_grid_spacing_must_be_positive():
    with pytest.raises(ConfigError):
        TemporalGrid(n_points=16, dt=0.0)
    with pytest.raises(ConfigError):
        TemporalGrid(n_points=16, dt=-0.5)


def test_builder_floors():
    pump = PumpPulse(P0=1.0, sigma_t=1.0)
    with pytest.raises(ConfigError):
        build_temporal_grid(pump, n_points=32)
    with pytest.raises(ConfigError):
        build_temporal_grid(pump, span_sigmas=4.0)
    with pytest.raises(ConfigError, match="finite"):
        build_temporal_grid(pump, span_sigmas=float("inf"))


def test_half_width():
    grid = TemporalGrid(n_points=128, dt=0.125)
    assert grid.half_width == pytest.approx(64 * 0.125)
