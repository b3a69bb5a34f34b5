"""Shared builders for the test suite.

Convention used throughout: gamma = length = 1, so the peak power P0 equals
the peak nonlinear phase, and sigma_t = 1 ps so sigma_w = 0.5 rad/ps. Filters
are specified through the bandwidth ratios lambda = sigma_w / sigma_f
(signal) and mu (idler); a ratio of 0 means that side is unfiltered.
"""

import dataclasses

import numpy as np
import pytest

import gaussian_reference
import sfwmsim.jta
from sfwmsim import (FilterPair, FilterSpec, JointAmplitudeMatrix, PumpPulse, Waveguide,
                     build_temporal_grid)


def make_pump(phi_max=0.1, sigma_t=1.0):
    return PumpPulse(P0=phi_max, sigma_t=sigma_t)


def make_waveguide(**kwargs):
    kwargs.setdefault("gamma", 1.0)
    kwargs.setdefault("length", 1.0)
    return Waveguide(**kwargs)


def filter_for_ratio(ratio, pump):
    if ratio == 0:
        return FilterSpec.unfiltered()
    return FilterSpec(sigma_f=pump.sigma_w / ratio)


def make_filters(lam, mu, pump):
    return FilterPair(filter_for_ratio(lam, pump), filter_for_ratio(mu, pump))


def make_grid(pump, filters=(), n_points=512, span_sigmas=8.0):
    specs = [f for f in filters if f is not None]
    return build_temporal_grid(pump, specs, span_sigmas=span_sigmas,
                               n_points=n_points)


def sample_at(grid, time):
    """The index of the grid sample at exactly ``time``."""
    return grid.tau.tolist().index(time)


def break_propagate_power(monkeypatch, bad):
    """Make ``propagate_power`` return ``bad`` (NaN or inf) for one power at
    one quadrature node of ``general_quadrature``."""
    real = sfwmsim.jta.propagate_power

    def broken(p, wg, z, literal_z=False):
        pz = real(p, wg, z, literal_z=literal_z)
        pz[3, 0] = bad
        return pz

    monkeypatch.setattr(sfwmsim.jta, "propagate_power", broken)


def reference_coefficients(pump, wg, model="linear"):
    """The Gaussian-series coefficients of a model tier, from the reference."""
    return gaussian_reference.coefficients(
        gaussian_reference.tier_map(model, **dataclasses.asdict(wg)), pump.P0)


def _bandwidth(filt):
    return filt.sigma_f if filt.is_gaussian else np.inf


def reference_jta(pump, wg, filters, grid, model="linear"):
    """The reference's filtered two-time amplitude on ``grid``; both sides filtered."""
    values = gaussian_reference.filtered_jta(
        reference_coefficients(pump, wg, model), pump.sigma_t,
        filters.signal.sigma_f, filters.idler.sigma_f, grid.tau, grid.tau)
    return JointAmplitudeMatrix(grid, values)


def reference_jsa(pump, wg, filters, sgrid, model="linear"):
    """The reference's filtered two-frequency amplitude on ``sgrid``."""
    values = gaussian_reference.filtered_jsa(
        reference_coefficients(pump, wg, model), pump.sigma_t,
        _bandwidth(filters.signal), _bandwidth(filters.idler), sgrid.omega, sgrid.omega)
    return JointAmplitudeMatrix(sgrid, values)


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)
