"""Property tests of the paper's headline invariance through the metric path
the CLI uses (``compute_pair_metrics``): with one side unfiltered, eta and
the heralded purity do not depend on any phase carried by the diagonal
amplitude, and filtering only the signal or only the idler at the same
bandwidth ratio gives the same numbers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sfwmsim import DiagonalJTA, FilterPair, FilterSpec, compute_pair_metrics, jta_simple
from conftest import filter_for_ratio, make_grid, make_pump, make_waveguide


def _same(a, b, rel=1e-12):
    if a is None or b is None:
        assert a is None and b is None
    else:
        assert a == pytest.approx(b, rel=rel, abs=0.0)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(lam=st.floats(0.5, 3.0), phi=st.floats(0.0, 2.0),
       coeffs=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
       idler_unfiltered=st.booleans(), n_points=st.sampled_from([64, 128]))
def test_single_sided_metrics_ignore_any_diagonal_phase(lam, phi, coeffs,
                                                        idler_unfiltered, n_points):
    pump = make_pump(phi_max=phi)
    filt = filter_for_ratio(lam, pump)
    none = FilterSpec.unfiltered()
    filters = FilterPair(filt, none) if idler_unfiltered else FilterPair(none, filt)
    grid = make_grid(pump, [filt], n_points=n_points)
    diag = jta_simple(pump, make_waveguide(), grid)  # carries the SPM/XPM phase
    c1, c2, c3 = coeffs
    tau = grid.tau
    theta = c1 * tau + c2 * tau ** 2 + c3 * tau ** 3
    phased = DiagonalJTA(grid, diag.values * np.exp(1j * theta))

    plain = compute_pair_metrics(diag, filters)
    shifted = compute_pair_metrics(phased, filters)
    _same(shifted.eta, plain.eta)
    _same(shifted.purity, plain.purity)

    mirror = compute_pair_metrics(diag, FilterPair(filters.idler, filters.signal))
    _same(mirror.eta, plain.eta, rel=0.0)
    _same(mirror.purity, plain.purity, rel=0.0)
    if plain.schmidt_weights is not None:
        _same(mirror.schmidt_weights[0], plain.schmidt_weights[0])
