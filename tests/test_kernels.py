"""The four-fold contraction against literal four-index references.

Two references walk the sum index by index with no factorization: a pure
Python quadruple loop, kept tiny (N = 8), and an unoptimized einsum, which
evaluates every one of the N^4 terms and so stays usable up to N = 64.
"""

import numpy as np
import pytest

from sfwmsim import build_diagonal_jta, compute_pair_metrics, overlap
from oracles import fourfold_sum, purity_quadrature
from conftest import make_filters, make_grid, make_pump, make_waveguide


def _reference_loop(v, os, oi):
    n = v.size
    total = 0.0 + 0.0j
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    total += (v[a] * np.conj(v[b]) * v[c] * np.conj(v[d])
                              * os[b, a] * os[d, c] * oi[b, c] * oi[d, a])
    return total


def _reference_einsum(v, os, oi):
    vc = np.conj(v)
    return complex(np.einsum("a,b,c,d,ba,dc,bc,da->", v, vc, v, vc, os, os, oi, oi,
                             optimize=False))


def _random_problem(rng, n=8):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    os = rng.standard_normal((n, n))
    oi = rng.standard_normal((n, n))
    # overlap matrices are symmetric in the separation argument
    return v, (os + os.T) / 2.0, (oi + oi.T) / 2.0


def test_numpy_backend_matches_the_literal_loop(rng):
    v, os, oi = _random_problem(rng)
    want = _reference_loop(v, os, oi)
    got = fourfold_sum(v, os, oi)
    assert got == pytest.approx(want, rel=1e-12)


def test_einsum_reference_matches_on_a_larger_problem(rng):
    v, os, oi = _random_problem(rng, n=32)
    assert fourfold_sum(v, os, oi) == pytest.approx(_reference_einsum(v, os, oi),
                                                    rel=1e-11)


@pytest.mark.parametrize("model", ["simple_sxpm", "sinc"], ids=["jta_simple", "jta_sinc"])
def test_purity_quadrature_matches_the_einsum_reference(model):
    pump = make_pump(phi_max=1.0)
    wg = make_waveguide(delta_beta0=1.0)
    filters = make_filters(1.0, 3.0, pump)
    grid = make_grid(pump, [filters.signal, filters.idler], n_points=64)
    diag = build_diagonal_jta(model, pump, wg, grid)
    v = grid.trapezoid_weights * diag.values
    sep = np.sqrt(2.0) * (grid.tau[:, None] - grid.tau[None, :])
    os, oi = overlap(filters.signal, sep), overlap(filters.idler, sep)
    norm = float(np.real(np.conj(v) @ (os * oi) @ v))
    want = _reference_einsum(v, os, oi).real / norm ** 2
    got = purity_quadrature(grid.tau, diag.values, filters.signal.sigma_f,
                            filters.idler.sigma_f)
    assert got == pytest.approx(want, rel=1e-12)


def test_purity_quadrature_matches_schmidt_on_a_coarse_grid():
    pump = make_pump(phi_max=0.1)
    wg = make_waveguide()
    filters = make_filters(2.0, 2.0, pump)
    grid = make_grid(pump, [filters.signal, filters.idler], n_points=64)
    diag = build_diagonal_jta("linear", pump, wg, grid)
    p = purity_quadrature(grid.tau, diag.values, filters.signal.sigma_f,
                          filters.idler.sigma_f)
    assert p == pytest.approx(compute_pair_metrics(diag, filters).purity, abs=2e-3)
