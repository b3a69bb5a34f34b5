"""Dense test oracles in plain numpy that share no code with sfwmsim.

Each takes plain arrays on the package's centred grids, where sample k lies at
(k - n/2)·step (so sample n/2 + 1 is the step), and restates directly what the
package computes another way.
"""

import math

import numpy as np


def _trapezoid_weights(coords):
    """Trapezoid weights of the centred grid ``coords``: the step, halved at both ends."""
    w = np.full(coords.size, coords[coords.size // 2 + 1])
    w[[0, -1]] /= 2.0
    return w


def schmidt_spectrum(rows, cols, values):
    """Heralded purity and Schmidt weights of the amplitude ``values`` sampled at
    the coordinates rows x cols, from the full SVD of the matrix weighted by the
    square roots of the trapezoid weights on each axis. Singular values at or
    below 1e-14 of the largest are noise; the rest, normalized to unit power,
    are the weights, and the purity is their fourth-power sum."""
    weighted = (np.sqrt(_trapezoid_weights(rows))[:, None] * values
                * np.sqrt(_trapezoid_weights(cols))[None, :])
    s = np.linalg.svd(weighted, compute_uv=False)
    if not s[0] > 0.0:
        raise ValueError("zero amplitude: Schmidt spectrum undefined")
    t = s[s > 1e-14 * s[0]] / s[0]
    g = t / math.sqrt(float(t @ t))
    return float(np.sum(g ** 4)), g


def fourfold_sum(v, os, oi):
    """F = sum_abcd v[a] conj(v[b]) v[c] conj(v[d]) os[b,a] os[d,c] oi[b,c] oi[d,a],
    in O(N^3) as v . (G * G^T) . v with G = (os * conj(v)[:, None])^T @ oi."""
    g = (os * np.conj(v)[:, None]).T @ oi
    return complex(v @ (g * g.T) @ v)


def purity_quadrature(tau, amplitude, sigma_s, sigma_i):
    """Heralded purity of a diagonal amplitude at the times tau behind Gaussian
    filters of bandwidths sigma_s and sigma_i (None when unfiltered), from the
    four-fold overlap quadrature with trapezoid weights; it shares nothing with
    the Schmidt decomposition."""
    if sigma_s is None or sigma_i is None:
        raise ValueError("the four-fold quadrature needs gaussian filters on both sides")
    v = _trapezoid_weights(tau) * amplitude
    sep = math.sqrt(2.0) * (tau[:, None] - tau[None, :])
    # a Gaussian filter's self-overlap sigma sqrt(2 pi) exp(-sigma^2 dT^2 / 4)
    os, oi = (s * math.sqrt(2.0 * math.pi) * np.exp(-(s ** 2) * sep ** 2 / 4.0)
              for s in (sigma_s, sigma_i))
    norm = float(np.real(np.conj(v) @ (os * oi) @ v))
    if norm == 0.0:
        raise ValueError("zero amplitude: heralded purity undefined")
    return float(np.real(fourfold_sum(v, os, oi))) / norm ** 2


def jsa_to_jta(omega, jsa):
    """Inverse of the unitary transform with kernel e^{+i w t}, as the direct sum
    JTA(t_s, t_i) = (1/2 pi) sum JSA(w_s, w_i) e^{-i (w_s t_s + w_i t_i)} dw dw
    over the detuning grid omega of both axes, on the conjugate times
    (n dt dw = 2 pi). Returns (tau, jta)."""
    n, dw = omega.size, omega[omega.size // 2 + 1]
    tau = (np.arange(n) - n // 2) * (2.0 * math.pi / (n * dw))
    kernel = np.exp(-1j * np.outer(tau, omega)) * (dw / math.sqrt(2.0 * math.pi))
    return tau, kernel @ jsa @ kernel.T


def read_matrix_coords(path):
    """Read back a coords CSV as (row_coords, col_coords, complex matrix)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n_rows = len(np.unique(data[:, 0]))
    table = data.reshape(n_rows, -1, 4)
    # reinterpret each (re, im) pair as one complex128 so signed zeros survive
    values = np.ascontiguousarray(table[..., 2:]).view(complex)[..., 0]
    return table[:, 0, 0], table[0, :, 1], values
