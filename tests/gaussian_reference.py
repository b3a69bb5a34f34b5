"""Closed-form reference for every model tier; it shares no code with sfwmsim.

A tier's diagonal amplitude F(p) of the power p = P0 exp(-tau^2 / 2 sigma_t^2),
F(0) = 0, is the Gaussian sum sum_n c_n exp(-a_n tau^2), a_n = n / 2 sigma_t^2,
whose c_n = f_n P0^n come from an FFT of F on the circle |p| = 1.5 P0
(Bornemann 2011, Found. Comput. Math. 11:1). Each term is filtered (time kernel
sqrt(2) s exp(-s^2 t^2), window exp(-w^2 / 4 s^2); s = inf in frequency when
unfiltered) and Fourier-transformed (unitary, kernel exp(+i w t)) in closed form.
"""

import numpy as np

N_FFT = 128  # samples of F on the circle
KEPT = N_FFT // 2  # only terms n = 1 .. KEPT - 1 are summed: c_0 = F(0) = 0


def tier_map(model, gamma, length, delta_beta0=0.0, alpha=0.0, alpha2_P=0.0,
             literal_z=False, **_):
    """F(p) of a model tier for complex p; the group delay beta1 does not enter.
    ``literal_z`` puts the distance z in place of the effective length in the
    depletion of general_quadrature (not in its phase)."""
    gl, half_db = gamma * length, delta_beta0 * length / 2.0
    if model == "linear":
        return lambda p: 1j * gl * p
    if model == "simple_sxpm":
        return lambda p: 1j * gl * p * np.exp(3j * gl * p)
    if model == "sinc":
        return lambda p: (1j * gl * p * np.exp(1j * (3.0 * gl * p + half_db))
                          * np.sin(half_db - gl * p) / (half_db - gl * p))
    # general_quadrature: Gauss-Legendre over z, with loss and two-photon absorption
    z, w = np.polynomial.legendre.leggauss(100)
    z, w = np.append((z + 1.0) * length / 2.0, length), w * length / 2.0
    z_eff = -np.expm1(-alpha * z) / alpha if alpha else z

    def general(p):
        x = alpha2_P * p[:, None] * z_eff
        theta = gamma * p[:, None] * z_eff * (np.log1p(x) / x if alpha2_P else 1.0)
        depletion = 1.0 + alpha2_P * p[:, None] * z if literal_z else 1.0 + x
        integrand = np.exp((1j * delta_beta0 - alpha) * z - 2j * theta) / depletion
        return 1j * gamma * p * np.exp(4j * theta[:, -1]) * (integrand[:, :-1] @ w)
    return general


def coefficients(F, P0):
    """c_n = f_n P0^n for n = 0 .. N_FFT - 1, from F on the circle |p| = 1.5 P0."""
    n = np.arange(N_FFT)
    return np.fft.fft(F(1.5 * P0 * np.exp(2j * np.pi * n / N_FFT))) / N_FFT / 1.5 ** n


def _terms(c, sigma_t):
    """(c_n, a_n) for n = 1 .. KEPT - 1, except terms below 1e-16 of the largest."""
    n = np.arange(1, KEPT)[np.abs(c[1:KEPT]) >= 1e-16 * np.abs(c).max()]
    return zip(c[n], n / (2.0 * sigma_t ** 2))


def jta(c, sigma_t, tau):
    """The unfiltered diagonal amplitude sum_n c_n exp(-a_n tau^2)."""
    return sum(cn * np.exp(-an * tau ** 2) for cn, an in _terms(c, sigma_t))


def filtered_jta(c, sigma_t, s, i, ts, ti):
    """(1/2 pi) int JTA(u) k_s(ts - u) k_i(ti - u) du; rows ts, columns ti."""
    sep = (s * i * (ts[:, None] - ti[None, :])) ** 2
    out = 0.0
    for cn, an in _terms(c, sigma_t):
        big = an + s * s + i * i
        out = out + cn * s * i / np.sqrt(np.pi * big) * np.exp(
            -(an * s * s * ts[:, None] ** 2 + an * i * i * ti ** 2 + sep) / big)
    return out


def filtered_jsa(c, sigma_t, s, i, ws, wi):
    """(1/2 pi) J(ws + wi) exp(-ws^2 / 4 s^2 - wi^2 / 4 i^2); J(W) = int JTA e^{iWu} du."""
    big_w = ws[:, None] + wi[None, :]
    j = sum(cn * np.sqrt(np.pi / an) * np.exp(-big_w ** 2 / (4.0 * an))
            for cn, an in _terms(c, sigma_t))
    return j / (2.0 * np.pi) * np.exp(-ws[:, None] ** 2 / (4.0 * s * s)
                                      - wi[None, :] ** 2 / (4.0 * i * i))


def purity(values):
    """Heralded purity of an amplitude sampled on a uniform grid."""
    weights = np.linalg.svd(values, compute_uv=False) ** 2
    return float(np.sum(weights ** 2) / np.sum(weights) ** 2)
