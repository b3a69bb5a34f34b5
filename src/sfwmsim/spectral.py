"""Frequency-domain views: the time<->frequency transform pair and
marginal-spectrum diagnostics.

Convention: forward transform kernel e^{+i delta tau} with 1/sqrt(2 pi) per
axis (unitary). On centred power-of-two grids the transform is realized
exactly by sign-modulated FFTs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .filtering import JointAmplitudeMatrix
from .grids import SpectralGrid, TemporalGrid


def _axis(x: np.ndarray, step: float, axis: int, forward: bool) -> np.ndarray:
    """One axis of the centred transform: exact for n divisible by 4."""
    n = x.shape[axis]
    mod = np.expand_dims((-1.0) ** np.arange(n), 1 - axis)
    y = np.fft.ifft(x * mod, axis=axis) * n if forward else np.fft.fft(x * mod, axis=axis)
    return mod * y * step / math.sqrt(2.0 * math.pi)


def jta_to_jsa(matrix: JointAmplitudeMatrix) -> JointAmplitudeMatrix:
    """Unitary 2-D transform of a time-domain amplitude onto the conjugate grids."""
    if matrix.domain_tag != "time":
        raise ConfigError("forward transform expects a time-domain amplitude")
    out = _axis(_axis(matrix.values, matrix.grid_s.dt, 0, True),
                matrix.grid_i.dt, 1, True)
    return JointAmplitudeMatrix(SpectralGrid.conjugate_to(matrix.grid_s),
                                SpectralGrid.conjugate_to(matrix.grid_i), out)


def _time_grid(sgrid: SpectralGrid) -> TemporalGrid:
    return TemporalGrid(n_points=sgrid.n_points,
                        dt=2.0 * math.pi / (sgrid.n_points * sgrid.d_omega))


def jsa_to_jta(matrix: JointAmplitudeMatrix) -> JointAmplitudeMatrix:
    """Inverse of :func:`jta_to_jsa`."""
    if matrix.domain_tag != "frequency":
        raise ConfigError("inverse transform expects a frequency-domain amplitude")
    out = _axis(_axis(matrix.values, matrix.grid_s.d_omega, 0, False),
                matrix.grid_i.d_omega, 1, False)
    return JointAmplitudeMatrix(_time_grid(matrix.grid_s), _time_grid(matrix.grid_i), out)


def marginal_spectrum(jsa: JointAmplitudeMatrix, axis: str = "signal") -> np.ndarray:
    """Marginal intensity of |JSA|^2 along one frequency axis (trapezoid rule)."""
    if jsa.domain_tag != "frequency":
        raise ConfigError("marginal spectra are defined on frequency-domain amplitudes")
    intensity = np.abs(jsa.values) ** 2
    if axis == "signal":
        return intensity @ jsa.grid_i.trapezoid_weights
    if axis == "idler":
        return jsa.grid_s.trapezoid_weights @ intensity
    raise ConfigError(f"axis must be 'signal' or 'idler', got {axis!r}")
