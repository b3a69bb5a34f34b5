"""Frequency-domain views: the time-to-frequency transform and
marginal-spectrum diagnostics.

Convention: forward transform kernel e^{+i delta tau} with 1/sqrt(2 pi) per
axis (unitary). On centred power-of-two grids the transform is realized
exactly by sign-modulated FFTs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AccuracyError, ConfigError
from .filtering import JointAmplitudeMatrix
from .grids import SpectralGrid


def _axis(x: np.ndarray, step: float, axis: int) -> np.ndarray:
    """One axis of the centred forward transform: exact for n divisible by 4."""
    n = x.shape[axis]
    mod = np.expand_dims((-1.0) ** np.arange(n), 1 - axis)
    return mod * (np.fft.ifft(x * mod, axis=axis) * n) * step / math.sqrt(2.0 * math.pi)


def jta_to_jsa(matrix: JointAmplitudeMatrix) -> JointAmplitudeMatrix:
    """Unitary 2-D transform of a time-domain amplitude onto the conjugate grid.

    A transform that overflows double precision is an AccuracyError.
    """
    if matrix.domain_tag != "time":
        raise ConfigError("forward transform expects a time-domain amplitude")
    dt = matrix.grid.dt
    out = _axis(_axis(matrix.values, dt, 0), dt, 1)
    if not np.all(np.isfinite(out)):
        raise AccuracyError("the joint spectral amplitude is not finite: the transform "
                            "overflows double precision")
    return JointAmplitudeMatrix(SpectralGrid.conjugate_to(matrix.grid), out)


def marginal_spectrum(jsa: JointAmplitudeMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Signal and idler marginal intensities of |JSA|^2, each integrated over
    the other frequency axis (trapezoid rule)."""
    if jsa.domain_tag != "frequency":
        raise ConfigError("marginal spectra are defined on frequency-domain amplitudes")
    intensity = np.abs(jsa.values) ** 2
    weights = jsa.grid.trapezoid_weights
    return intensity @ weights, weights @ intensity
