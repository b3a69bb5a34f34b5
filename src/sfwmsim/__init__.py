"""Photon-pair generation by spontaneous four-wave mixing in a nonlinear
waveguide: joint temporal amplitudes under pump self- and cross-phase
modulation, Gaussian spectral filtering, and the resulting pair metrics.

Units throughout: time in ps, power in W, length in m, angular frequency in
rad/ps, and the nonlinear parameter gamma in 1/(W m).
"""

from .config import (MODEL_NAMES, RegimeCheckSpec, SimulationConfig,
                     config_from_dict, load_config, validate_config)
from .errors import (AccuracyError, ConfigError, DegenerateInputError,
                     ModelCompatibilityError, SimulationError)
from .filtering import (FilterPair, FilterSpec, JointAmplitudeMatrix, filtered_jta,
                        gaussian_time_kernel, overlap)
from .grids import SpectralGrid, TemporalGrid, build_temporal_grid
from .jta import DiagonalJTA, build_diagonal_jta
from .metrics import (LOW_EXCITATION_BOUND, PairMetrics, SchmidtDecomposition,
                      compute_pair_metrics, gaussian_eta, gaussian_nu, gaussian_purity,
                      purity_schmidt, schmidt_mode_count, single_sided_eta,
                      single_sided_purity, validate_low_excitation)
from .pump import (Material, PumpPulse, RegimeCheckResult, Waveguide,
                   check_free_carrier_regime, effective_length, nonlinear_parameter,
                   nonlinear_phase, phi_max, propagate_power, pump_power_profile)
from .spectral import jta_to_jsa, marginal_spectrum

__version__ = "0.1.0"

__all__ = [
    "AccuracyError", "ConfigError", "DegenerateInputError",
    "DiagonalJTA", "FilterPair", "FilterSpec", "JointAmplitudeMatrix",
    "LOW_EXCITATION_BOUND", "MODEL_NAMES", "Material", "ModelCompatibilityError",
    "PairMetrics", "PumpPulse", "RegimeCheckResult", "RegimeCheckSpec",
    "SchmidtDecomposition", "SimulationConfig", "SimulationError", "SpectralGrid",
    "TemporalGrid", "Waveguide", "build_diagonal_jta", "build_temporal_grid",
    "check_free_carrier_regime", "compute_pair_metrics", "config_from_dict",
    "effective_length", "filtered_jta",
    "gaussian_eta", "gaussian_nu", "gaussian_purity", "gaussian_time_kernel",
    "jta_to_jsa", "load_config", "marginal_spectrum",
    "nonlinear_parameter", "nonlinear_phase", "overlap",
    "phi_max", "propagate_power", "pump_power_profile",
    "purity_schmidt", "schmidt_mode_count", "single_sided_eta",
    "single_sided_purity", "validate_config", "validate_low_excitation",
]
