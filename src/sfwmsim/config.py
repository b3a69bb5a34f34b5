"""Configuration aggregation: the run description, semantic validation, and
JSON ingestion with line-anchored error messages."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .filtering import FilterSpec
from .grids import (DEFAULT_N_POINTS, DEFAULT_SPAN_SIGMAS, TemporalGrid,
                    build_temporal_grid)
from .jta import MODEL_NAMES, lossless_violation
from .pump import Material, PumpPulse, Waveguide, nonlinear_parameter

_GAMMA_AGREEMENT_RTOL = 1e-6


@dataclass(frozen=True)
class RegimeCheckSpec:
    """Inputs for the free-carrier validity check."""

    photon_energy: float
    sigma_FCA: float
    T0: float
    I0: float
    threshold: float = 10.0


@dataclass(frozen=True)
class SimulationConfig:
    """Everything one run needs; immutable once loaded."""

    pump: PumpPulse
    waveguide: Waveguide
    signal_filter: FilterSpec
    idler_filter: FilterSpec
    grid: TemporalGrid
    model: str
    span_sigmas: float = DEFAULT_SPAN_SIGMAS
    material: Material | None = None
    regime_check: RegimeCheckSpec | None = None


def validate_config(cfg: SimulationConfig) -> list[str]:
    """All semantic violations of a config, in sorted canonical order.

    An empty list means the config is valid. Pure and idempotent.
    """
    errors = []
    if cfg.pump.P0 < 0:
        errors.append("pump.P0: negative peak power")
    if not cfg.pump.sigma_t > 0:
        errors.append("pump.sigma_t: nonpositive width")
    if not cfg.waveguide.length > 0:
        errors.append("waveguide.length: nonpositive length")
    if cfg.waveguide.gamma < 0:
        errors.append("waveguide.gamma: negative nonlinear parameter")
    if cfg.waveguide.alpha < 0:
        errors.append("waveguide.alpha: negative loss")
    if cfg.waveguide.alpha2_P < 0:
        errors.append("waveguide.alpha2_P: negative two-photon-absorption rate")
    if (violation := lossless_violation(cfg.model, cfg.waveguide)) is not None:
        errors.append(f"model: {violation}")
    if cfg.model not in MODEL_NAMES:
        errors.append(f"model: unknown model {cfg.model!r}")
    if not cfg.signal_filter.is_gaussian and not cfg.idler_filter.is_gaussian:
        errors.append("filters: both sides unfiltered; leave at least one gaussian filter")
    if cfg.material is not None:
        if not cfg.material.n2 > 0:
            errors.append("material.n2: must be positive")
        if not cfg.material.lambda_pump > 0:
            errors.append("material.lambda_pump: must be positive")
        if not cfg.material.A_eff > 0:
            errors.append("material.A_eff: must be positive")
    if cfg.regime_check is not None:
        rc = cfg.regime_check
        if not rc.photon_energy > 0:
            errors.append("regime_check.photon_energy: must be positive")
        if not rc.sigma_FCA > 0:
            errors.append("regime_check.sigma_FCA: must be positive")
        if not rc.T0 > 0:
            errors.append("regime_check.T0: must be positive")
        if rc.I0 < 0:
            errors.append("regime_check.I0: must be nonnegative")
    return sorted(errors)


def number_error(val) -> str | None:
    """Why a JSON value is not a usable number, or None when it is one."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return f"expected a number, got {val!r}"
    if not math.isfinite(val):
        return f"expected a finite number, got {val!r}"
    return None


def _line_of(text: str, section: str, key: str | None = None) -> int | None:
    """Best-effort line number of a config key, for anchored messages."""
    start = text.find(f'"{section}"')
    if start < 0:
        return None
    if key is not None:
        idx = text.find(f'"{key}"', start)
        if idx < 0:
            return None
    else:
        idx = start
    return text.count("\n", 0, idx) + 1


def _anchor(text: str, message: str) -> str:
    """Prefix ``line N:`` to a ``section.key: detail`` style message when possible."""
    path = message.split(":", 1)[0]
    parts = path.split(".")
    line = _line_of(text, parts[0], parts[1] if len(parts) > 1 else None)
    return f"line {line}: {message}" if line is not None else message


class _SectionReader:
    """Pulls typed values out of one JSON object, collecting errors."""

    def __init__(self, name: str, data: dict, errors: list[str]):
        self.name = name
        self.data = data
        self.errors = errors
        self.seen: set[str] = set()

    def number(self, key: str, required: bool = False, default=None):
        self.seen.add(key)
        if key not in self.data:
            if required:
                self.errors.append(f"{self.name}.{key}: missing required value")
            return default
        val = self.data[key]
        problem = number_error(val)
        if problem is not None:
            self.errors.append(f"{self.name}.{key}: {problem}")
            return default
        return float(val)

    def string(self, key: str, required: bool = False, default=None):
        self.seen.add(key)
        if key not in self.data:
            if required:
                self.errors.append(f"{self.name}.{key}: missing required value")
            return default
        val = self.data[key]
        if not isinstance(val, str):
            self.errors.append(f"{self.name}.{key}: expected a string, got {val!r}")
            return default
        return val

    def finish(self):
        for key in self.data:
            if key not in self.seen:
                self.errors.append(f"{self.name}.{key}: unknown key")


def _read_filter(section: str, data, errors: list[str]) -> FilterSpec:
    if not isinstance(data, dict):
        errors.append(f"{section}: expected an object")
        return FilterSpec.unfiltered()
    reader = _SectionReader(section, data, errors)
    shape = reader.string("shape", default="gaussian")
    sigma_f = reader.number("sigma_f")
    reader.finish()
    try:
        return FilterSpec(sigma_f=sigma_f, shape=shape)
    except ConfigError as exc:
        errors.append(f"{section}: {exc}")
        return FilterSpec.unfiltered()


def config_from_dict(raw: dict, text: str = "",
                     grid_points: int | None = None,
                     span_sigmas: float | None = None) -> SimulationConfig:
    """Build and validate a SimulationConfig from parsed JSON.

    Collects every schema and semantic problem before raising, so a single
    round trip reports all of them. ``grid_points`` / ``span_sigmas``
    override the grid section (command-line overrides).
    """
    errors: list[str] = []
    if not isinstance(raw, dict):
        raise ConfigError("config root: expected a JSON object")

    known = {"material", "pump", "waveguide", "filters", "grid", "model", "regime_check"}
    for key in raw:
        if key not in known:
            errors.append(f"{key}: unknown section")

    pump = None
    if "pump" not in raw:
        errors.append("pump: missing required section")
    elif not isinstance(raw["pump"], dict):
        errors.append("pump: expected an object")
    else:
        rd = _SectionReader("pump", raw["pump"], errors)
        p0 = rd.number("P0", required=True)
        sigma_t = rd.number("sigma_t", required=True)
        rd.finish()
        if p0 is not None and sigma_t is not None:
            pump = PumpPulse(P0=p0, sigma_t=sigma_t)

    material = None
    if "material" in raw:
        if not isinstance(raw["material"], dict):
            errors.append("material: expected an object")
        else:
            rd = _SectionReader("material", raw["material"], errors)
            n2 = rd.number("n2", required=True)
            lam_p = rd.number("lambda_pump", required=True)
            a_eff = rd.number("A_eff", required=True)
            rd.finish()
            if None not in (n2, lam_p, a_eff):
                material = Material(n2=n2, lambda_pump=lam_p, A_eff=a_eff)

    waveguide = None
    if "waveguide" not in raw:
        errors.append("waveguide: missing required section")
    elif not isinstance(raw["waveguide"], dict):
        errors.append("waveguide: expected an object")
    else:
        rd = _SectionReader("waveguide", raw["waveguide"], errors)
        gamma = rd.number("gamma")
        length = rd.number("length", required=True)
        delta_beta0 = rd.number("delta_beta0", default=0.0)
        alpha = rd.number("alpha", default=0.0)
        alpha2_p = rd.number("alpha2_P", default=0.0)
        beta1 = rd.number("beta1", default=0.0)
        rd.finish()
        derived = None
        if material is not None and material.n2 > 0 and material.lambda_pump > 0 \
                and material.A_eff > 0:
            derived = nonlinear_parameter(material)
        if gamma is None:
            if derived is None:
                errors.append(
                    "waveguide.gamma: missing (provide gamma or a material section)")
            gamma = derived
        elif derived is not None and not math.isclose(gamma, derived,
                                                      rel_tol=_GAMMA_AGREEMENT_RTOL):
            errors.append(
                f"waveguide.gamma: {gamma!r} conflicts with the material-derived "
                f"value {derived!r}")
        if length is not None and gamma is not None:
            waveguide = Waveguide(gamma=gamma, length=length, delta_beta0=delta_beta0,
                                  alpha=alpha, alpha2_P=alpha2_p, beta1=beta1)

    if "filters" not in raw:
        errors.append("filters: missing required section")
        signal_filter = idler_filter = FilterSpec.unfiltered()
    elif not isinstance(raw["filters"], dict):
        errors.append("filters: expected an object")
        signal_filter = idler_filter = FilterSpec.unfiltered()
    else:
        fsec = raw["filters"]
        for key in fsec:
            if key not in ("signal", "idler"):
                errors.append(f"filters.{key}: unknown key")
        if "signal" not in fsec:
            errors.append("filters.signal: missing required value")
            signal_filter = FilterSpec.unfiltered()
        else:
            signal_filter = _read_filter("filters.signal", fsec["signal"], errors)
        idler_filter = (_read_filter("filters.idler", fsec["idler"], errors)
                        if "idler" in fsec else FilterSpec.unfiltered())

    n_points = DEFAULT_N_POINTS
    span = DEFAULT_SPAN_SIGMAS
    if "grid" in raw:
        if not isinstance(raw["grid"], dict):
            errors.append("grid: expected an object")
        else:
            rd = _SectionReader("grid", raw["grid"], errors)
            np_val = rd.number("n_points")
            sp_val = rd.number("span_sigmas")
            rd.finish()
            if np_val is not None:
                if np_val != int(np_val):
                    errors.append(f"grid.n_points: expected an integer, got {np_val!r}")
                else:
                    n_points = int(np_val)
            if sp_val is not None:
                span = sp_val
    if grid_points is not None:
        n_points = grid_points
    if span_sigmas is not None:
        span = span_sigmas

    model = None
    if "model" not in raw:
        errors.append("model: missing required value")
    elif not isinstance(raw["model"], str):
        errors.append(f"model: expected a string, got {raw['model']!r}")
    elif raw["model"] not in MODEL_NAMES:
        errors.append(f"model: unknown model {raw['model']!r} "
                      f"(choose from {', '.join(MODEL_NAMES)})")
    else:
        model = raw["model"]

    regime = None
    if "regime_check" in raw:
        if not isinstance(raw["regime_check"], dict):
            errors.append("regime_check: expected an object")
        else:
            rd = _SectionReader("regime_check", raw["regime_check"], errors)
            pe = rd.number("photon_energy", required=True)
            sf = rd.number("sigma_FCA", required=True)
            t0 = rd.number("T0", required=True)
            i0 = rd.number("I0", required=True)
            thr = rd.number("threshold", default=10.0)
            rd.finish()
            if None not in (pe, sf, t0, i0):
                regime = RegimeCheckSpec(photon_energy=pe, sigma_FCA=sf, T0=t0,
                                         I0=i0, threshold=thr)

    grid = None
    if pump is not None and pump.sigma_t > 0:
        try:
            grid = build_temporal_grid(pump, [signal_filter, idler_filter],
                                       span_sigmas=span, n_points=n_points)
        except ConfigError as exc:
            errors.append(str(exc))

    if pump is None or waveguide is None or model is None or grid is None:
        anchored = sorted(_anchor(text, e) for e in errors)
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(anchored),
                          violations=anchored)

    cfg = SimulationConfig(pump=pump, waveguide=waveguide,
                           signal_filter=signal_filter, idler_filter=idler_filter,
                           grid=grid, model=model, span_sigmas=span,
                           material=material, regime_check=regime)
    errors.extend(validate_config(cfg))
    if errors:
        anchored = sorted(_anchor(text, e) for e in errors)
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(anchored),
                          violations=anchored)
    return cfg


def read_json(path):
    """Read a UTF-8 JSON file as (parsed value, text); errors are line-anchored."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"line {line}: invalid UTF-8: {exc.reason} "
                          f"(byte 0x{exc.object[exc.start]:02x})") from exc
    try:
        return json.loads(text), text
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"line {exc.lineno} column {exc.colno}: invalid JSON: {exc.msg}") from exc


def load_config(path, grid_points: int | None = None,
                span_sigmas: float | None = None) -> SimulationConfig:
    """Read, parse, and validate a JSON config file."""
    raw, text = read_json(path)
    return config_from_dict(raw, text=text, grid_points=grid_points,
                            span_sigmas=span_sigmas)
