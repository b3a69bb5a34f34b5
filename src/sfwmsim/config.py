"""Configuration aggregation: the run description, semantic validation, and
JSON ingestion with line-anchored error messages."""

from __future__ import annotations

import json
import math
import re
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .filtering import FilterSpec
from .grids import (DEFAULT_N_POINTS, DEFAULT_SPAN_SIGMAS, TemporalGrid,
                    _check_grid_size, build_temporal_grid)
from .jta import MODEL_NAMES, lossless_violation
from .pump import Material, PumpPulse, Waveguide, nonlinear_parameter, phi_max

_GAMMA_AGREEMENT_RTOL = 1e-6
_SECTIONS = ("material", "pump", "waveguide", "filters", "grid", "model", "regime_check")


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
        errors.extend(_material_violations(cfg.material))
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
    errors.extend(scale_violations(cfg))
    return sorted(errors)


def scale_violations(cfg: SimulationConfig) -> list[str]:
    """The scales of a config that leave the floating-point range: the peak
    phase gamma * length * P0 must have a finite square, and the pulse width,
    each gaussian bandwidth and then the grid's half-width, which they size,
    must each have a finite, nonzero square."""
    phase = phi_max(cfg.pump, cfg.waveguide)
    errors = []
    if not math.isfinite(phase):
        errors.append("pump.P0: the peak phase gamma * length * P0 is not finite")
    elif phase * phase == math.inf:
        errors.append(f"pump.P0: the peak phase {phase!r} squared overflows")
    scales = [("pump.sigma_t", "", cfg.pump.sigma_t)] + [
        (f"filters.{side}.sigma_f", "", filt.sigma_f) for side, filt
        in (("signal", cfg.signal_filter), ("idler", cfg.idler_filter)) if filt.is_gaussian]
    if cfg.grid is not None and all(0.0 < x * x < math.inf for *_, x in scales):
        scales.append(("grid.span_sigmas", "the grid half-width ", cfg.grid.half_width))
    return errors + [f"{path}: {what}{x!r} squared "
                     + ("overflows" if x * x else "underflows to zero")
                     for path, what, x in scales if x > 0 and not 0.0 < x * x < math.inf]


def number_error(val) -> str | None:
    """Why a JSON value is not a usable number, or None when it is one."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return f"expected a number, got {val!r}"
    if not math.isfinite(val):
        return f"expected a finite number, got {val!r}"
    return None


def _anchor(text: str, message: str, root: str = "") -> str:
    """Prefix ``line N:`` to a ``section.key: detail`` style message when its
    key is found, each part of the dotted path looked up after the one before.

    Paths under ``root`` name keys at the top level of ``text`` (a sweep
    file's), and an index (``values[1]``) anchors to its list's key.
    """
    path = message.split(":", 1)[0]
    if root:
        path = re.sub(r"\[\d+\]", "", path.removeprefix(root + "."))
    idx = 0
    for part in path.split("."):
        if (idx := text.find(f'"{part}"', idx)) < 0:
            return message
    line = text.count("\n", 0, idx) + 1
    return f"line {line}: {message}"


def violations_error(kind: str, violations: list[str], text: str | None = None,
                     root: str = "") -> ConfigError:
    """A ConfigError listing every violation of an input; given the input's
    ``text``, they are line-anchored and sorted, a ``line N:`` prefix by its
    number, else kept in order."""
    if text is not None:
        violations = sorted(
            (_anchor(text, v, root) for v in violations),
            key=lambda v: re.sub(r"(?<=^line )\d+", lambda m: m[0].zfill(20), v))
    return ConfigError(f"invalid {kind}:\n  " + "\n  ".join(violations),
                       violations=violations)


def _object_error(val) -> str | None:
    return None if isinstance(val, dict) else "expected an object"


def _string_error(val) -> str | None:
    return None if isinstance(val, str) else f"expected a string, got {val!r}"


def _model_error(val) -> str | None:
    if (why := _string_error(val)) is None and val not in MODEL_NAMES:
        why = f"unknown model {val!r} (choose from {', '.join(MODEL_NAMES)})"
    return why


def _value(raw: dict, path: str, errors: list[str], problem=number_error,
           required: bool = False, what: str = "value"):
    """The value at the last part of the dotted ``path`` in ``raw``, or None
    after recording why it is missing or why ``problem`` rejects it."""
    key = path.rpartition(".")[2]
    if key not in raw:
        if required:
            errors.append(f"{path}: missing required {what}")
        return None
    if (why := problem(raw[key])) is not None:
        errors.append(f"{path}: {why}")
        return None
    return raw[key]


def _section(raw: dict, name: str, errors: list[str], required: bool = False):
    """The object at ``name`` in ``raw``; a top-level one is a config section."""
    return _value(raw, name, errors, _object_error, required,
                  what="value" if "." in name else "section")


def _unknown_keys(name: str, data: dict, known) -> list[str]:
    return [f"{name}.{key}: unknown key" for key in data if key not in known]


def _read_fields(cls, raw: dict, name: str, errors: list[str], required: bool = False,
                 **given):
    """A ``cls`` read from section ``name`` of ``raw``, one number per field.

    A field without a default is required and a defaulted one keeps its
    default when absent or unusable; fields in ``given`` are read by the
    caller. None, with the reasons in ``errors``, when the section is absent
    or not an object or a required value is missing or unusable.
    """
    data = _section(raw, name, errors, required)
    if data is None:
        return None
    errors.extend(_unknown_keys(name, data, [field.name for field in fields(cls)]))
    kwargs = dict(given)
    for field in fields(cls):
        if field.name not in given:
            value = _value(data, f"{name}.{field.name}", errors,
                           required=field.default is MISSING)
            if value is not None or field.default is MISSING:
                kwargs[field.name] = None if value is None else float(value)
    return None if None in kwargs.values() else cls(**kwargs)


@dataclass(frozen=True)
class _GridSection:
    n_points: float = DEFAULT_N_POINTS
    span_sigmas: float = DEFAULT_SPAN_SIGMAS


def _material_violations(material: Material) -> list[str]:
    return [f"material.{field.name}: must be positive" for field in fields(material)
            if not getattr(material, field.name) > 0]


def _resolve_gamma(raw: dict, material: Material | None,
                   errors: list[str]) -> float | None:
    """The waveguide's gamma as given or derived from ``material``, or None
    after recording why neither is usable."""
    gamma = _value(raw["waveguide"], "waveguide.gamma", errors)
    problems = [] if material is None else _material_violations(material)
    derived = None if material is None or problems else nonlinear_parameter(material)
    if "gamma" in raw["waveguide"]:
        if None not in (gamma, derived) and not math.isclose(
                gamma, derived, rel_tol=_GAMMA_AGREEMENT_RTOL):
            errors.append(f"waveguide.gamma: {float(gamma)!r} conflicts with the "
                          f"material-derived value {derived!r}")
        return None if gamma is None else float(gamma)
    if "material" not in raw:
        errors.append("waveguide.gamma: missing (provide gamma or a material section)")
    errors.extend(problems)  # a material section that cannot give gamma says why
    return derived


def _read_filter(filters: dict, name: str, errors: list[str]) -> FilterSpec | None:
    data = _section(filters, name, errors, required=True)
    if data is None:
        return None
    errors.extend(_unknown_keys(name, data, ("shape", "sigma_f")))
    shape = _value(data, f"{name}.shape", errors, _string_error)
    sigma_f = _value(data, f"{name}.sigma_f", errors)
    if sigma_f is None and "sigma_f" in data:
        return None
    try:
        return FilterSpec(sigma_f=None if sigma_f is None else float(sigma_f),
                          shape="gaussian" if shape is None else shape)
    except ConfigError as exc:
        errors.append(f"{name}: {exc}")
        return None


def config_from_dict(raw: dict, text: str = "",
                     grid_points: int | None = None,
                     span_sigmas: float | None = None) -> SimulationConfig:
    """Build and validate a SimulationConfig from parsed JSON.

    Collects every schema and semantic problem before raising, so a single
    round trip reports each of them once; the semantic checks wait until every
    section has been read. ``grid_points`` / ``span_sigmas`` override the grid
    section (command-line overrides), and their violations name the flag.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root: expected a JSON object")
    errors = [f"{key}: unknown section" for key in raw if key not in _SECTIONS]

    pump = _read_fields(PumpPulse, raw, "pump", errors, required=True)
    material = _read_fields(Material, raw, "material", errors)
    regime = _read_fields(RegimeCheckSpec, raw, "regime_check", errors)
    gamma = (_resolve_gamma(raw, material, errors)
             if isinstance(raw.get("waveguide"), dict) else None)
    waveguide = _read_fields(Waveguide, raw, "waveguide", errors, required=True,
                             gamma=gamma)

    signal_filter = idler_filter = None
    if (filters := _section(raw, "filters", errors, required=True)) is not None:
        errors.extend(_unknown_keys("filters", filters, ("signal", "idler")))
        signal_filter = _read_filter(filters, "filters.signal", errors)
        idler_filter = (_read_filter(filters, "filters.idler", errors)
                        if "idler" in filters else FilterSpec.unfiltered())

    grid_section = _read_fields(_GridSection, raw, "grid", errors) or _GridSection()
    n_points = int(grid_section.n_points)
    if n_points != grid_section.n_points:
        errors.append(f"grid.n_points: expected an integer, got {grid_section.n_points!r}")
        n_points = DEFAULT_N_POINTS
    n_points = n_points if grid_points is None else grid_points
    span = grid_section.span_sigmas if span_sigmas is None else span_sigmas

    model = _value(raw, "model", errors, _model_error, required=True)

    # the pulse width sizes the grid, and validate_config reports a nonpositive
    # one; the grid's own span and size are checked without it
    grid, late = None, []  # late: the violations a grid flag may have caused
    if pump is not None:
        try:
            if pump.sigma_t > 0:
                grid = build_temporal_grid(pump, [signal_filter, idler_filter],
                                           span_sigmas=span, n_points=n_points)
            else:
                _check_grid_size(span, n_points)
        except ConfigError as exc:
            late.append(str(exc))

    cfg = None
    if None not in (pump, waveguide, signal_filter, idler_filter, model):
        cfg = SimulationConfig(pump=pump, waveguide=waveguide,
                               signal_filter=signal_filter, idler_filter=idler_filter,
                               grid=grid, model=model, span_sigmas=span,
                               material=material, regime_check=regime)
        late.extend(validate_config(cfg))
    for message in late:  # a grid value a flag set is reported under the flag
        for flag, path, value in (("--grid-points", "grid.n_points", grid_points),
                                  ("--span-sigmas", "grid.span_sigmas", span_sigmas)):
            if value is not None and message.startswith(path + ":"):
                message = flag + message[len(path):]
        errors.append(message)
    if errors:
        raise violations_error("configuration", errors, text)
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
